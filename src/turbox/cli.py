"""Command-line surface.

Subcommands: eval, optimize, region, sweep, oracle, linear.  Machine
output (JSON/CSV, floats at 17 significant digits) goes to --out or
stdout; human-readable diagnostics go to stderr.  Exit codes: 0 success,
1 validation error, 2 convergence/feasibility error, 3 oracle FAIL
verdict.  All inputs are validated before any computation starts, and no
output file is written unless the computation succeeded, so a failing run
never leaves partial files behind.

Reservoirs are accepted as temperatures (--TL/--TR) or inverse
temperatures (--betaL/--betaR) plus --muL/--muR; mixing the two styles is
rejected.  A JSON config file may supply any long-option value (keys are
the option names with dashes replaced by underscores); explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    LinearResponseFrame,
    dqd_transmission,
    default_bias_grid,
    fano_sweep,
    linear_tur_bound,
)
from .boxcar import BoxcarSet
from .errors import (
    ConvergenceError,
    FeasibilityError,
    FormulaMismatchError,
    NearBifurcationError,
    SingularityError,
    SolverError,
    ValidationError,
)
from .inverse import solve_multipliers
from .oracle import verify
from .physics import ReservoirPair
from .region import compute_region_map
from .serialize import csv_text, to_json_text, write_text
from .transport import BoxcarTransmission, load_transmission_csv, summary

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_ORACLE_FAIL = 3

_MODELS = {"dqd": ("Gamma", "Omega", "omega")}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="turbox",
        description="Quantum-thermoelectric transport and minimal-variance "
        "boxcar transmission solver.",
    )
    p.add_argument("--config", help="JSON file supplying default option values")
    sub = p.add_subparsers(dest="command", required=True)

    def add_reservoir(sp):
        sp.add_argument("--TL", type=float, help="left temperature")
        sp.add_argument("--TR", type=float, help="right temperature")
        sp.add_argument("--betaL", type=float, help="left inverse temperature")
        sp.add_argument("--betaR", type=float, help="right inverse temperature")
        sp.add_argument("--muL", type=float, help="left chemical potential")
        sp.add_argument("--muR", type=float, help="right chemical potential")

    def add_common(sp):
        sp.add_argument("--tol", type=float, default=None, help="relative tolerance")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("eval", help="transport summary for a transmission")
    add_reservoir(sp)
    add_common(sp)
    sp.add_argument("--boxcar", help="boxcar JSON, e.g. '[[0.5, \"inf\"]]'")
    sp.add_argument("--model", help=f"closed-form model name {sorted(_MODELS)}")
    sp.add_argument("--params", help="model parameters, e.g. Gamma=0.1,Omega=0.05")
    sp.add_argument("--table", help="CSV file with energy,transmission columns")

    sp = sub.add_parser("optimize", help="minimal-variance boxcar at target currents")
    add_reservoir(sp)
    add_common(sp)
    sp.add_argument("--I", type=float, required=False, help="target particle current")
    sp.add_argument("--J", type=float, required=False, help="target energy current")

    sp = sub.add_parser("region", help="feasible-region map (boundary, bifurcations, topology)")
    add_reservoir(sp)
    add_common(sp)
    sp.add_argument("--nI", type=int, default=64, help="topology grid columns")
    sp.add_argument("--nJ", type=int, default=64, help="topology grid rows")
    sp.add_argument("--n-boundary", type=int, default=64, help="boundary samples")
    sp.add_argument("--out-dir", help="write boundary/bifurcations/topology CSVs here")

    sp = sub.add_parser("sweep", help="bias sweep of model vs optimal Fano factor")
    add_common(sp)
    sp.add_argument("--Gamma", type=float, help="dot-lead coupling")
    sp.add_argument("--Omega", type=float, help="inter-dot hopping")
    sp.add_argument("--omega", type=float, help="dot level")
    sp.add_argument("--beta", type=float, help="common inverse temperature")
    sp.add_argument("--dmu", help="comma-separated bias list (default built-in grid)")

    sp = sub.add_parser("oracle", help="discrete-program verification report")
    add_reservoir(sp)
    add_common(sp)
    sp.add_argument("--I", type=float, help="target particle current")
    sp.add_argument("--J", type=float, help="target energy current")
    sp.add_argument("--N", type=int, default=16, help="number of cells")
    sp.add_argument("--window", help="lo,hi energy window (default by g mass)")

    sp = sub.add_parser("linear", help="small-gradient precision diagnostics")
    add_common(sp)
    sp.add_argument("--beta", type=float, help="mean inverse temperature")
    sp.add_argument("--mu", type=float, help="mean chemical potential")
    sp.add_argument("--dbeta", type=float, help="inverse-temperature difference")
    sp.add_argument("--dbetamu", type=float, help="beta*mu difference")
    sp.add_argument("--boxcar", help="boxcar JSON")
    return p


def _apply_config(args):
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) in (None,):
            setattr(args, attr, val)


def _reservoirs(args) -> ReservoirPair:
    has_T = args.TL is not None or args.TR is not None
    has_b = args.betaL is not None or args.betaR is not None
    if has_T and has_b:
        raise ValidationError("give temperatures or inverse temperatures, not both")
    if args.muL is None or args.muR is None:
        raise ValidationError("--muL and --muR are required")
    if has_T:
        if args.TL is None or args.TR is None:
            raise ValidationError("both --TL and --TR are required")
        return ReservoirPair.from_temperatures(
            float(args.TL), float(args.TR), float(args.muL), float(args.muR)
        )
    if args.betaL is None or args.betaR is None:
        raise ValidationError("both --betaL and --betaR (or --TL/--TR) are required")
    return ReservoirPair(
        float(args.betaL), float(args.betaR), float(args.muL), float(args.muR)
    )


def _parse_params(text):
    out = {}
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValidationError(f"bad model parameter {item!r}, expected name=value")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise ValidationError(f"non-numeric model parameter {item!r}") from None
    return out


def _transmission(args):
    given = [x for x in (args.boxcar, args.model, args.table) if x]
    if len(given) != 1:
        raise ValidationError("give exactly one of --boxcar, --model, --table")
    if args.boxcar:
        try:
            return BoxcarTransmission(BoxcarSet.from_json(args.boxcar))
        except (json.JSONDecodeError, TypeError) as exc:
            raise ValidationError(f"bad boxcar JSON: {exc}") from exc
    if args.table:
        return load_transmission_csv(args.table)
    name = args.model
    if name not in _MODELS:
        raise ValidationError(f"unknown model {name!r}; available: {sorted(_MODELS)}")
    params = _parse_params(args.params)
    needed = _MODELS[name]
    missing = [k for k in needed if k not in params]
    extra = [k for k in params if k not in needed]
    if missing or extra:
        raise ValidationError(
            f"model {name} needs parameters {needed}; missing {missing}, extra {extra}"
        )
    return dqd_transmission(params["Gamma"], params["Omega"], params["omega"])


def _require(args, names):
    for n in names:
        if getattr(args, n, None) is None:
            raise ValidationError(f"--{n} is required for this subcommand")


def _cmd_eval(args):
    res = _reservoirs(args)
    T = _transmission(args)
    tol = args.tol if args.tol is not None else 1e-8
    s = summary(T, res, abstol=min(1e-10, tol), reltol=tol)
    return to_json_text(s.to_dict()), None


def _cmd_optimize(args):
    res = _reservoirs(args)
    _require(args, ["I", "J"])
    tol = args.tol if args.tol is not None else 1e-8
    sol = solve_multipliers(res, args.I, args.J, tol=tol)
    return to_json_text(sol.to_dict()), None


def _cmd_region(args):
    res = _reservoirs(args)
    tol = args.tol if args.tol is not None else 1e-6
    rm = compute_region_map(
        res,
        n_boundary=args.n_boundary,
        n_topology=(args.nI, args.nJ),
        tol=tol,
    )
    if args.out_dir:
        rm.write_csv_dir(args.out_dir)
        print(f"region map written to {args.out_dir}", file=sys.stderr)
        return None, None
    return to_json_text(rm.to_json_dict()), None


def _cmd_sweep(args):
    _require(args, ["Gamma", "Omega", "omega", "beta"])
    tol = args.tol if args.tol is not None else 1e-8
    if args.dmu:
        try:
            grid = [float(x) for x in args.dmu.split(",") if x.strip()]
        except ValueError:
            raise ValidationError(f"bad --dmu list {args.dmu!r}") from None
    else:
        grid = default_bias_grid()
    rows = fano_sweep(args.Gamma, args.Omega, args.omega, args.beta, grid, tol=tol)
    header = (
        "dmu",
        "I",
        "J",
        "var_model",
        "fano_model_scaled",
        "var_opt",
        "fano_opt_scaled",
    )
    return csv_text(header, [[r[k] for k in header] for r in rows]), None


def _cmd_oracle(args):
    res = _reservoirs(args)
    _require(args, ["I", "J"])
    tol = args.tol if args.tol is not None else 1e-8
    window = None
    if args.window:
        try:
            lo, hi = (float(x) for x in args.window.split(","))
        except ValueError:
            raise ValidationError(f"bad --window {args.window!r}, expected lo,hi") from None
        window = (lo, hi)
    report = verify(res, args.I, args.J, N=args.N, window=window, tol=tol)
    code = EXIT_ORACLE_FAIL if report["verdict"] == "FAIL" else None
    return to_json_text(report), code


def _cmd_linear(args):
    _require(args, ["beta", "dbeta", "dbetamu", "boxcar"])
    mu = args.mu if args.mu is not None else 0.0
    frame = LinearResponseFrame(
        beta=args.beta, mu=mu, d_beta=args.dbeta, d_beta_mu=args.dbetamu
    )
    try:
        B = BoxcarSet.from_json(args.boxcar)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ValidationError(f"bad boxcar JSON: {exc}") from exc
    r = linear_tur_bound(frame, B)
    out = {
        "ratio": r.ratio,
        "I": r.I,
        "J": r.J,
        "var_I": r.var_I,
        "sigma": r.sigma,
        "theta0": r.theta0,
        "theta1": r.theta1,
        "theta2": r.theta2,
    }
    return to_json_text(out), None


_COMMANDS = {
    "eval": _cmd_eval,
    "optimize": _cmd_optimize,
    "region": _cmd_region,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "linear": _cmd_linear,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        text, code = _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        ConvergenceError,
        FeasibilityError,
        SolverError,
        NearBifurcationError,
        SingularityError,
        FormulaMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    if text is not None:
        write_text(getattr(args, "out", None), text)
    return EXIT_OK if code is None else code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
