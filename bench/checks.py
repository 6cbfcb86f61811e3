"""Output checks, run after each workload's timed section.

Each check takes outputs the benchmark collected and returns a list of
problems (empty when the outputs are right).  None of them calls the turbox
function whose output it checks: they compare against `reference.py` or
against a property the method must have.  `test_checks.py` shows that each
one rejects a deliberately perturbed output.
"""

from __future__ import annotations

import numpy as np

import reference

# -- region-map -------------------------------------------------------------


def boundary_shape(boundary, rtol=1e-9):
    """J_min(I) is convex and J_max(I) concave: the feasible set is the
    linear image (I, J) of the convex set of transmissions [0, 1]^R.

    `boundary` rows are (I, J_min, J_max, eps1) on an evenly spaced I grid;
    the second differences may miss the sign by quadrature noise only."""
    rows = np.asarray([r[:3] for r in boundary], dtype=float)
    problems = []
    if len(rows) < 3:
        return [f"boundary has {len(rows)} rows, need at least 3"]
    tol = rtol * max(float(np.abs(rows[:, 1:]).max()), 1e-300)
    for col, name, sign in ((1, "J_min", 1.0), (2, "J_max", -1.0)):
        d2 = sign * np.diff(rows[:, col], 2)
        bad = np.nonzero(d2 < -tol)[0]
        if bad.size:
            k = int(bad[0]) + 1
            problems.append(
                f"{name}(I) is not {'convex' if sign > 0 else 'concave'} at "
                f"I={rows[k, 0]!r}: second difference {sign * d2[k - 1]:.3e}"
            )
    return problems


def column_ends(topology, bottom=(1, False, False), top=(2, True, True)):
    """In every column the target nearest J_min has the compact boxcar and
    the one nearest J_max its complement (the signatures for T_L > T_R)."""
    columns = {}
    for I, J, count, left_inf, right_inf in topology:
        columns.setdefault(I, []).append((J, (count, bool(left_inf), bool(right_inf))))
    problems = []
    for I, cells in sorted(columns.items()):
        cells.sort()
        if cells[0][1] != bottom:
            problems.append(f"column I={I!r}: bottom signature {cells[0][1]}, want {bottom}")
        if cells[-1][1] != top:
            problems.append(f"column I={I!r}: top signature {cells[-1][1]}, want {top}")
    return problems


def target_count(topology, attempted):
    """compute_region_map returns one row per target it was asked for."""
    if len(topology) != attempted:
        return [f"{attempted} targets attempted, {len(topology)} returned"]
    return []


def resolved_boxcar(res, I_t, J_t, sol, signature, tol=1e-8):
    """An optimum re-solved at a map target, against independent arithmetic.

    Its I (closed-form antiderivative) and J (quad) reproduce the target,
    its variance (sum of (f(a) - f(b))/beta) equals var_opt, the sign
    condition R <= 0 inside the intervals and R >= 0 outside holds at
    sample energies, and its signature is the one the map reported."""
    problems = []
    iv = sol.boxcar.intervals
    I = reference.boxcar_current(res, iv)
    J = reference.boxcar_energy_current(res, iv)
    V = reference.boxcar_variance(res, iv)
    # twice this covers the solver's own tolerance, tol * max(|X|, 1e-2 span)
    span = abs(I_t) + abs(J_t) + 1e-2
    if abs(I - I_t) > 2.0 * tol * span:
        problems.append(f"({I_t!r}, {J_t!r}): boxcar carries I={I!r}")
    if abs(J - J_t) > 2.0 * tol * span + 1e-10:
        problems.append(f"({I_t!r}, {J_t!r}): boxcar carries J={J!r}")
    if abs(V - sol.var_opt) > 1e-9 + 1e-8 * abs(V):
        problems.append(
            f"({I_t!r}, {J_t!r}): var_opt={sol.var_opt!r}, boxcar variance {V!r}"
        )
    if sol.boxcar.signature() != tuple(signature):
        problems.append(
            f"({I_t!r}, {J_t!r}): map signature {tuple(signature)}, "
            f"re-solved {sol.boxcar.signature()}"
        )

    lam, eta = sol.multipliers.lam, sol.multipliers.eta
    lo, hi = reference.window(res)
    ends = np.array([e for ab in iv for e in ab if np.isfinite(e)])
    eps = np.linspace(lo, hi, 2001)
    if ends.size:
        near = np.min(np.abs(eps[:, None] - ends[None, :]), axis=1)
        eps = eps[near > 1e-6 * (1.0 + np.abs(eps))]
    R = reference.residual(res, lam, eta, eps)
    inside = np.zeros(eps.shape, dtype=bool)
    for a, b in iv:
        inside |= (eps >= a) & (eps <= b)
    slack = 1e-13 * (1.0 + abs(lam) * np.abs(eps) + abs(eta))
    bad = np.nonzero(np.where(inside, R > slack, R < -slack))[0]
    if bad.size:
        e = eps[bad[0]]
        problems.append(
            f"({I_t!r}, {J_t!r}): sign condition fails at eps={e!r} "
            f"({'inside' if inside[bad[0]] else 'outside'}, R={R[bad[0]]:.3e})"
        )
    return problems


# -- oracle-verify ----------------------------------------------------------


def verify_report(report):
    """Properties every `verify` report must have.

    PASS verdict; neither discrete value beats the continuous optimum,
    since each is the exact variance of a cell-constant transmission with
    the target currents; and the quadratic objective bounds its
    linearisation from above, Q - L >= 0.

    `refined_Q <= discrete_Q` is not asserted although the 2N cells refine
    the N: verify solves the 2N = 32 cells in LP mode, so refined_Q is the
    quadratic objective at the LP vertex, not the 32-cell minimum."""
    problems = []
    if report["verdict"] != "PASS":
        problems.append(f"verdict {report['verdict']}")
    for key in ("discrete_Q", "refined_Q"):
        if report[key] < report["continuous_var"] - 1e-10:
            problems.append(
                f"{key} {report[key]!r} < continuous_var {report['continuous_var']!r}"
            )
    if report["discrete_Q"] - report["discrete_L"] < 0.0:
        problems.append(
            f"Q - L = {report['discrete_Q'] - report['discrete_L']!r} < 0"
        )
    return problems


# -- bias-sweep -------------------------------------------------------------


def sweep_rows(rows, beta, grid):
    """Every row of a fano_sweep: one row per bias, var_opt <= var_model,
    and var_opt equal to the symmetric-boxcar closed form (width from the
    benchmark's own bisection on the exact current)."""
    problems = []
    if [r["dmu"] for r in rows] != [float(d) for d in grid]:
        problems.append(f"{len(rows)} rows for a {len(grid)}-point bias grid")
    for r in rows:
        if not r["var_opt"] <= r["var_model"]:
            problems.append(
                f"dmu={r['dmu']!r}: var_opt {r['var_opt']!r} > var_model {r['var_model']!r}"
            )
    closed = reference.symmetric_boxcar_variance(
        beta, [r["dmu"] for r in rows], [r["I"] for r in rows]
    )
    for r, want in zip(rows, closed):
        if abs(r["var_opt"] - want) > 1e-10 + 1e-6 * abs(want):
            problems.append(
                f"dmu={r['dmu']!r}: var_opt {r['var_opt']!r}, closed form {want!r}"
            )
    return problems


def model_rows(rows, params, row_indices):
    """The model's I and var_I on the chosen rows, against quad with the
    resonance energies as break points (summary's own tolerances: 1e-10
    absolute, 1e-8 relative, each doubled)."""
    Gamma, Omega, omega, beta = params
    problems = []
    for k in row_indices:
        r = rows[k]
        dmu = r["dmu"]
        res = reference.symmetric_baths(beta, dmu)
        I, V = reference.model_current_and_variance(Gamma, Omega, omega, res)
        for name, got, want in (("I", r["I"], I), ("var_model", r["var_model"], V)):
            if abs(got - want) > 2e-10 + 2e-8 * abs(want):
                problems.append(f"dmu={dmu!r}: {name} {got!r}, quad {want!r}")
    return problems

