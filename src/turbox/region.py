"""Feasible-region geometry in the (I, J) plane.

Extremal currents, the two boundary curves J_min(I) / J_max(I) with their
defining boxcars, bifurcation curves mapped from multiplier space, and the
boxcar-topology classification grid (interval count plus endpoint
finiteness at each sampled target).

The extremal shapes come from the multiplier limits: with the boxcar
condition written as sign(lam) (eps - eps1) delta_f >= 0, lam -> -inf gives
the boxcar between eps0 and eps1 and lam -> +inf its complement.  Both
families are parametrized by one monotone function (the current of the
compact boxcar as its free endpoint sweeps the line), so each boundary
point is found by a single bracketed root solve on the exact current of
physics.interval_moments.  At equal beta delta_f keeps one sign and eps0
does not exist; the compact shape is then the half line [eps1, inf), as if
eps0 sat at +inf, and its complement the half line (-inf, eps1').
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .boxcar import (
    EMPTY,
    BoxcarSet,
    Multipliers,
    _fields,
    _workspace,
    boxcar_integrals,
    solve_boxcar,
)
from .errors import ConvergenceError, FeasibilityError, SolverError
from .physics import ReservoirPair, epsilon_zero, g_ratio_limits, interval_moments

__all__ = [
    "CurrentBounds",
    "JExtrema",
    "current_bounds",
    "j_extrema",
    "bifurcation_curves",
    "classify_topology",
    "RegionMap",
    "compute_region_map",
]

INF = math.inf


@dataclass(frozen=True)
class CurrentBounds:
    I_min: float
    I_max: float
    boxcar_min: BoxcarSet
    boxcar_max: BoxcarSet


@dataclass(frozen=True)
class JExtrema:
    """Extremal energy currents at fixed particle current.

    eps1 is the free endpoint of the compact extremal boxcar (the other
    endpoint is eps0); the complement shape shares the same parametrization
    through a second threshold.  At equal beta both shapes are half lines,
    and eps1 is the endpoint of the J_min one.  Variances are reported for
    both extremal shapes.
    """

    J_min: float
    J_max: float
    eps1: float
    boxcar_min: BoxcarSet
    boxcar_max: BoxcarSet
    var_min: float
    var_max: float


def current_bounds(res: ReservoirPair) -> CurrentBounds:
    """I_min and I_max with the boxcars attaining them.

    delta_beta != 0: boxcars over the two sides of eps0.  delta_beta == 0:
    delta_f is sign-definite, so one extremum is the full line (I = delta_mu)
    and the other the empty set.
    """
    e0 = epsilon_zero(res)
    if e0 is None:
        full = BoxcarSet(((-INF, INF),))
        d = res.delta_mu
        if d == 0.0:
            return CurrentBounds(0.0, 0.0, EMPTY, EMPTY)
        if d < 0.0:
            return CurrentBounds(d, 0.0, full, EMPTY)
        return CurrentBounds(0.0, d, EMPTY, full)
    left = BoxcarSet(((-INF, e0),))
    right = BoxcarSet(((e0, INF),))
    I_left = boxcar_integrals(res, left)[0]
    I_right = boxcar_integrals(res, right)[0]
    if I_left <= I_right:
        return CurrentBounds(I_left, I_right, left, right)
    return CurrentBounds(I_right, I_left, right, left)


def _compact_current(res, t, e0):
    """Current of the boxcar between e0 and t (monotone in t)."""
    return interval_moments(res, min(t, e0), max(t, e0))[0]


def _solve_compact_endpoint(res, I, e0, I_lo, I_hi):
    """Invert _compact_current by bracketed root solve; +-inf at the ends."""
    ws = _workspace(res)
    sgn = 1.0 if _compact_current(res, ws.horizon_hi, e0) >= _compact_current(
        res, ws.horizon_lo, e0
    ) else -1.0

    def f(t):
        return _compact_current(res, t, e0) - I

    span = max(abs(I_hi), abs(I_lo))
    if abs(I) <= 1e-15 * span:
        return e0
    lo, hi = ws.horizon_lo, ws.horizon_hi
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        # beyond the attainable range at the horizon: the endpoint is at
        # infinity for all practical purposes
        return INF if (I > 0) == (sgn > 0) else -INF
    # the anchor at +inf (equal beta) sets no scale; the biases do
    scale = abs(e0) if math.isfinite(e0) else abs(res.mu_L) + abs(res.mu_R)
    return brentq(f, lo, hi, xtol=1e-13 * (1.0 + scale), rtol=8.9e-16)


def _interval_between(a, b):
    if a == b:
        return EMPTY
    return BoxcarSet(((min(a, b), max(a, b)),))


def _complement_set(e0, t):
    lo, hi = min(e0, t), max(e0, t)
    if lo == hi:
        return BoxcarSet(((-INF, INF),))
    pieces = []
    if lo != -INF:
        pieces.append((-INF, lo))
    if hi != INF:
        pieces.append((hi, INF))
    if not pieces:
        return EMPTY
    return BoxcarSet(tuple(pieces))


def j_extrema(res: ReservoirPair, I) -> JExtrema:
    """J_min(I) and J_max(I) with their defining boxcars and variances.

    One extremum is the compact boxcar between eps0 and eps1 (eps1 found by
    monotone bracketed solve of the exact current), the other its
    complement at the same I; which is which follows from comparing the two
    energy currents (the compact one is J_min exactly when T_L > T_R).
    """
    cb = current_bounds(res)
    if not (cb.I_min < I < cb.I_max):
        raise FeasibilityError(
            f"I = {I} outside the open current range ({cb.I_min}, {cb.I_max})",
            boundary="I_min" if I <= cb.I_min else "I_max",
        )
    # at equal beta delta_f keeps one sign and the compact shape is the
    # half line [eps1, inf): the anchor eps0 moves to +inf
    e0 = epsilon_zero(res)
    if e0 is None:
        e0 = INF
    t = _solve_compact_endpoint(res, I, e0, cb.I_min, cb.I_max)
    B_c = _interval_between(e0, t)
    # complement shape with the same current: its compact partner carries
    # the remaining full-line current delta_mu - I
    t_p = _solve_compact_endpoint(res, res.delta_mu - I, e0, cb.I_min, cb.I_max)
    B_p = _complement_set(e0, t_p)
    _, J_c, V_c = boxcar_integrals(res, B_c)
    _, J_p, V_p = boxcar_integrals(res, B_p)
    if J_c <= J_p:
        return JExtrema(J_c, J_p, t, B_c, B_p, V_c, V_p)
    # at equal beta eps1 belongs to the J_min half line (see JExtrema)
    return JExtrema(J_p, J_c, t_p if e0 == INF else t, B_p, B_c, V_p, V_c)


# ---------------------------------------------------------------------------
# bifurcation curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BifurcationPoint:
    tag: str  # "B_tan" or "B_0"
    lam: float
    eta: float
    I: float
    J: float


def bifurcation_curves(res: ReservoirPair, z_grid=None, eta_grid=None):
    """Bifurcation set sampled in multiplier space and mapped to (I, J).

    Tangency branch: lam = G'(z), eta = G(z) - z G'(z) with G = g/delta_f
    (a double root of R is born where the line is tangent to G), and G' is
    exact from the analytic derivatives of g and delta_f.  The
    lam = 0 branch is sampled over eta_grid; crossing it toggles one tail
    root.  z values too close to eps0 are skipped with a notice.
    """
    ws = _workspace(res)
    e0 = epsilon_zero(res)
    if z_grid is None:
        z_grid = np.linspace(ws.quad_lo, ws.quad_hi, 241)
    z_grid = np.asarray(z_grid, dtype=float)

    # G' = (g' delta_f - g delta_f') / delta_f^2, exact from one field pass
    df, g, dfp, gp = _fields(res, z_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = g / df
        dG = (gp - G * dfp) / df
    keep = np.isfinite(G) & np.isfinite(dG)
    if e0 is not None:
        keep &= np.abs(z_grid - e0) >= 0.2 / ws.beta_max
    skipped = int(z_grid.size - np.count_nonzero(keep))

    rows = []
    for z, gz, dgz in zip(z_grid[keep], G[keep], dG[keep]):
        lam = float(dgz)
        eta = float(gz - z * dgz)
        try:
            B = solve_boxcar(res, Multipliers(lam, eta))
        except SolverError:
            # the tangency point itself is the degenerate case the scan is
            # allowed to miss; perturb off the curve for the mapped point
            B = solve_boxcar(res, Multipliers(lam, eta * (1 + 1e-9) + 1e-12))
        I, J, _ = boxcar_integrals(res, B)
        rows.append(BifurcationPoint("B_tan", lam, eta, I, J))
    if skipped:
        warnings.warn(
            f"bifurcation_curves: skipped {skipped} z values too close to eps0 "
            "or where delta_f underflows",
            stacklevel=2,
        )

    if eta_grid is None:
        lim = g_ratio_limits(res)
        pool = np.append(G[keep], lim)
        lo, hi = np.percentile(pool, [2.0, 98.0])
        pad = 0.25 * (hi - lo) + 0.1
        eta_grid = np.linspace(lo - pad, hi + pad, 121)
    for eta in np.asarray(eta_grid, dtype=float):
        B = solve_boxcar(res, Multipliers(0.0, float(eta)))
        I, J, _ = boxcar_integrals(res, B)
        rows.append(BifurcationPoint("B_0", 0.0, float(eta), I, J))
    return rows


def classify_topology(res: ReservoirPair, I, J, tol=1e-8, guess=None):
    """Boxcar signature (interval count, left-infinite?, right-infinite?)
    of the optimal transmission at feasible target (I, J)."""
    from .inverse import solve_multipliers

    sol = solve_multipliers(res, I, J, tol=tol, guess=guess)
    return sol.boxcar.signature()


# ---------------------------------------------------------------------------
# region map
# ---------------------------------------------------------------------------


@dataclass
class RegionMap:
    i_range: tuple
    boundary: list  # rows (I, J_min, J_max, eps1)
    bifurcations: list  # BifurcationPoint rows
    topology: list  # rows (I, J, count, left_inf, right_inf)
    notes: dict = field(default_factory=dict)

    def max_interval_count(self):
        return max((r[2] for r in self.topology), default=0)

    def to_json_dict(self):
        return {
            "i_range": list(self.i_range),
            "boundary": [list(r) for r in self.boundary],
            "bifurcations": [
                [p.tag, p.lam, p.eta, p.I, p.J] for p in self.bifurcations
            ],
            "topology": [
                [I, J, count, int(li), int(ri)]
                for (I, J, count, li, ri) in self.topology
            ],
            "notes": self.notes,
        }

    def write_csv_dir(self, directory):
        """Write boundary.csv, bifurcations.csv, topology.csv and region.json."""
        import os

        from .serialize import csv_text, to_json_text

        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "boundary.csv"), "w", encoding="utf-8") as fh:
            fh.write(csv_text(("I", "J_min", "J_max", "eps1"), self.boundary))
        with open(
            os.path.join(directory, "bifurcations.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write(
                csv_text(
                    ("tag", "lambda", "eta", "I", "J"),
                    [(p.tag, p.lam, p.eta, p.I, p.J) for p in self.bifurcations],
                )
            )
        with open(os.path.join(directory, "topology.csv"), "w", encoding="utf-8") as fh:
            fh.write(
                csv_text(
                    ("I", "J", "count", "left_inf", "right_inf"),
                    [
                        (I, J, count, int(li), int(ri))
                        for (I, J, count, li, ri) in self.topology
                    ],
                )
            )
        with open(os.path.join(directory, "region.json"), "w", encoding="utf-8") as fh:
            fh.write(to_json_text(self.to_json_dict()))


def compute_region_map(
    res: ReservoirPair,
    n_boundary=64,
    n_topology=(64, 64),
    z_grid=None,
    eta_grid=None,
    tol=1e-6,
    boundary_inset=1e-3,
) -> RegionMap:
    """Sample the full region: boundary polylines, bifurcation curves and a
    topology grid clipped to the feasible set.

    The topology grid marches column-by-column with warm-started inverse
    solves: each target starts from the solution below it, and each
    column's bottom from the previous column's bottom.  A note records the
    largest interval count observed (counts above 3 are reported as an
    observation, never rejected).  A target whose solve fails is left out
    of the grid, and `notes["skipped_targets"]` counts them when any are.
    """
    from .inverse import solve_multipliers

    cb = current_bounds(res)
    span = cb.I_max - cb.I_min
    if span <= 0:
        raise FeasibilityError("degenerate region: I_min == I_max")

    edge = 1e-4 * span
    i_vals = np.linspace(cb.I_min + edge, cb.I_max - edge, n_boundary)
    boundary = []
    extrema = {}
    for I in i_vals:
        ex = j_extrema(res, float(I))
        extrema[float(I)] = ex
        boundary.append((float(I), ex.J_min, ex.J_max, ex.eps1))

    bif = bifurcation_curves(res, z_grid=z_grid, eta_grid=eta_grid)

    n_i, n_j = n_topology
    i_topo = np.linspace(cb.I_min + edge, cb.I_max - edge, n_i)
    topology = []
    max_count = 0
    skipped = 0
    guess = None
    for I in i_topo:
        ex = extrema.get(float(I)) or j_extrema(res, float(I))
        width = ex.J_max - ex.J_min
        if width <= 0:
            continue
        inset = boundary_inset * width
        col_guess = guess
        bottom = None
        for J in np.linspace(ex.J_min + inset, ex.J_max - inset, n_j):
            try:
                sol = solve_multipliers(res, float(I), float(J), tol=tol,
                                        guess=col_guess)
            except (FeasibilityError, SolverError, ConvergenceError):
                skipped += 1
                continue
            col_guess = sol.multipliers
            if bottom is None:
                bottom = sol.multipliers
            count, li, ri = sol.boxcar.signature()
            max_count = max(max_count, count)
            topology.append((float(I), float(J), count, li, ri))
        # the next column starts at its bottom, next to this column's bottom
        if bottom is not None:
            guess = bottom

    notes = {"max_interval_count": max_count}
    if max_count > 3:
        notes["more_than_three_intervals"] = True
    if skipped:
        notes["skipped_targets"] = skipped
    return RegionMap(
        i_range=(cb.I_min, cb.I_max),
        boundary=boundary,
        bifurcations=bif,
        topology=topology,
        notes=notes,
    )
