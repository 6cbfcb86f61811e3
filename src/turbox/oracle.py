"""Independent optimality verification on an energy grid.

The variance minimization restricted to transmissions that are constant on
the cells of a grid is a finite-dimensional concave program over the
polytope {0 <= tau <= 1, B.tau = I0, C.tau = J0}.  Its minimum sits at a
vertex, where at least N-2 coordinates are binary, so exhaustive vertex
enumeration (every choice of the two non-binary cells, every binary
pattern for the rest) certifies the optimum exactly at desk scale.  The
enumeration is a branch and bound over all pairs at once: a partial
pattern is dropped only when no completion of it can put the two free
cells in [0, 1], with a rounding slack, so the pruning is conservative and
every vertex an unpruned enumeration accepts is still visited and tested
the same way.  The linearized objective sum(tau_i A_i) is minimized the
same way (or by an LP for larger N); the quadratic and linear optima
bracket the continuous minimal variance up to an explicit grid-resolution
bound.

Per-cell data:

    A_i = integral of g         B_i = integral of delta_f
    C_i = integral of eps*delta_f
    D_i = integral of delta_f^2   (quadratic weight; makes
                                   Q(tau) = sum tau(A+D) - tau^2 D the exact
                                   variance of the piecewise-constant tau)

and the boxcar-measure diagnostic is boxcar_defect(tau) = sum D_i tau_i (1 - tau_i).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog

from .errors import FeasibilityError, ValidationError
from .physics import ReservoirPair, df_g_arrays, g_noise, interval_moments
from .quadrature import gk15_per_panel

__all__ = [
    "GridCells",
    "mass_window",
    "g_total_mass",
    "discretize",
    "DiscreteSolution",
    "solve_discrete",
    "boxcar_defect",
    "snap_boxcar",
    "grid_error_bound",
    "verify",
]

INF = math.inf
EXHAUSTIVE_CAP = 16
_FEAS_TOL = 1e-9
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class GridCells:
    """Uniform energy cells with their per-cell integrals."""

    res: ReservoirPair
    edges: tuple
    A: tuple
    B: tuple
    C: tuple
    D: tuple

    @property
    def n_cells(self):
        return len(self.A)

    @property
    def width(self):
        return self.edges[1] - self.edges[0]

    @property
    def window(self):
        return (self.edges[0], self.edges[-1])

    def arrays(self):
        return (
            np.asarray(self.A),
            np.asarray(self.B),
            np.asarray(self.C),
            np.asarray(self.D),
        )


def g_total_mass(res):
    """integral of g over the whole line: 1/beta_L + 1/beta_R."""
    return 1.0 / res.beta_L + 1.0 / res.beta_R


@functools.lru_cache(maxsize=128)
def mass_window(res: ReservoirPair, frac=1e-8):
    """Window capturing all but `frac` of the total g mass (half per side).

    Memoised: verify asks for the same window on every call."""
    total = g_total_mass(res)
    target = 0.5 * frac * total
    lo0 = min(res.mu_L - 800.0 / res.beta_L, res.mu_R - 800.0 / res.beta_R)
    hi0 = max(res.mu_L + 800.0 / res.beta_L, res.mu_R + 800.0 / res.beta_R)
    hi = brentq(lambda w: interval_moments(res, w, INF)[2] - target, lo0, hi0,
                xtol=1e-10)
    lo = brentq(lambda w: interval_moments(res, -INF, w)[2] - target, lo0, hi0,
                xtol=1e-10)
    return lo, hi


def discretize(res: ReservoirPair, window, N) -> GridCells:
    """Uniform cells over `window`.  B, C and A, the integrals of delta_f,
    eps*delta_f and g, are exact, one physics.interval_moments call per
    cell; D, which has no closed form, is summed by Kronrod panels."""
    lo, hi = float(window[0]), float(window[1])
    if lo > hi:
        raise ValidationError(f"window must satisfy lo <= hi, got ({lo}, {hi})")
    if N < 2:
        raise ValidationError(f"need at least 2 cells, got N={N}")
    if lo == hi:
        zeros = (0.0,) * N
        return GridCells(
            res=res,
            edges=tuple(np.full(N + 1, lo)),
            A=zeros,
            B=zeros,
            C=zeros,
            D=zeros,
        )
    edges = np.linspace(lo, hi, N + 1)
    width = edges[1] - edges[0]
    beta_max = max(res.beta_L, res.beta_R)
    sub = max(1, int(math.ceil(width * beta_max / 1.5)))
    plo = np.repeat(edges[:-1], sub) + np.tile(
        np.arange(sub) * (width / sub), N
    )
    phi = plo + width / sub

    kD, _ = gk15_per_panel(lambda x: df_g_arrays(res, x)[0] ** 2, plo, phi)
    D = kD.reshape(N, sub).sum(axis=1)
    B, C, A = np.array([interval_moments(res, a, b) for a, b in zip(edges, edges[1:])]).T
    return GridCells(
        res=res,
        edges=tuple(edges),
        A=tuple(A),
        B=tuple(B),
        C=tuple(C),
        D=tuple(D),
    )


@dataclass(frozen=True)
class DiscreteSolution:
    """Optima of the quadratic and linearized cell programs."""

    tau: tuple  # minimizer of the quadratic objective
    Q: float
    tau_linear: tuple
    L: float
    mode: str  # "exhaustive" or "lp"

    @property
    def n_fractional(self):
        return sum(1 for t in self.tau if _FEAS_TOL < t < 1.0 - _FEAS_TOL)


def boxcar_defect(cells: GridCells, tau):
    """sum D_i tau_i (1 - tau_i): zero exactly on binary (boxcar) patterns."""
    t = np.asarray(tau, dtype=float)
    return float(np.dot(np.asarray(cells.D), t * (1.0 - t)))


def _lex_less(a, b):
    for x, y in zip(a, b):
        if x < y - 1e-15:
            return True
        if x > y + 1e-15:
            return False
    return False


class _Best:
    """Running minimum with lexicographically-smallest tie-breaking."""

    def __init__(self):
        self.value = math.inf
        self.tau = None

    def offer(self, value, tau):
        if self.tau is None:
            self.value = value
            self.tau = tau
            return
        tol = _TIE_TOL * (1.0 + abs(self.value))
        if value < self.value - tol:
            self.value = value
            self.tau = tau
        elif value <= self.value + tol and _lex_less(tau, self.tau):
            self.value = min(self.value, value)
            self.tau = tau


def solve_discrete(cells: GridCells, I0, J0, mode="auto") -> DiscreteSolution:
    """Minimize the quadratic and linearized objectives over the polytope.

    mode "exhaustive" enumerates every vertex (N <= 16) by branch and
    bound, and takes the minimum of each objective over the vertices.  The
    pruning only drops partial patterns whose every completion leaves a
    free cell outside [0, 1] by more than a rounding slack, so the vertices
    tested, and the optima, are those of an unpruned enumeration.  "lp"
    solves only the linear program (valid at any N, with the quadratic
    value evaluated at the LP vertex); "auto" picks exhaustive when
    affordable.
    """
    N = cells.n_cells
    if mode == "auto":
        mode = "exhaustive" if N <= EXHAUSTIVE_CAP else "lp"
    if mode == "exhaustive" and N > EXHAUSTIVE_CAP:
        raise ValidationError(
            f"exhaustive enumeration capped at N={EXHAUSTIVE_CAP} (got {N}); "
            "use LP mode"
        )
    A, B, C, D = cells.arrays()
    if mode == "lp":
        return _solve_lp(cells, A, B, C, D, float(I0), float(J0))
    return _solve_exhaustive(cells, A, B, C, D, float(I0), float(J0))


def _q_of(A, D, tau):
    return float(np.dot(tau, A + D) - np.dot(tau * tau, D))


def _solve_lp(cells, A, B, C, D, I0, J0):
    r = linprog(
        c=A,
        A_eq=np.vstack([B, C]),
        b_eq=[I0, J0],
        bounds=[(0.0, 1.0)] * len(A),
        method="highs",
    )
    if not r.success:
        raise FeasibilityError(
            f"(I0, J0) = ({I0}, {J0}) infeasible for the cell polytope: {r.message}",
            boundary="cell polytope",
        )
    tau = np.clip(r.x, 0.0, 1.0)
    return DiscreteSolution(
        tau=tuple(tau),
        Q=_q_of(A, D, tau),
        tau_linear=tuple(tau),
        L=float(r.fun),
        mode="lp",
    )


def _others(i, j, m):
    """Row r lists, in increasing order, the m cells other than i[r] < j[r]."""
    k = np.arange(m)
    return k + (k >= i[:, None]) + (k >= j[:, None] - 1)


def _vertices(A, B, C, I0, J0):
    """Every feasible vertex: a pair (i, j) of free cells, the rest binary.

    A vertex's binary cells form a pattern p whose bit k is the k-th cell
    other than i and j.  With det = B_i C_j - B_j C_i, the pattern fixes
    t_i = t0 - sum_k p_k u_k and t_j = s0 - sum_k p_k v_k, where
    u_k = (B_k C_j - C_k B_j) / det and v_k = (B_i C_k - C_i B_k) / det
    (t0 and s0 are t_i and t_j of the empty pattern).  The patterns of all
    pairs are grown together, one bit per level, the bits of a pair in
    decreasing order of |u_k| + |v_k|.  A partial pattern is dropped only
    when the suffix bounds on the bits still open put t_i or t_j outside
    the feasible range by more than a rounding slack, so every vertex that
    passes the feasibility test below survives to it.  That test reads t_i
    and t_j from the exact formula on the summed currents, as an unpruned
    enumeration would.

    Returns arrays (i, j, pattern, t_i, t_j, sum of A over the pattern),
    sorted by pair and then pattern, with t_i and t_j clipped to [0, 1].
    """
    N = len(A)
    m = N - 2
    scale_bc = max(np.abs(B).max(), np.abs(C).max(), 1e-300)
    pi, pj = np.triu_indices(N, 1)
    det = B[pi] * C[pj] - B[pj] * C[pi]
    # a zero det (all-zero cells) makes t_i infinite or nan, never feasible
    keep = (np.abs(det) >= 1e-14 * scale_bc * scale_bc) & (det != 0.0)
    pi, pj, det = pi[keep], pj[keep], det[keep]
    Bi, Ci, Bj, Cj = B[pi], C[pi], B[pj], C[pj]
    others = _others(pi, pj, m)
    u = (B[others] * Cj[:, None] - C[others] * Bj[:, None]) / det[:, None]
    v = (Bi[:, None] * C[others] - Ci[:, None] * B[others]) / det[:, None]
    order = np.argsort(-(np.abs(u) + np.abs(v)), axis=1, kind="stable")
    # tables with one row per level and one column per pair
    u, v, cell = (np.take_along_axis(x, order, axis=1).T for x in (u, v, others))
    bit = np.left_shift(1, order).T
    Bc, Cc, Ac = B[cell], C[cell], A[cell]

    # rounding slack: t summed from u and v, or from the exact formula, is
    # off by a few ulps of these sums of |terms|; the slack is 1e-12 of them
    sum_b, sum_c = np.abs(B).sum(), np.abs(C).sum()
    slack_i = 1e-12 * ((abs(I0) + sum_b) * np.abs(Cj)
                       + (abs(J0) + sum_c) * np.abs(Bj)) / np.abs(det)
    slack_j = 1e-12 * ((abs(J0) + sum_c) * np.abs(Bi)
                       + (abs(I0) + sum_b) * np.abs(Ci)) / np.abs(det)

    def window(x, slack):
        # a node of level d has t_final in [t - up, t - down], where up and
        # down sum the positive and negative x of the bits still open, so
        # some completion may be feasible only if lo + down <= t <= hi + up
        up = np.zeros((m + 1, len(slack)))
        down = np.zeros((m + 1, len(slack)))
        up[:m] = np.cumsum(np.maximum(x, 0.0)[::-1], axis=0)[::-1]
        down[:m] = np.cumsum(np.minimum(x, 0.0)[::-1], axis=0)[::-1]
        return -_FEAS_TOL - slack + down, 1.0 + _FEAS_TOL + slack + up

    lo_i, hi_i = window(u, slack_i)
    lo_j, hi_j = window(v, slack_j)

    # frontier: pair, pattern, partial sums of B, C and A, and t_i, t_j
    # summed from u and v
    q = np.arange(len(pi))
    nodes = (q, np.zeros(len(pi), dtype=np.int64), np.zeros(len(pi)),
             np.zeros(len(pi)), np.zeros(len(pi)),
             (I0 * Cj - J0 * Bj) / det, (Bi * J0 - Ci * I0) / det)
    for d in range(m + 1):
        q, pat, sB, sC, sA, ti, tj = nodes
        ok = ((lo_i[d][q] <= ti) & (ti <= hi_i[d][q])
              & (lo_j[d][q] <= tj) & (tj <= hi_j[d][q]))
        if not ok.all():
            q, pat, sB, sC, sA, ti, tj = nodes = tuple(x[ok] for x in nodes)
        if d == m:
            break
        # children: bit d of the pair's order off (the node as it is) or on
        on = (q, pat | bit[d][q], sB + Bc[d][q], sC + Cc[d][q],
              sA + Ac[d][q], ti - u[d][q], tj - v[d][q])
        nodes = tuple(np.concatenate(x) for x in zip(nodes, on))

    # the survivors' t_i and t_j by the exact formula, and the feasibility
    # test of an unpruned enumeration
    rI = I0 - sB
    rJ = J0 - sC
    ti = (rI * Cj[q] - rJ * Bj[q]) / det[q]
    tj = (Bi[q] * rJ - Ci[q] * rI) / det[q]
    ok = (
        (ti >= -_FEAS_TOL)
        & (ti <= 1.0 + _FEAS_TOL)
        & (tj >= -_FEAS_TOL)
        & (tj <= 1.0 + _FEAS_TOL)
    )
    srt = np.argsort(q[ok] << m | pat[ok])
    q = q[ok][srt]
    return (pi[q], pj[q], pat[ok][srt], np.clip(ti[ok][srt], 0.0, 1.0),
            np.clip(tj[ok][srt], 0.0, 1.0), sA[ok][srt])


def _solve_exhaustive(cells, A, B, C, D, I0, J0):
    N = len(A)
    m = N - 2
    i, j, pat, ti, tj, base_l = _vertices(A, B, C, I0, J0)
    lvals = base_l + ti * A[i] + tj * A[j]
    qvals = (
        base_l
        + ti * (A[i] + D[i])
        - ti * ti * D[i]
        + tj * (A[j] + D[j])
        - tj * tj * D[j]
    )
    # each pair offers its (at most 8) patterns within the tie tolerance of
    # its own minimum, pairs in order and patterns in increasing order
    first = np.diff(i * N + j, prepend=-1) != 0
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    best_q = _Best()
    best_l = _Best()
    for vals, best in ((qvals, best_q), (lvals, best_l)):
        if not len(vals):
            break
        lo = np.minimum.reduceat(vals, starts)[group]
        near = vals <= lo + _TIE_TOL * (1.0 + np.abs(lo))
        seen = np.cumsum(near)
        rank = seen - np.concatenate(([0], seen[starts[1:] - 1]))[group]
        sel = np.flatnonzero(near & (rank <= 8))
        taus = np.zeros((len(sel), N))
        rows = np.arange(len(sel))
        taus[rows[:, None], _others(i[sel], j[sel], m)] = (
            pat[sel, None] >> np.arange(m)) & 1
        taus[rows, i[sel]] = ti[sel]
        taus[rows, j[sel]] = tj[sel]
        for s, tau in zip(sel, taus):
            best.offer(float(vals[s]), tuple(tau))

    if best_q.tau is None:
        raise FeasibilityError(
            f"(I0, J0) = ({I0}, {J0}) infeasible for the cell polytope",
            boundary="cell polytope",
        )
    return DiscreteSolution(
        tau=best_q.tau,
        Q=best_q.value,
        tau_linear=best_l.tau,
        L=best_l.value,
        mode="exhaustive",
    )


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def snap_boxcar(cells: GridCells, boxcar):
    """Per-cell overlap fractions of a boxcar set (tau in [0, 1]^N)."""
    edges = np.asarray(cells.edges)
    lo = edges[:-1]
    hi = edges[1:]
    tau = np.zeros(cells.n_cells)
    for a, b in boxcar.intervals:
        tau += np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None) / (hi - lo)
    return np.clip(tau, 0.0, 1.0)


def grid_error_bound(cells: GridCells, boxcar):
    """Variance error bound for representing `boxcar` on this grid.

    Each endpoint inside the window can be displaced by at most one cell
    width (local g cost), re-balancing the two constraints costs at most as
    much again, and mass outside the window is bounded by the exact g
    tails.
    """
    res = cells.res
    lo, hi = cells.window
    w = cells.width
    ends = [e for e in boxcar.finite_endpoints() if lo <= e <= hi]
    endpoint_cost = sum(g_noise(res, e) * w for e in ends)
    tail = interval_moments(res, hi, INF)[2] + interval_moments(res, -INF, lo)[2]
    return 2.0 * endpoint_cost + tail + 1e-9


def verify(res: ReservoirPair, I, J, N=16, window=None, tol=1e-8):
    """Cross-check the continuous optimum against the discrete program.

    Returns a report dict with the continuous minimal variance, the
    discrete quadratic/linear optima, the discrete objective of the
    continuous boxcar snapped to the grid, all pairwise gaps, and a
    PASS/FAIL verdict: FAIL when the continuous optimum exceeds the
    discrete one by more than the grid-resolution bound, or falls below
    the refined-grid extrapolation 2*refined_Q - discrete_Q by the same
    bound.

    Only the upper check rests on a bound: a cell-constant transmission is
    admissible, so var_opt <= discrete_Q.  The lower check does not.  The
    2N cells are solved in LP mode, so refined_Q is the quadratic objective
    at the 2N-cell LP vertex, not the 2N-cell minimum, and the
    extrapolation is no lower bound on var_opt: the lower check is a
    consistency check, not a certificate.  A sharp lower check,
    from weak duality at the cell LP's multipliers, is ROADMAP item 6.
    """
    from .inverse import solve_multipliers

    if window is None:
        window = mass_window(res)
    sol = solve_multipliers(res, I, J, tol=tol)
    cells = discretize(res, window, N)
    disc = solve_discrete(cells, I, J)
    A, _, _, D = cells.arrays()
    tau_snap = snap_boxcar(cells, sol.boxcar)
    snapped_var = _q_of(A, D, tau_snap)
    bound = grid_error_bound(cells, sol.boxcar)

    # refined sequence for the extrapolated lower check
    N2 = 2 * N
    cells2 = discretize(res, window, N2)
    disc2 = solve_discrete(cells2, I, J)
    q_extrap = 2.0 * disc2.Q - disc.Q  # first-order in the cell width

    verdict = "PASS"
    if sol.var_opt > disc.Q + bound:
        verdict = "FAIL"
    if sol.var_opt < q_extrap - bound:
        verdict = "FAIL"

    return {
        "continuous_var": sol.var_opt,
        "discrete_Q": disc.Q,
        "discrete_L": disc.L,
        "snapped_var": snapped_var,
        "refined_Q": disc2.Q,
        "refined_N": N2,
        "extrapolated_Q": q_extrap,
        "gaps": {
            "Q_minus_continuous": disc.Q - sol.var_opt,
            "L_minus_continuous": disc.L - sol.var_opt,
            "Q_minus_L": disc.Q - disc.L,
            "snapped_minus_continuous": snapped_var - sol.var_opt,
        },
        "grid_error_bound": bound,
        "N": N,
        "window": [window[0], window[1]],
        "verdict": verdict,
    }
