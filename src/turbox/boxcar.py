"""Forward boxcar solver: multipliers -> optimal transmission support.

The optimal transmission at multipliers (lam, eta) is the indicator of
{eps : R(eps) <= 0} with R(eps) = g(eps) - (lam eps + eta) delta_f(eps).
This module locates that set by a sign scan over a cached per-reservoir
grid, bracketed root refinement, and asymptotic classification of the two
semi-infinite tails (tails are never decided by sampling at huge energies:
the sign of R at infinity follows from comparing the line lam*eps + eta
against the finite limits of g/delta_f and the tail sign of delta_f).

Also provides the integrals I, J and var over a boxcar set, each exact
(sums of physics.interval_moments), and the analytic Jacobian of (I, J) with
respect to (eta, lam) from the implicit function theorem.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NearBifurcationError, SolverError, ValidationError
from .physics import (
    ReservoirPair,
    delta_f,
    g_noise,
    g_ratio_limits,
    interval_moments,
    tail_signs,
)

__all__ = [
    "BoxcarSet",
    "Multipliers",
    "residual",
    "solve_boxcar",
    "boxcar_integrals",
    "multiplier_jacobian",
]

INF = math.inf
_XTOL = 1e-12  # endpoint tolerance, in eps, of every boxcar root


@dataclass(frozen=True)
class Multipliers:
    """Lagrange pair: lam conjugate to J, eta conjugate to I."""

    lam: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.eta)):
            raise ValidationError(
                f"multipliers must be finite, got lam={self.lam}, eta={self.eta}"
            )


@dataclass(frozen=True)
class BoxcarSet:
    """Ordered disjoint energy intervals; endpoints may be -inf/+inf."""

    intervals: tuple

    def __post_init__(self):
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivals)
        prev_b = -INF
        for k, (a, b) in enumerate(ivals):
            if math.isnan(a) or math.isnan(b):
                raise ValidationError("boxcar endpoints must not be NaN")
            if not b > a:
                raise ValidationError(f"empty or reversed interval ({a}, {b})")
            if k > 0 and not a > prev_b:
                raise ValidationError(
                    f"intervals must be strictly ordered and disjoint near ({a}, {b})"
                )
            if a == -INF and k != 0:
                raise ValidationError("only the first interval may reach -inf")
            if b == INF and k != len(ivals) - 1:
                raise ValidationError("only the last interval may reach +inf")
            prev_b = b

    @property
    def is_empty(self):
        return len(self.intervals) == 0

    @property
    def n_intervals(self):
        return len(self.intervals)

    @property
    def left_infinite(self):
        return bool(self.intervals) and self.intervals[0][0] == -INF

    @property
    def right_infinite(self):
        return bool(self.intervals) and self.intervals[-1][1] == INF

    def signature(self):
        """(interval count, left-infinite?, right-infinite?)."""
        return (self.n_intervals, self.left_infinite, self.right_infinite)

    def finite_endpoints(self):
        out = []
        for a, b in self.intervals:
            if a != -INF:
                out.append(a)
            if b != INF:
                out.append(b)
        return out

    def indicator(self, eps):
        """Evaluate the boxcar as a 0/1 transmission (closed intervals)."""
        e = np.asarray(eps, dtype=float)
        out = np.zeros_like(e)
        for a, b in self.intervals:
            out = np.where((e >= a) & (e <= b), 1.0, out)
        return float(out) if np.ndim(eps) == 0 else out

    def to_json(self):
        """JSON array of [a, b] pairs with "-inf"/"inf" sentinels."""

        def enc(x):
            if x == -INF:
                return "-inf"
            if x == INF:
                return "inf"
            return x

        return [[enc(a), enc(b)] for a, b in self.intervals]

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)

        def dec(x):
            if x == "-inf":
                return -INF
            if x == "inf":
                return INF
            return float(x)

        return cls(tuple((dec(a), dec(b)) for a, b in data))


EMPTY = BoxcarSet(())


# ---------------------------------------------------------------------------
# per-reservoir workspace
# ---------------------------------------------------------------------------

_CORE_X = 10.0  # half-width, in units of 1/beta, of the densely sampled core
_SCAN_X = 45.0  # scan window edge (integrands ~ e^-45 there)
_QUAD_X = 48.0  # truncation of semi-infinite integrals
_HORIZON_X = 700.0  # beyond this exp underflows and R loses its sign


@dataclass(frozen=True)
class _Workspace:
    res: ReservoirPair
    eps0: float  # nan when delta_beta == 0
    scan_lo: float
    scan_hi: float
    quad_lo: float
    quad_hi: float
    horizon_lo: float
    horizon_hi: float
    nodes: np.ndarray
    fields: tuple  # _fields on the nodes: (delta_f, g, delta_f', g')
    limit_lo: float  # g/delta_f limit at -inf
    limit_hi: float
    sign_lo: float  # delta_f tail signs
    sign_hi: float
    scale: float  # characteristic energy scale
    beta_max: float


def _fields(res, x):
    """(delta_f, g, d delta_f/d eps, dg/d eps) on a finite-energy array.

    One set of exponentials e = exp(-|x|) per bath serves all four:
    f(1-f) = e / (1+e)^2, f' = -beta f(1-f) and 1 - 2f = tanh(x/2) =
    sign(x) (1-e) / (1+e).  delta_f is written as

        sign(d) e^{(|d| - |x_L| - |x_R|)/2} (1 - e^{-|d|}) / ((1+e_L)(1+e_R))

    with d = x_R - x_L, which has the exact sign and full relative accuracy
    in both tails, and cannot overflow because |d| <= |x_L| + |x_R|.  The
    leading exponential is max(e_L, e_R) when x_L and x_R share a sign and
    1 otherwise, so it is taken from the same exponentials as g: where
    R = g - (lam eps + eta) delta_f cancels below rounding deep in a tail,
    both terms round alike.
    """
    xL = res.beta_L * (x - res.mu_L)
    xR = res.beta_R * (x - res.mu_R)
    aL = np.abs(xL)
    aR = np.abs(xR)
    eL = np.exp(-aL)
    eR = np.exp(-aR)
    pL = 1.0 + eL
    pR = 1.0 + eR
    flL = eL / (pL * pL)
    flR = eR / (pR * pR)
    d = xR - xL
    lead = np.where((xL < 0.0) == (xR < 0.0), np.maximum(eL, eR), 1.0)
    df = np.sign(d) * lead * -np.expm1(-np.abs(d)) / (pL * pR)
    bL = res.beta_L * flL
    bR = res.beta_R * flR
    gp = -bL * np.sign(xL) * (1.0 - eL) / pL - bR * np.sign(xR) * (1.0 - eR) / pR
    return df, flL + flR, bR - bL, gp


def _hull(res, x):
    los = (res.mu_L - x / res.beta_L, res.mu_R - x / res.beta_R)
    his = (res.mu_L + x / res.beta_L, res.mu_R + x / res.beta_R)
    return min(los), max(his)


@functools.lru_cache(maxsize=128)
def _workspace(res: ReservoirPair) -> _Workspace:
    from .physics import epsilon_zero

    beta_min = min(res.beta_L, res.beta_R)
    beta_max = max(res.beta_L, res.beta_R)
    scale = max(1.0, abs(res.mu_L), abs(res.mu_R), 1.0 / beta_min)

    scan_lo, scan_hi = _hull(res, _SCAN_X)
    quad_lo, quad_hi = _hull(res, _QUAD_X)
    horizon_lo, horizon_hi = _hull(res, _HORIZON_X)

    e0 = epsilon_zero(res)
    if e0 is not None and horizon_lo < e0 < horizon_hi:
        pad = 6.0 / beta_min
        scan_lo = min(scan_lo, e0 - pad)
        scan_hi = max(scan_hi, e0 + pad)
        quad_lo = min(quad_lo, e0 - pad)
        quad_hi = max(quad_hi, e0 + pad)

    core_lo, core_hi = _hull(res, _CORE_X)
    segs = [np.linspace(core_lo, core_hi, 1025)]
    # geometric tail nodes, denser toward the core
    t = np.geomspace(1e-3, 1.0, 257)
    segs.append(core_lo - (core_lo - scan_lo) * t)
    segs.append(core_hi + (scan_hi - core_hi) * t)
    if e0 is not None and scan_lo < e0 < scan_hi:
        segs.append(np.linspace(e0 - 6.0 / beta_max, e0 + 6.0 / beta_max, 257))
    nodes = np.unique(np.concatenate(segs))
    nodes = nodes[(nodes >= scan_lo) & (nodes <= scan_hi)]

    if res.identical:
        lim_lo = lim_hi = math.nan
    else:
        lim_lo, lim_hi = g_ratio_limits(res)
    s_lo, s_hi = tail_signs(res)

    return _Workspace(
        res=res,
        eps0=math.nan if e0 is None else e0,
        scan_lo=scan_lo,
        scan_hi=scan_hi,
        quad_lo=quad_lo,
        quad_hi=quad_hi,
        horizon_lo=horizon_lo,
        horizon_hi=horizon_hi,
        nodes=nodes,
        fields=_fields(res, nodes),
        limit_lo=lim_lo,
        limit_hi=lim_hi,
        sign_lo=s_lo,
        sign_hi=s_hi,
        scale=scale,
        beta_max=beta_max,
    )


def _df_g_scalar(res: ReservoirPair, e: float):
    """Scalar fast path for (delta_f, g); hot loop of the root refinement.

    Every exponential is exp(-|x|) of one bath, as in _fields, so none can
    overflow at any energy."""
    xL = res.beta_L * (e - res.mu_L)
    xR = res.beta_R * (e - res.mu_R)
    d = xR - xL
    eL = math.exp(-abs(xL))
    eR = math.exp(-abs(xR))
    pL = 1.0 + eL
    pR = 1.0 + eR
    if xL >= 0.0 and xR >= 0.0:
        num = eR * math.expm1(d) if abs(d) < 30.0 else eL - eR
        df = num / (pL * pR)
    elif xL < 0.0 and xR < 0.0:
        num = eL * math.expm1(d) if abs(d) < 30.0 else eR - eL
        df = num / (pL * pR)
    else:
        df = (eL if xL >= 0.0 else 1.0) / pL - (eR if xR >= 0.0 else 1.0) / pR
    g = eL / pL**2 + eR / pR**2
    return df, g


def residual(res: ReservoirPair, m: Multipliers, eps):
    """R(eps) = g(eps) - (lam eps + eta) delta_f(eps).

    Vanishes at +-inf for any finite multipliers (both factors decay
    exponentially, beating the linear growth of the line).
    """
    e = np.asarray(eps, dtype=float)
    out = np.zeros_like(e)
    fin = np.isfinite(e)
    ef = e[fin]
    out[fin] = np.asarray(g_noise(res, ef)) - (m.lam * ef + m.eta) * np.asarray(
        delta_f(res, ef)
    )
    return float(out) if np.ndim(eps) == 0 else out


def _residual_scalar(res, lam, eta, e):
    df, g = _df_g_scalar(res, e)
    return g - (lam * e + eta) * df


def _rprime_scalar(res, lam, eta, e):
    """dR/d eps at a finite energy.

    Uses f' = -beta f(1-f) and 1 - 2f = tanh(x/2) for tail stability.
    """
    xL = res.beta_L * (e - res.mu_L)
    xR = res.beta_R * (e - res.mu_R)
    eL = math.exp(-abs(xL))
    eR = math.exp(-abs(xR))
    flL = eL / (1.0 + eL) ** 2
    flR = eR / (1.0 + eR) ** 2
    dfp = -res.beta_L * flL + res.beta_R * flR
    gp = -res.beta_L * flL * math.tanh(xL / 2.0) - res.beta_R * flR * math.tanh(
        xR / 2.0
    )
    df, _ = _df_g_scalar(res, e)
    return gp - lam * df - (lam * e + eta) * dfp


def _root(f, a, b, fa, fb, xtol):
    """Root of f on the bracket [a, b], whose end values fa, fb (of opposite
    signs) the caller already holds.

    The end values come from the scan that found the bracket: brentq never
    recomputes them, so a formula that rounds to the other sign at an end
    deep in a tail cannot undo the bracket.
    """
    if a == b:
        return a
    return brentq(lambda x: fa if x == a else fb if x == b else f(x), a, b, xtol=xtol)


# ---------------------------------------------------------------------------
# solve_boxcar
# ---------------------------------------------------------------------------


def _tail_included(ws, lam, eta, side):
    """Asymptotic sign of R in one tail; True means the tail is in the box.

    sign(R) = sign(delta_f) * sign(G - lam*eps - eta) where G is the finite
    tail limit of g/delta_f.  For lam != 0 the line dominates; for lam == 0
    the comparison is eta against G.
    """
    s_df = ws.sign_hi if side > 0 else ws.sign_lo
    if s_df == 0.0:
        return False
    if lam != 0.0:
        line_sign = -math.copysign(1.0, lam) if side > 0 else math.copysign(1.0, lam)
    else:
        g_lim = ws.limit_hi if side > 0 else ws.limit_lo
        diff = g_lim - eta
        if diff == 0.0:
            return False  # exactly on the B_0 bifurcation; measure zero
        line_sign = math.copysign(1.0, diff)
    return s_df * line_sign < 0.0


def _find_tail_root(ws, lam, eta, side, edge, f_edge, xtol):
    """Bracket the root between the scan edge and infinity on one side.

    Called only when the asymptotic tail sign contradicts the sign of R at
    the window edge, i.e. a root is 'coming from infinity' (near the B_0
    bifurcation).  `edge` is the outermost scan node and `f_edge` the scan's
    R there.  The crossing of the line with the g/delta_f tail limit gives a
    sharp location hint; beyond the underflow horizon the hint itself is
    returned (the neglected measure carries ~e^-700 weight), or the horizon
    where the hint overflows.
    """
    res = ws.res
    horizon = ws.horizon_hi if side > 0 else ws.horizon_lo
    if lam != 0.0:
        g_lim = ws.limit_hi if side > 0 else ws.limit_lo
        hint = (g_lim - eta) / lam
        if not math.isfinite(hint):
            hint = horizon
    else:
        hint = None

    probes = []
    if hint is not None and (hint - edge) * side > 0:
        probes.extend([hint, hint + side * ws.scale, hint + 4 * side * ws.scale])
    step = ws.scale
    p = edge
    for _ in range(60):
        p = p + side * step
        step *= 2.0
        probes.append(p)
        if (p - horizon) * side > 0:
            break
    probes = sorted((q for q in probes if (q - edge) * side > 0), key=lambda q: side * q)

    def rfun(x):
        return _residual_scalar(res, lam, eta, x)

    prev = edge
    f_prev = f_edge
    for q in probes:
        if (q - horizon) * side > 0:
            q = horizon
        df_q, g_q = _df_g_scalar(res, q)
        if df_q == 0.0 and g_q == 0.0:
            break  # underflow: no sign information this deep in the tail
        f_q = g_q - (lam * q + eta) * df_q
        if f_q == 0.0 or f_q * f_prev < 0.0:
            if prev < q:
                return _root(rfun, prev, q, f_prev, f_q, xtol)
            return _root(rfun, q, prev, f_q, f_prev, xtol)
        prev, f_prev = q, f_q
        if q == horizon:
            break
    # sign never flipped before underflow killed R; the line/limit crossing
    # is then an exponentially accurate estimate of the root location, and
    # everything beyond `prev` carries no representable measure anyway
    if hint is not None and (hint - edge) * side > 0:
        return hint
    return prev


def _residuals(lam, eta, x, fields):
    """(R, R') on the energies x from their fields (delta_f, g, delta_f', g')."""
    df, g, dfp, gp = fields
    line = lam * x + eta
    return g - line * df, gp - lam * df - line * dfp


_Z0_K = np.arange(65.0)  # nodes around the zero of the line
_ZC_K = np.arange(33.0)  # nodes around each crossing of a tail limit


def _span(c, w, k):
    """np.linspace(c - w, c + w, k.size), bit for bit, without its overhead."""
    lo, hi = c - w, c + w
    x = lo + k * ((hi - lo) / (k.size - 1))
    x[-1] = hi
    return x


def _splice(nodes, ex, arrays, ex_arrays):
    """Merge the sorted extra nodes `ex` into the sorted grid `nodes`, and
    the values on each into the matching array."""
    n = nodes.size + ex.size
    at = np.searchsorted(nodes, ex) + np.arange(ex.size)
    rest = np.ones(n, dtype=bool)
    rest[at] = False
    out = []
    for grid_vals, ex_vals in zip((nodes, *arrays), (ex, *ex_arrays)):
        merged = np.empty(n)
        merged[rest] = grid_vals
        merged[at] = ex_vals
        out.append(merged)
    return out


def _hermite_extremum(x0, x1, r0, r1, m0, m1):
    """Extremum of the cubic Hermite interpolant p of (r, r') on [x0, x1].

    r' changes sign across the gap, so the quadratic p' has exactly one
    root t in (0, 1), in units of the gap.  Returns (x, p(x), w), where
    w = 16 t^2 (1-t)^2 is the shape of the Hermite error at t relative to
    its largest value, at the midpoint; None if rounding put t outside.
    """
    h = x1 - x0
    d0 = h * m0
    d1 = h * m1
    dr = r0 - r1
    # p'(t) = A t^2 + B t + C, with p'(0) = d0 and p'(1) = d1
    A = 6.0 * dr + 3.0 * (d0 + d1)
    B = -6.0 * dr - 4.0 * d0 - 2.0 * d1
    q = -0.5 * (B + math.copysign(math.sqrt(max(B * B - 4.0 * A * d0, 0.0)), B))
    t = d0 / q if q != 0.0 else math.nan
    if not 0.0 <= t <= 1.0 and A != 0.0:
        t = q / A
    if not 0.0 <= t <= 1.0:
        return None
    s = t * t
    u = s * t
    p = (r0 * (2.0 * u - 3.0 * s + 1.0) + d0 * (u - 2.0 * s + t)
         + r1 * (3.0 * s - 2.0 * u) + d1 * (u - s))
    return x0 + t * h, p, 16.0 * s * (1.0 - t) ** 2


def solve_boxcar(res: ReservoirPair, m: Multipliers) -> BoxcarSet:
    """Closure of {eps : g(eps) < (lam eps + eta) delta_f(eps)} as a BoxcarSet.

    Sign-scans R on a cached grid (refined near eps0 and near the zero of the
    line), brackets every sign change, refines each root to _XTOL in eps,
    and classifies the two tails asymptotically.  Touching intervals are
    merged; the empty set is a valid result.
    """
    if res.identical:
        return EMPTY
    ws = _workspace(res)
    lam, eta = m.lam, m.eta

    nodes = ws.nodes
    r, rp = _residuals(lam, eta, nodes, ws.fields)
    extras = []
    if lam != 0.0:
        z0 = -eta / lam
        if ws.scan_lo < z0 < ws.scan_hi:
            extras.append(_span(z0, 4.0 / ws.beta_max, _Z0_K))
        for g_lim in (ws.limit_lo, ws.limit_hi):
            zc = (g_lim - eta) / lam
            if ws.scan_lo < zc < ws.scan_hi:
                extras.append(_span(zc, 2.0 / ws.beta_max, _ZC_K))
    if extras:
        ex = np.sort(np.concatenate(extras)) if len(extras) > 1 else extras[0]
        ex = ex[(ex > ws.scan_lo) & (ex < ws.scan_hi)]
        ex_r, ex_rp = _residuals(lam, eta, ex, _fields(res, ex))
        nodes, r, rp = _splice(nodes, ex, (r, rp), (ex_r, ex_rp))

    def rfun(x):
        return _residual_scalar(res, lam, eta, x)

    def rprime(x):
        return _rprime_scalar(res, lam, eta, x)

    def roots_from_scan(nodes, r, rp):
        neg = r < 0.0  # exact node zeros count as outside
        same = neg[:-1] == neg[1:]
        idx = np.flatnonzero(~same)
        roots = [_root(rfun, nodes[i], nodes[i + 1], r[i], r[i + 1], _XTOL) for i in idx]

        # tangency guard: a dip of R toward zero may fit between two nodes
        # of equal sign; it is betrayed by R' changing sign across the gap
        # and pointing toward zero at the left node
        dip = np.flatnonzero(
            same & (rp[:-1] * rp[1:] < 0.0) & ((rp[:-1] < 0.0) != neg[:-1])
        )
        for i in dip:
            x0, x1 = float(nodes[i]), float(nodes[i + 1])
            r0, r1 = float(r[i]), float(r[i + 1])
            rp0, rp1 = float(rp[i]), float(rp[i + 1])
            # the cubic Hermite interpolant through the scan values locates
            # the dip, and one exact R there decides it, unless R keeps its
            # sign by less than the interpolation error allows for (that
            # error is estimated from the same point, scaled to its worst)
            ext = _hermite_extremum(x0, x1, r0, r1, rp0, rp1)
            if ext is not None:
                x_ext, p_ext, w = ext
                r_ext = rfun(x_ext)
            if ext is None or (
                (r_ext < 0.0) == (r0 < 0.0)
                and abs(r_ext) * w <= 4.0 * abs(r_ext - p_ext)
            ):
                # exact extremum search; the dip is quadratic around it, so
                # a small fraction of the gap decides the sign reliably
                x_ext = _root(rprime, x0, x1, rp0, rp1, max(1e-3 * (x1 - x0), 1e-14))
                r_ext = rfun(x_ext)
            if r_ext == 0.0 or (r_ext < 0.0) == (r0 < 0.0):
                continue
            roots.append(_root(rfun, x0, x_ext, r0, r_ext, _XTOL))
            roots.append(_root(rfun, x_ext, x1, r_ext, r1, _XTOL))
        roots.sort()
        return roots

    left_in = _tail_included(ws, lam, eta, -1)
    right_in = _tail_included(ws, lam, eta, +1)

    def with_tail_roots(nodes, r, rp):
        roots = roots_from_scan(nodes, r, rp)
        # roots hiding between the scan edge and infinity (B_0 neighbourhood)
        if left_in != (r[0] < 0.0):
            roots.insert(0, _find_tail_root(ws, lam, eta, -1, nodes[0], r[0], _XTOL))
        if right_in != (r[-1] < 0.0):
            roots.append(_find_tail_root(ws, lam, eta, +1, nodes[-1], r[-1], _XTOL))
        return roots

    roots = with_tail_roots(nodes, r, rp)

    def parity_bad(roots):
        return left_in != (right_in ^ (len(roots) % 2 == 1))

    # parity: each simple root flips inclusion, so the two tails must agree
    if parity_bad(roots):
        nodes2 = np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
        roots = with_tail_roots(
            nodes2, *_residuals(lam, eta, nodes2, _fields(res, nodes2))
        )
        if parity_bad(roots):
            # a root sitting exactly on a node gets bracketed from both
            # sides; collapsing one member of a machine-width pair restores
            # the alternation
            deduped = []
            for rt in roots:
                if deduped and rt - deduped[-1] <= 64.0 * _XTOL * (1.0 + abs(rt)):
                    continue  # keep a single root of the machine-width pair
                deduped.append(rt)
            if not parity_bad(deduped):
                roots = deduped
        if parity_bad(roots):
            raise SolverError(
                "scan parity inconsistent with tail classification "
                "(suspected missed root near a tangency)",
                diagnostics={
                    "lam": lam,
                    "eta": eta,
                    "roots": roots,
                    "left_in": left_in,
                    "right_in": right_in,
                },
            )

    # assemble alternating pieces
    bounds = [-INF] + roots + [INF]
    pieces = []
    inside = left_in
    for a, b in zip(bounds[:-1], bounds[1:]):
        if inside:
            pieces.append([a, b])
        inside = not inside

    # merge across zero-width gaps, drop zero-width intervals
    def tol_at(e):
        return 16.0 * _XTOL * (1.0 + abs(e))

    merged = []
    for a, b in pieces:
        if merged and math.isfinite(a) and a - merged[-1][1] <= tol_at(a):
            merged[-1][1] = b
        else:
            merged.append([a, b])
    final = [
        (a, b)
        for a, b in merged
        if not (math.isfinite(a) and math.isfinite(b) and b - a <= tol_at(a))
    ]
    return BoxcarSet(tuple(final))


# ---------------------------------------------------------------------------
# integrals and Jacobian
# ---------------------------------------------------------------------------


def boxcar_integrals(res: ReservoirPair, B: BoxcarSet):
    """(I, J, var) over a boxcar set: the integrals of delta_f, eps*delta_f
    and g, each exact and finite on semi-infinite intervals, summed from
    physics.interval_moments (T^2 = T on a boxcar, so the integral of g is
    the variance)."""
    I = J = V = 0.0
    for a, b in B.intervals:
        i, j, v = interval_moments(res, a, b)
        I += i
        J += j
        V += v
    return I, J, V


def multiplier_jacobian(
    res: ReservoirPair, m: Multipliers, B: BoxcarSet, derivative_floor=1e-8
):
    """2x2 matrix d(I, J)/d(eta, lam) for the boxcar at multipliers m.

    Implicit-function-theorem endpoint weights: xi_k = delta_f(a_k)^2 /
    R'(a_k) at left endpoints, theta_k = delta_f(b_k)^2 / R'(b_k) at right
    endpoints; infinite endpoints, and finite ones where delta_f underflows
    to zero, contribute zero.  Requires every other finite endpoint root to
    be simple: |R'| below the floor raises NearBifurcationError (the caller
    should perturb the multipliers).
    """
    dI_deta = 0.0
    dI_dlam = 0.0
    dJ_dlam = 0.0
    floor = derivative_floor * max(1.0, abs(m.lam))
    for a, b in B.intervals:
        for e, is_left in ((a, True), (b, False)):
            if not math.isfinite(e):
                continue
            df, _ = _df_g_scalar(res, e)
            if df == 0.0:
                continue  # a root where delta_f underflows carries no weight
            rp = _rprime_scalar(res, m.lam, m.eta, e)
            if abs(rp) < floor:
                raise NearBifurcationError(
                    f"|R'({e})| = {abs(rp):.3e} below floor {floor:.3e}; "
                    "multipliers are too close to a bifurcation"
                )
            w = df * df / rp
            if is_left:
                dI_deta -= w
                dI_dlam -= w * e
                dJ_dlam -= w * e * e
            else:
                dI_deta += w
                dI_dlam += w * e
                dJ_dlam += w * e * e
    return np.array([[dI_deta, dI_dlam], [dI_dlam, dJ_dlam]])
