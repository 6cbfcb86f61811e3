"""Adaptive Gauss-Kronrod panel quadrature for exponentially decaying integrands.

A single 15-point Kronrod rule with its embedded 7-point Gauss rule is
applied per panel; the worst panel (largest |K15 - G7|) is split until the
summed error estimate meets tolerance.  Integrands are numpy-vectorized
callables, so each panel costs one array evaluation.

Infinite bounds never reach this module: callers truncate at a reservoir
"horizon" where the integrand has decayed below representability and add an
analytic exponential tail bound to the error estimate (`tail_moment_bound`).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["gk15", "adaptive_panels", "tail_moment_bound"]

# Kronrod-15 abscissae on [-1, 1] (symmetric; only the non-negative half).
_XK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
# Gauss-7 weights for the even-index Kronrod abscissae (1, 3, 5, 7).
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full symmetric node/weight tables.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros_like(_WEIGHTS_K)
for _i, _w in zip((1, 3, 5, 7), _WG):
    _WEIGHTS_G[_i] = _w
    _WEIGHTS_G[14 - _i] = _w
del _i, _w


def gk15(f, a, b):
    """One Kronrod-15 panel over [a, b]: returns (K15 value, |K15 - G7|)."""
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _NODES
    y = np.asarray(f(x), dtype=float)
    k = h * float(np.dot(_WEIGHTS_K, y))
    g = h * float(np.dot(_WEIGHTS_G, y))
    return k, abs(k - g)


def gk15_per_panel(f, lo, hi):
    """Kronrod-15 on the panels [lo_k, hi_k] with a single integrand
    evaluation: the per-panel K15 values and their |K15 - G7| estimates."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    c = 0.5 * (hi + lo)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k = h * (y @ _WEIGHTS_K)
    g = h * (y @ _WEIGHTS_G)
    return k, np.abs(k - g)


def adaptive_panels(
    f,
    a,
    b,
    abstol=1e-10,
    reltol=1e-8,
    breakpoints=(),
    max_panels=1024,
):
    """Integrate a vectorized callable over the finite interval [a, b].

    `breakpoints` are interior points (discontinuities of the integrand)
    used to seed the initial panelization.  Returns (value, error_estimate);
    raises ConvergenceError (carrying the estimate) if the panel budget is
    exhausted before the estimate meets max(abstol, reltol * |value|).
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        v, e = adaptive_panels(f, b, a, abstol, reltol, breakpoints, max_panels)
        return -v, e

    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    heap = []
    count = 0
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = gk15(f, lo, hi)
        total += v
        # heap orders by -error; counter breaks ties deterministically
        heapq.heappush(heap, (-e, count, lo, hi, v))
        count += 1

    # running error total; on apparent convergence it is re-summed exactly,
    # so rounding drift can cost one extra split but never an early stop
    err = -sum(item[0] for item in heap)
    while True:
        if err <= max(abstol, reltol * abs(total)):
            err = -sum(item[0] for item in heap)
            if err <= max(abstol, reltol * abs(total)):
                return total, err
        if count >= max_panels:
            raise ConvergenceError(
                f"quadrature did not converge: error estimate {err:.3e} "
                f"after {count} panels on [{a}, {b}]",
                estimate=err,
            )
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        err += neg_e
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # panel at floating-point resolution; keep its estimate and stop
            # splitting it
            heapq.heappush(heap, (0.0, count, lo, hi, v))
            count += 1
            continue
        v1, e1 = gk15(f, lo, mid)
        v2, e2 = gk15(f, mid, hi)
        total += v1 + v2 - v
        err += e1 + e2
        heapq.heappush(heap, (-e1, count, lo, mid, v1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, hi, v2))
        count += 1


def tail_moment_bound(beta, mu, w, moment, side):
    """Bound on integral of |eps|^moment * e^{-beta|eps - mu|} over a tail.

    side=+1 bounds [w, inf) assuming beta (w - mu) >= 0; side=-1 bounds
    (-inf, w] assuming beta (mu - w) >= 0.  Used to account for the part of
    an integrand beyond the truncation window.
    """
    d = side * (w - mu)
    if d < 0:
        raise ValueError("window edge is on the wrong side of mu")
    aw = abs(w)
    # integral of (aw + t)^m e^{-beta t} dt over t >= 0, expanded for m <= 2
    if moment == 0:
        poly = 1.0 / beta
    elif moment == 1:
        poly = aw / beta + 1.0 / beta**2
    elif moment == 2:
        poly = aw**2 / beta + 2.0 * aw / beta**2 + 2.0 / beta**3
    else:
        raise ValueError(f"unsupported moment {moment}")
    return math.exp(-beta * d) * poly
