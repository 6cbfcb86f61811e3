"""Adaptive Gauss-Kronrod panel quadrature for exponentially decaying integrands.

A single 15-point Kronrod rule with its embedded 7-point Gauss rule is
applied per panel.  Several integrands share the panels: level by level,
every panel whose |K15 - G7| exceeds its width's share of some integrand's
tolerance is halved, until each summed error estimate meets its own
tolerance.  Integrands are numpy-vectorized callables, so each level costs
one array evaluation for all of its panels.

Infinite bounds never reach this module: callers truncate at a reservoir
"horizon" where the integrand has decayed below representability and add an
analytic exponential tail bound to the error estimate (`tail_moment_bound`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["gk15_per_panel", "adaptive_panels", "tail_moment_bound"]

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


def gk15_per_panel(f, lo, hi):
    """Kronrod-15 on the panels [lo_k, hi_k] with a single integrand
    evaluation: the per-panel K15 values and their |K15 - G7| estimates.

    `f` maps the flat array of nodes to one value per node, shape (n,), or
    to m values per node, shape (m, n); the results then have shape (k,)
    or (m, k) for k panels."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    c = 0.5 * (hi + lo)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float)
    y = y.reshape(y.shape[:-1] + x.shape)
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
    """Integrate m integrands at once over the finite interval [a, b], a < b.

    `f` maps an energy array of shape (n,) to an (m, n) array.
    `breakpoints` are interior points (discontinuities of the integrands)
    used to seed the initial panelization.  Returns (values, errors), each
    of shape (m,).  Integrand i converges when its summed estimate meets
    tol_i = max(abstol, reltol * |value_i|); until all do, every panel
    whose estimate for some integrand exceeds its width's share of that
    tol_i is halved, all halves in one gk15_per_panel call.  Raises
    ConvergenceError, carrying the errors, if that would take more than
    `max_panels` panel evaluations.
    """
    edges = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b],
                     dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = gk15_per_panel(f, lo, hi)
    count = lo.size
    while True:
        total = val.sum(axis=1)
        err_sum = err.sum(axis=1)
        tol = np.maximum(abstol, reltol * np.abs(total))
        failing = err_sum > tol
        if not failing.any():
            return total, err_sum
        split = np.any(err * (b - a) > tol[:, None] * (hi - lo), axis=0)
        if not split.any():
            # the shares hold but their rounded sum does not: take the worst
            split[np.argmax(err[failing].max(axis=0))] = True
        mid = 0.5 * (lo + hi)
        stuck = split & ((mid <= lo) | (mid >= hi))
        # panels at floating-point resolution cannot be split: keep their
        # values and drop their estimates
        err[:, stuck] = 0.0
        split &= ~stuck
        n = int(np.count_nonzero(split))
        if count + 2 * n > max_panels:
            raise ConvergenceError(
                f"quadrature did not converge: error estimate {err_sum.max():.3e} "
                f"after {count} panels on [{a}, {b}]",
                estimate=err_sum,
            )
        if n == 0:
            continue
        keep = ~split
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        v, e = gk15_per_panel(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[:, keep], v), axis=1)
        err = np.concatenate((err[:, keep], e), axis=1)
        count += 2 * n


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
