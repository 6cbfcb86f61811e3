"""Shared fixtures and random-object generators for the test suite."""

import math

import numpy as np
import pytest

from turbox import (
    BoxcarSet,
    ReservoirPair,
    TabulatedTransmission,
    current_bounds,
    j_extrema,
)

# the three temperature sets used throughout the classification examples
TOPOLOGY_SETS = [
    (2.0, 1.0, 0.0, 0.0),
    (1.0, 1.0, -1.0, 1.0),
    (1.0, 0.2, 0.1, 0.6),
]


@pytest.fixture
def fig2_res():
    """The (T_L, T_R, mu_L, mu_R) = (1, 0.2, -1, 0.5) reservoir pair."""
    return ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_reservoir(rng, equal_beta_prob=0.0):
    if rng.random() < equal_beta_prob:
        beta = rng.uniform(0.3, 4.0)
        beta_pair = (beta, beta)
    else:
        beta_pair = (rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
    mu_L, mu_R = rng.uniform(-2.0, 2.0, size=2)
    return ReservoirPair(beta_pair[0], beta_pair[1], mu_L, mu_R)


def random_tabulated(rng, res, n_knots=24):
    """Random piecewise-linear transmission over the active window."""
    lo = min(res.mu_L - 8.0 / res.beta_L, res.mu_R - 8.0 / res.beta_R)
    hi = max(res.mu_L + 8.0 / res.beta_L, res.mu_R + 8.0 / res.beta_R)
    e = np.sort(rng.uniform(lo, hi, size=n_knots))
    e += np.arange(n_knots) * 1e-9  # enforce strict monotonicity
    v = rng.uniform(0.0, 1.0, size=n_knots)
    return TabulatedTransmission(e, v)


def random_boxcar(rng, res, max_intervals=3, inf_prob=0.25):
    """Random ordered disjoint intervals within (or reaching out of) the
    active window."""
    lo = min(res.mu_L - 10.0 / res.beta_L, res.mu_R - 10.0 / res.beta_R)
    hi = max(res.mu_L + 10.0 / res.beta_L, res.mu_R + 10.0 / res.beta_R)
    n = int(rng.integers(1, max_intervals + 1))
    pts = np.sort(rng.uniform(lo, hi, size=2 * n))
    while np.any(np.diff(pts) < 1e-6):
        pts = np.sort(rng.uniform(lo, hi, size=2 * n))
    intervals = [[pts[2 * k], pts[2 * k + 1]] for k in range(n)]
    if rng.random() < inf_prob:
        intervals[0][0] = -math.inf
    if rng.random() < inf_prob:
        intervals[-1][1] = math.inf
    return BoxcarSet(tuple(tuple(iv) for iv in intervals))


def random_interior_target(rng, res, margin=0.05):
    """A target (I, J) safely inside the feasible region."""
    cb = current_bounds(res)
    span = cb.I_max - cb.I_min
    I = rng.uniform(cb.I_min + margin * span, cb.I_max - margin * span)
    ex = j_extrema(res, float(I))
    width = ex.J_max - ex.J_min
    J = rng.uniform(ex.J_min + margin * width, ex.J_max - margin * width)
    return float(I), float(J)


def target_atols(res, I, J, tol=1e-8):
    """The absolute tolerances (atol_I, atol_J) that solve_multipliers
    derives from the relative tolerance `tol` at the target (I, J)."""
    cb = current_bounds(res)
    ex = j_extrema(res, I)
    return (
        tol * max(abs(I), 1e-2 * (cb.I_max - cb.I_min)),
        tol * max(abs(J), 1e-2 * (ex.J_max - ex.J_min)),
    )
