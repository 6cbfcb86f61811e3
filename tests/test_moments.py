"""Exact boxcar moments against 40-digit quadrature.

I, J, var, theta1, theta2 and the oracle's A/B/C cells are differences of
closed-form antiderivatives (physics.fermi_tail_antiderivs).  Each is
compared with mpmath's tanh-sinh quadrature at 40 digits, split at both
chemical potentials and at geometric offsets around them so that every
Fermi edge sits at a panel boundary.
"""

import math

import numpy as np
import pytest

from turbox import (
    BoxcarSet,
    ConvergenceError,
    ReservoirPair,
    boxcar_integrals,
    solve_multipliers,
)
from turbox.analysis import LinearResponseFrame, theta_moments
from turbox.oracle import discretize
from turbox.physics import interval_moments
from conftest import target_atols

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

INF = math.inf


def _fermi(beta, mu, e):
    return 1 / (mp.exp(beta * (e - mu)) + 1)


def _quad(func, a, b, baths):
    """40-digit integral of func over [a, b], split at every mu and at
    mu +- 4^k / beta."""
    cuts = set()
    for beta, mu in baths:
        cuts.add(mu)
        for k in range(5):
            cuts.update((mu - 4.0**k / beta, mu + 4.0**k / beta))
    pts = [mp.mpf(a) if a > -INF else -mp.inf]
    pts += [mp.mpf(c) for c in sorted(cuts) if a < c < b]
    pts.append(mp.mpf(b) if b < INF else mp.inf)
    return mp.quad(func, pts)


def _current(res, a, b):
    """I over [a, b] at 40 digits."""
    baths = ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R))
    return _quad(lambda e: _fermi(*baths[0], e) - _fermi(*baths[1], e), a, b, baths)


def _reference(res, a, b):
    """(J, var) over [a, b] at 40 digits."""
    baths = ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R))

    def j(e):
        return e * (_fermi(res.beta_L, res.mu_L, e) - _fermi(res.beta_R, res.mu_R, e))

    def g(e):
        return sum(_fermi(bt, m, e) * (1 - _fermi(bt, m, e)) for bt, m in baths)

    return _quad(j, a, b, baths), _quad(g, a, b, baths)


def _scale(res):
    return max(1.0, abs(res.mu_L), abs(res.mu_R), 1.0 / min(res.beta_L, res.beta_R))


def _random_pair(rng, k):
    beta_L = 10.0 ** rng.uniform(-0.5, 0.5)
    if k % 3 == 0:
        beta_R = beta_L  # equal beta
    else:
        beta_R = beta_L * 300.0 ** rng.uniform(-1.0, 1.0)  # ratios up to 300
    return ReservoirPair(beta_L, beta_R, *rng.uniform(-2.0, 2.0, size=2))


def _random_interval(rng, res, k):
    """Ends out to |x| = 700 of the slower bath; every third one
    semi-infinite."""
    beta, mu = min((res.beta_L, res.mu_L), (res.beta_R, res.mu_R))
    x = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-1.0, math.log10(700.0), 2)
    a, b = np.sort(mu + x / beta)
    if k % 3 == 1:
        a = -INF
    elif k % 3 == 2:
        b = INF
    return float(a), float(b)


def test_moments_match_mpmath():
    rng = np.random.default_rng(7)
    for k in range(12):
        res = _random_pair(rng, k)
        a, b = _random_interval(rng, res, k)
        B = BoxcarSet(((a, b),))
        J_ref, V_ref = _reference(res, a, b)
        tol = 1e-14 * _scale(res) ** 2
        _, J, V = boxcar_integrals(res, B)
        assert abs(J - J_ref) <= tol, (res, a, b)
        assert abs(V - V_ref) <= tol, (res, a, b)


def _far_interval(rng, res, k):
    """One end in the core, the other 1e2 to 1e154 out, on either side."""
    beta, mu = min((res.beta_L, res.mu_L), (res.beta_R, res.mu_R))
    near = mu + rng.uniform(-5.0, 5.0) / beta
    far = 10.0 ** rng.uniform(2.0, 154.0)
    return (-far, near) if k % 2 else (near, far)


def test_current_matches_mpmath():
    # relative accuracy everywhere: forming beta (eps - mu) for each bath
    # and subtracting would lose mu_R - mu_L to rounding at far ends
    rng = np.random.default_rng(5)
    for k in range(36):
        res = _random_pair(rng, k)
        a, b = (_random_interval if k < 24 else _far_interval)(rng, res, k)
        ref = float(_current(res, a, b))
        got = interval_moments(res, a, b)[0]
        assert abs(got - ref) <= 1e-13 * abs(ref), (res, a, b, got, ref)


def test_far_left_current_keeps_relative_accuracy(fig2_res):
    # delta_f ~ 1e-13 here; the endpoints are 30 to 40 from both mu
    got = boxcar_integrals(fig2_res, BoxcarSet(((-40.0, -30.0),)))[0]
    ref = float(_current(fig2_res, -40.0, -30.0))
    assert ref == pytest.approx(-2.54355e-13, rel=1e-5)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_current_with_tails_past_1e99(fig2_res):
    # tails (-inf, -6.2e99] and [1.38e100, inf) carry no measure
    mid = (-0.418487237814632, -0.08894118259170616)
    B = BoxcarSet(((-INF, -6.2e99), mid, (1.38e100, INF)))
    ref = float(_current(fig2_res, *mid))
    assert ref == pytest.approx(-0.21520, abs=1e-5)
    assert boxcar_integrals(fig2_res, B)[0] == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_small_symmetric_target_is_right_or_raises():
    # at lam = 0 on this equal-beta pair I(eta) jumps within an ulp of eta;
    # a returned solution must carry its target current in 40-digit
    # arithmetic, not only in the solver's own
    res = ReservoirPair(1.0, 1.0, -0.025, 0.025)
    I_t = -2.9788994023613712e-05
    atol_I, _ = target_atols(res, I_t, 0.0)
    try:
        sol = solve_multipliers(res, I_t, 0.0)
    except ConvergenceError:
        return
    ref = sum(_current(res, a, b) for a, b in sol.boxcar.intervals)
    assert abs(float(ref) - I_t) <= atol_I, (sol, float(ref))


def _tail_cases(rng):
    """Intervals wholly in one tail of both baths, where neither eps nor
    delta_f changes sign: the two named by the unequal pair below, and
    random ones 5 to 600 thermal lengths out, for unequal-beta pairs and
    for equal-beta pairs whose biases are not tiny."""
    res = ReservoirPair(2.0, 5.0, -0.3, 0.4)
    yield res, 10.0, 12.0
    yield res, -25.0, -20.0
    for k in range(16):
        while True:
            res = _random_pair(rng, k)
            if res.beta_L != res.beta_R or abs(res.beta_L * res.delta_mu) > 0.5:
                break
        side = 1.0 if k % 2 == 0 else -1.0
        edge = max(
            side * (mu + side * 5.0 / beta) for beta, mu in
            ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R))
        )
        e0 = res.delta_beta_mu / res.delta_beta if res.delta_beta else None
        if e0 is not None:
            edge = max(edge, side * e0 + 5.0 / min(res.beta_L, res.beta_R))
        edge = max(edge, 0.5)  # keep eps = 0 outside
        width = 10.0 ** rng.uniform(-1.0, 1.5) / min(res.beta_L, res.beta_R)
        near = edge + rng.uniform(0.0, 100.0) / max(res.beta_L, res.beta_R)
        a, b = sorted((side * near, side * (near + width)))
        yield res, float(a), float(b)


def test_tail_moments_relative_accuracy():
    rng = np.random.default_rng(11)
    for res, a, b in _tail_cases(rng):
        B = BoxcarSet(((a, b),))
        J_ref, V_ref = _reference(res, a, b)
        _, J, V = boxcar_integrals(res, B)
        assert abs(J - J_ref) <= 1e-12 * abs(J_ref), (res, a, b)
        assert abs(V - V_ref) <= 1e-12 * abs(V_ref), (res, a, b)


def test_theta_moments_match_mpmath():
    rng = np.random.default_rng(13)
    for k in range(16):
        beta = 10.0 ** rng.uniform(-1.0, 1.5)
        mu = rng.uniform(-2.0, 2.0)
        frame = LinearResponseFrame(beta=beta, mu=mu, d_beta=0.0, d_beta_mu=0.0)
        res = ReservoirPair(beta, beta, mu, mu)
        a, b = _random_interval(rng, res, k)
        got = theta_moments(frame, BoxcarSet(((a, b),)))

        def w(e):
            f = _fermi(beta, mu, e)
            return f * (1 - f)

        s = max(1.0, abs(mu), 1.0 / beta)
        for n in (1, 2):
            ref = _quad(lambda e: e**n * w(e), a, b, ((beta, mu),))
            assert abs(got[n] - ref) <= 1e-14 * s ** (n + 1), (beta, mu, a, b, n)


def test_oracle_cells_match_mpmath():
    rng = np.random.default_rng(17)
    for k in range(3):
        res = _random_pair(rng, k)
        s = _scale(res)
        lo = min(res.mu_L, res.mu_R) - 30.0 / min(res.beta_L, res.beta_R)
        hi = max(res.mu_L, res.mu_R) + 30.0 / min(res.beta_L, res.beta_R)
        cells = discretize(res, (lo, hi), 12)
        edges = cells.edges
        for i in range(cells.n_cells):
            J_ref, V_ref = _reference(res, edges[i], edges[i + 1])
            assert abs(cells.C[i] - J_ref) <= 1e-14 * s**2, (res, i)
            I_ref = _current(res, edges[i], edges[i + 1])
            assert abs(cells.B[i] - I_ref) <= 1e-14 * s, (res, i)
            assert abs(cells.A[i] - V_ref) <= 1e-14 * s**2, (res, i)

