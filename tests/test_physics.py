"""Pointwise field tests: Fermi functions, delta_f, g, eps0, g/delta_f."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from turbox import (
    ReservoirPair,
    SingularityError,
    ValidationError,
    delta_f,
    epsilon_zero,
    fermi,
    g_noise,
    g_ratio,
    g_ratio_limits,
)
from turbox.physics import interval_moments
from conftest import random_reservoir


def test_fermi_examples():
    assert fermi(1.0, 0.0, 0.0) == 0.5
    assert fermi(1.0, 0.0, math.inf) == 0.0
    assert fermi(1.0, 0.0, -math.inf) == 1.0
    assert fermi(1.0, 0.0, math.log(3.0)) == pytest.approx(0.25, abs=1e-15)


def test_fermi_bounded_and_decreasing(rng):
    for _ in range(20):
        beta = rng.uniform(0.1, 10.0)
        mu = rng.uniform(-3.0, 3.0)
        e = np.linspace(mu - 50.0 / beta, mu + 50.0 / beta, 801)
        f = fermi(beta, mu, e)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) <= 0.0)


def test_fermi_overflow_safe():
    # |beta (eps - mu)| ~ 700 must not overflow or warn
    with np.errstate(over="raise"):
        assert fermi(1.0, 0.0, 700.0) == pytest.approx(0.0, abs=1e-300)
        assert fermi(1.0, 0.0, -700.0) == 1.0
        assert fermi(70.0, 0.0, 10.0) >= 0.0


def test_fermi_rejects_bad_beta():
    with pytest.raises(ValidationError):
        fermi(0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        fermi(-1.0, 0.0, 1.0)


def test_reservoir_validation():
    with pytest.raises(ValidationError):
        ReservoirPair(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        ReservoirPair.from_temperatures(0.0, 1.0, 0.0, 0.0)
    res = ReservoirPair.from_temperatures(2.0, 0.5, -1.0, 1.0)
    assert res.beta_L == 0.5 and res.beta_R == 2.0
    assert res.delta_beta + res.beta_R == res.beta_L


def test_delta_f_identical_reservoirs(rng):
    res = ReservoirPair(1.3, 1.3, 0.7, 0.7)
    for e in rng.uniform(-20, 20, size=10):
        assert delta_f(res, float(e)) == 0.0


def test_delta_f_closed_form():
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    # f(1,-1,0) - f(1,1,0) = (1-e)/(1+e) = -tanh(1/2)
    assert delta_f(res, 0.0) == pytest.approx(-math.tanh(0.5), abs=1e-15)


def test_delta_f_vanishes_at_eps0(fig2_res):
    e0 = epsilon_zero(fig2_res)
    assert e0 == pytest.approx(0.875, abs=1e-15)
    assert delta_f(fig2_res, e0) == 0.0


def test_delta_f_single_sign_change(fig2_res, rng):
    for res in [fig2_res] + [random_reservoir(rng) for _ in range(10)]:
        if res.delta_beta == 0.0:
            continue
        e0 = epsilon_zero(res)
        grid = np.linspace(e0 - 20.0, e0 + 20.0, 4001)
        s = np.sign(delta_f(res, grid))
        nz = np.nonzero(s != 0.0)[0]  # deep-tail underflow has no sign
        s_nz = s[nz]
        changes = np.nonzero(s_nz[:-1] * s_nz[1:] < 0)[0]
        assert len(changes) == 1
        crossing = 0.5 * (grid[nz[changes[0]]] + grid[nz[changes[0] + 1]])
        assert abs(crossing - e0) <= grid[1] - grid[0]


def test_delta_f_deep_tail_relative_accuracy():
    # naive f_L - f_R dies at |x| ~ 37; the stable form must agree with the
    # asymptotic leading exponentials at x = 40
    res = ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5)
    e = 39.0  # beta_L (e - mu_L) = 40
    expected = math.exp(-(e - res.mu_L) * res.beta_L)  # dominant tail term
    assert delta_f(res, e) == pytest.approx(expected, rel=1e-10)
    e = -41.0  # beta_L (e - mu_L) = -40
    expected = -math.exp((e - res.mu_L) * res.beta_L)
    assert delta_f(res, e) == pytest.approx(expected, rel=1e-10)


def test_g_identity_random(rng):
    # g == f_L + f_R - 2 f_L f_R - delta_f^2 (the T^2 = T reduction)
    worst = 0.0
    for _ in range(50):
        res = random_reservoir(rng, equal_beta_prob=0.2)
        e = float(rng.uniform(-12.0, 12.0))
        fL = fermi(res.beta_L, res.mu_L, e)
        fR = fermi(res.beta_R, res.mu_R, e)
        rhs = fL + fR - 2.0 * fL * fR - delta_f(res, e) ** 2
        worst = max(worst, abs(g_noise(res, e) - rhs))
    assert worst <= 1e-12


def test_g_trivial_values():
    res = ReservoirPair(1.0, 1.0, 0.0, 0.0)
    assert g_noise(res, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert g_noise(res, math.inf) == 0.0
    assert g_noise(res, -math.inf) == 0.0
    grid = np.linspace(-30, 30, 501)
    res2 = ReservoirPair(0.7, 2.0, -1.0, 0.4)
    g = g_noise(res2, grid)
    assert np.all((g >= 0.0) & (g <= 0.5))
    assert np.all(g[np.isfinite(grid)] > 0.0)


def test_epsilon_zero_cases():
    assert epsilon_zero(
        ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5)
    ) == pytest.approx(0.875, abs=1e-15)
    assert epsilon_zero(
        ReservoirPair.from_temperatures(2.0, 1.0, 0.0, 0.0)
    ) == pytest.approx(0.0, abs=1e-15)
    assert epsilon_zero(ReservoirPair(1.0, 1.0, -1.0, 1.0)) is None


def test_interval_moments_derivative(rng):
    # d/db of the integrals over [a, b] are the integrands delta_f, eps*delta_f
    # and g at b
    h = 1e-6
    for _ in range(10):
        res = random_reservoir(rng, equal_beta_prob=0.2)
        beta = min(res.beta_L, res.beta_R)
        a = min(res.mu_L, res.mu_R) - 10.0 / beta
        for e in rng.uniform(res.mu_L - 8.0 / beta, res.mu_L + 8.0 / beta, size=5):
            hi = interval_moments(res, a, e + h)
            lo = interval_moments(res, a, e - h)
            fd = [(u - v) / (2.0 * h) for u, v in zip(hi, lo)]
            df = delta_f(res, float(e))
            assert fd[0] == pytest.approx(df, rel=1e-6, abs=1e-9)
            assert fd[1] == pytest.approx(e * df, rel=1e-6, abs=1e-9)
            assert fd[2] == pytest.approx(g_noise(res, float(e)), rel=1e-6, abs=1e-9)


def test_interval_current_against_quadrature(fig2_res):
    # independent oracle: adaptive scipy quadrature of delta_f itself
    for a, b in [(-3.0, 1.5), (0.875, 6.0), (-8.0, -1.0)]:
        ref, err = quad(lambda x: delta_f(fig2_res, x), a, b, epsabs=1e-13)
        exact = interval_moments(fig2_res, a, b)[0]
        assert exact == pytest.approx(ref, abs=max(1e-12, 10 * err))


def test_interval_current_full_line():
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    full = interval_moments(res, -math.inf, math.inf)[0]
    assert full == pytest.approx(-2.0, abs=1e-14)  # equals mu_L - mu_R


def test_g_ratio_singularities(fig2_res):
    with pytest.raises(SingularityError):
        g_ratio(fig2_res, 0.875)
    with pytest.raises(SingularityError):
        g_ratio(ReservoirPair(1.0, 1.0, 0.3, 0.3), 1.0)
    with pytest.raises(SingularityError):
        g_ratio_limits(ReservoirPair(1.0, 1.0, 0.3, 0.3))


def test_g_ratio_diverges_at_eps0(fig2_res):
    vals = [g_ratio(fig2_res, 0.875 + d) for d in (1e-2, 1e-4, 1e-6)]
    assert all(v > 0 for v in vals)  # delta_f > 0 above eps0 here
    assert vals[0] < vals[1] < vals[2]
    vals_below = [g_ratio(fig2_res, 0.875 - d) for d in (1e-2, 1e-4, 1e-6)]
    assert all(v < 0 for v in vals_below)
    assert vals_below[0] > vals_below[1] > vals_below[2]


def test_g_ratio_limits_match_deep_samples(fig2_res):
    lim_lo, lim_hi = g_ratio_limits(fig2_res)
    assert (lim_lo, lim_hi) == (-1.0, 1.0)
    # numeric cross-check at beta (eps - mu) = +-40 of the slow reservoir
    e_hi = fig2_res.mu_L + 40.0 / fig2_res.beta_L
    e_lo = fig2_res.mu_L - 40.0 / fig2_res.beta_L
    assert g_ratio(fig2_res, e_hi) == pytest.approx(lim_hi, abs=1e-10)
    assert g_ratio(fig2_res, e_lo) == pytest.approx(lim_lo, abs=1e-10)


def test_g_ratio_limits_equal_beta():
    res = ReservoirPair(2.0, 2.0, 0.5, -0.5)  # delta_mu = 1
    lim = 1.0 / math.tanh(2.0 * 1.0 / 2.0)
    assert g_ratio_limits(res) == (pytest.approx(lim), pytest.approx(lim))
    e = res.mu_L + 40.0 / res.beta_L
    assert g_ratio(res, e) == pytest.approx(lim, rel=1e-10)
    assert g_ratio(res, -e) == pytest.approx(lim, rel=1e-10)
