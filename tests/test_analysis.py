"""Double-dot model, symmetric-boxcar closed forms, linear-response bound."""

import math

import numpy as np
import pytest

from turbox import (
    BoxcarSet,
    BoxcarTransmission,
    FeasibilityError,
    LinearResponseFrame,
    SingularityError,
    boxcar_integrals,
    delta_f,
    dqd_transmission,
    fano_opt_symmetric,
    fano_sweep,
    g_noise,
    linear_tur_bound,
    summary,
    symmetric_boxcar_width,
    theta_moments,
)
from turbox.analysis import LOG_ARGUMENT_READING, _symmetric_reservoirs

INF = math.inf


# ---------------------------------------------------------------------------
# double quantum dot
# ---------------------------------------------------------------------------


def test_dqd_matches_complex_modulus(rng):
    # real-polynomial evaluation vs the squared modulus of the complex form
    for _ in range(10):
        G, O, w = rng.uniform(0.02, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1, 1)
        T = dqd_transmission(G, O, w)
        for e in rng.uniform(w - 3, w + 3, size=5):
            denom = abs((e - w + 0.5j * G) ** 2 - O**2) ** 2
            assert T(float(e)) == pytest.approx(G**2 * O**2 / denom, rel=1e-14)


def test_dqd_bounded_random_scan(rng):
    for _ in range(20):
        G = float(rng.uniform(0.01, 1.0))
        O = float(rng.uniform(-1.0, 1.0))
        w = float(rng.uniform(-1.0, 1.0))
        if O == 0.0:
            continue
        T = dqd_transmission(G, O, w)
        v = T(np.linspace(w - 20, w + 20, 100001))
        assert np.all(v > 0.0)
        assert np.all(v <= 1.0 + 1e-12)


def test_dqd_peak_reaches_one_when_split():
    # split resonances (Omega^2 >= Gamma^2/4) peak at exactly 1
    T = dqd_transmission(0.01, 0.5, 0.3)
    grid = np.linspace(-0.5, 1.1, 200001)
    assert T(grid).max() == pytest.approx(1.0, abs=1e-6)


def test_dqd_symmetry_and_tail():
    T = dqd_transmission(0.1, 0.05, 0.7)
    for x in (0.3, 1.0, 2.5):
        assert abs(T(0.7 + x) - T(0.7 - x)) <= 1e-14
    # eps^-4 decay: quadrupling the offset divides by ~256
    assert T(0.7 + 160.0) / T(0.7 + 40.0) == pytest.approx(1.0 / 256.0, rel=1e-2)


# ---------------------------------------------------------------------------
# symmetric boxcar closed forms
# ---------------------------------------------------------------------------


def test_symmetric_width_round_trip(rng):
    from turbox import boxcar_integrals

    for _ in range(10):
        beta = float(rng.uniform(0.3, 3.0))
        dmu = float(rng.uniform(0.2, 4.0))
        I_t = -float(rng.uniform(0.05, 0.95)) * dmu
        a = symmetric_boxcar_width(beta, dmu, I_t)
        res = _symmetric_reservoirs(beta, dmu)
        I = boxcar_integrals(res, BoxcarSet(((-a / 2.0, a / 2.0),)))[0]
        assert I == pytest.approx(I_t, rel=1e-10)


def test_symmetric_width_limits():
    assert symmetric_boxcar_width(1.0, 2.0, 0.0) == 0.0
    assert symmetric_boxcar_width(1.0, 2.0, -2.0) == INF  # full-line current
    with pytest.raises(FeasibilityError):
        symmetric_boxcar_width(1.0, 2.0, -2.5)
    with pytest.raises(FeasibilityError):
        symmetric_boxcar_width(1.0, 2.0, +0.5)  # wrong sign


def test_symmetric_width_matches_mpmath():
    # the closed form at 40 digits, itself checked against the exact
    # current of the Fermi antiderivative; the 200-step bisection it
    # replaced was off by up to 9e-8 relative on these cases
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(7)
    cases = [
        (float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.05, 10.0)),
         0.999 * 10.0 ** rng.uniform(-8.0, 0.0))
        for _ in range(600)
    ]
    cases += [(4.0, 400.0, 1e-3), (4.0, 400.0, 0.9975)]  # e^{beta dmu/2} overflows

    def fermi_integral(b, mu, e):  # antiderivative of 1/(1 + e^{b(e - mu)})
        return e - mp.log1p(mp.exp(b * (e - mu))) / b

    for beta, dmu, frac in cases:
        I_t = -frac * dmu
        a = symmetric_boxcar_width(beta, dmu, I_t)
        b, d = mp.mpf(beta), mp.mpf(dmu)
        r, s = mp.exp(-b * mp.mpf(I_t) / 2), mp.exp(b * d / 2)
        a_ref = 2 / b * mp.log((r * s - 1) / (s - r))
        I_ref = sum(sgn * (fermi_integral(b, mu, a_ref / 2) - fermi_integral(b, mu, -a_ref / 2))
                    for sgn, mu in ((1, -d / 2), (-1, d / 2)))
        assert abs(I_ref - mp.mpf(I_t)) <= mp.mpf(10) ** -30 * abs(I_t)
        assert abs(a - a_ref) <= 1e-14 * a_ref


def test_fano_opt_matches_integrals(rng):
    # the ratio reading of the closed form reproduces the defining
    # integrals (the function itself cross-checks to 1e-6; verify to 1e-9)
    for _ in range(20):
        beta = float(rng.uniform(0.3, 3.0))
        dmu = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(0.05, 8.0))
        F = fano_opt_symmetric(beta, dmu, a)
        res = _symmetric_reservoirs(beta, dmu)
        I, _, V = boxcar_integrals(res, BoxcarSet(((-a / 2.0, a / 2.0),)))
        assert F == pytest.approx(V / abs(I), rel=1e-9)


def test_fano_opt_product_reading_is_wrong():
    # the typographically plausible product reading fails the cross-check
    assert LOG_ARGUMENT_READING == "ratio"
    beta, dmu, a = 1.0, 2.0, 1.5
    from turbox import fermi

    fL = fermi(beta, -dmu / 2.0, a / 2.0)
    fR = fermi(beta, dmu / 2.0, a / 2.0)
    product_reading = 2.0 * (1.0 - fL - fR) / math.log(fR * (1 - fR) * fL * (1 - fL))
    res = _symmetric_reservoirs(beta, dmu)
    I, _, V = boxcar_integrals(res, BoxcarSet(((-a / 2.0, a / 2.0),)))
    assert abs(product_reading - V / abs(I)) > 1e-3 * (V / abs(I))


def test_fano_opt_degenerate_width():
    # a -> 0 limit is the density ratio g(0)/|delta_f(0)|
    beta, dmu = 1.0, 1.0
    res = _symmetric_reservoirs(beta, dmu)
    expected = g_noise(res, 0.0) / abs(delta_f(res, 0.0))
    assert fano_opt_symmetric(beta, dmu, 0.0) == pytest.approx(expected, rel=1e-12)
    assert fano_opt_symmetric(beta, dmu, 1e-6) == pytest.approx(expected, rel=1e-4)


def test_fano_opt_linear_response_limit():
    # a -> 0 and dmu -> 0: F_opt * beta * dmu -> 2
    beta = 1.0
    for dmu in (1e-2, 1e-3):
        val = fano_opt_symmetric(beta, dmu, dmu / 4.0) * beta * dmu
        assert val == pytest.approx(2.0, rel=5e-3)


def test_fano_opt_violation_regime():
    # large width at large bias: F_opt * beta * dmu < 2
    beta, dmu = 1.0, 8.0
    a = symmetric_boxcar_width(beta, dmu, -0.9 * dmu)
    assert fano_opt_symmetric(beta, dmu, a) * beta * dmu < 2.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_fano_sweep_rows(rng):
    rows = fano_sweep(0.1, 0.05, 0.0, 1.0, dmu_grid=[0.0, 0.05, 1.0, 10.0])
    assert len(rows) == 3  # the dmu = 0 row is omitted
    assert [r["dmu"] for r in rows] == [0.05, 1.0, 10.0]
    for r in rows:
        assert r["fano_opt_scaled"] <= r["fano_model_scaled"] + 1e-9  # dominance
        assert r["var_opt"] >= 0.0
    assert rows[0]["fano_opt_scaled"] == pytest.approx(2.0, rel=2e-2)
    opt = [r["fano_opt_scaled"] for r in rows]
    assert opt[0] >= opt[1] >= opt[2]


# ---------------------------------------------------------------------------
# theta moments and the linear-response ratio
# ---------------------------------------------------------------------------


def test_theta_symmetric_boxcar_first_moment_zero():
    fr = LinearResponseFrame(beta=1.3, mu=0.0, d_beta=0.0, d_beta_mu=1e-3)
    t0, t1, t2 = theta_moments(fr, BoxcarSet(((-2.0, 2.0),)))
    assert t0 > 0.0 and t2 > 0.0
    assert t1 == pytest.approx(0.0, abs=1e-12)


def test_theta_full_line():
    fr = LinearResponseFrame(beta=1.0, mu=0.0, d_beta=0.0, d_beta_mu=1e-3)
    t0, _, _ = theta_moments(fr, BoxcarSet(((-INF, INF),)))
    assert t0 == pytest.approx(1.0, rel=1e-10)  # 1/beta


def test_theta_jensen_inequality(rng):
    from conftest import random_boxcar

    fr = LinearResponseFrame(beta=1.0, mu=0.2, d_beta=1e-2, d_beta_mu=1e-2)
    res = fr.to_reservoirs()
    for _ in range(50):
        B = random_boxcar(rng, res)
        t0, t1, t2 = theta_moments(fr, B)
        assert t0 * t2 >= t1 * t1 - 1e-12


def test_linear_ratio_exactly_two_at_equal_beta():
    fr = LinearResponseFrame(beta=1.0, mu=0.0, d_beta=0.0, d_beta_mu=1e-2)
    r = linear_tur_bound(fr, BoxcarSet(((-1.5, 1.5),)))
    assert r.ratio == 2.0
    assert r.sigma >= 0.0


def test_linear_ratio_exceeds_two(rng):
    from conftest import random_boxcar

    fr = LinearResponseFrame(beta=1.0, mu=0.1, d_beta=1e-2, d_beta_mu=1e-2)
    res = fr.to_reservoirs()
    for _ in range(10):
        B = random_boxcar(rng, res, inf_prob=0.0)
        try:
            r = linear_tur_bound(fr, B)
        except SingularityError:
            continue
        assert r.ratio > 2.0
        assert r.sigma >= 0.0


def test_linear_ratio_matches_nonlinear_transport():
    # delta = 1e-2: full quadrature ratio within 1% of the expansion
    fr = LinearResponseFrame(beta=1.0, mu=0.0, d_beta=1e-2, d_beta_mu=1e-2)
    B = BoxcarSet(((-1.0, 2.0),))
    r = linear_tur_bound(fr, B)
    res = fr.to_reservoirs()
    s = summary(BoxcarTransmission(B), res)
    nonlinear = s.var_I * s.sigma / (s.I * s.I)
    assert r.ratio == pytest.approx(nonlinear, rel=1e-2)
    assert r.I == pytest.approx(s.I, rel=2e-2)
    assert r.var_I == pytest.approx(s.var_I, rel=2e-2)
    assert r.sigma == pytest.approx(s.sigma, rel=3e-2)


def test_linear_ratio_undefined_at_zero_current():
    fr = LinearResponseFrame(beta=1.0, mu=0.0, d_beta=0.0, d_beta_mu=0.0)
    with pytest.raises(SingularityError):
        linear_tur_bound(fr, BoxcarSet(((-1.0, 1.0),)))


def test_frame_reservoir_mapping():
    fr = LinearResponseFrame(beta=2.0, mu=0.5, d_beta=0.1, d_beta_mu=-0.2)
    res = fr.to_reservoirs()
    assert res.beta_L == pytest.approx(2.0 - 0.05)
    assert res.beta_R == pytest.approx(2.0 + 0.05)
    assert res.beta_L * res.mu_L == pytest.approx(2.0 * 0.5 + 0.1)
    assert res.beta_R * res.mu_R == pytest.approx(2.0 * 0.5 - 0.1)
    with pytest.raises(Exception):
        LinearResponseFrame(beta=0.1, mu=0.0, d_beta=1.0, d_beta_mu=0.0)
