"""Current/variance functionals and the TransportSummary contract."""

import math

import numpy as np
import pytest

from turbox import (
    BoxcarSet,
    BoxcarTransmission,
    ClosedFormTransmission,
    ConvergenceError,
    ReservoirPair,
    TabulatedTransmission,
    ValidationError,
    boxcar_integrals,
    currents,
    delta_f,
    dqd_transmission,
    g_noise,
    load_transmission_csv,
    summary,
    variance,
)
from turbox.boxcar import _workspace
from turbox.physics import interval_moments
from turbox.quadrature import adaptive_panels
from conftest import random_boxcar, random_reservoir, random_tabulated

FULL_LINE = BoxcarTransmission(BoxcarSet(((-math.inf, math.inf),)))
ZERO = BoxcarTransmission(BoxcarSet(()))


def test_zero_transmission(fig2_res):
    assert currents(ZERO, fig2_res) == (0.0, 0.0)
    assert variance(ZERO, fig2_res) == 0.0


def test_full_transparency_current():
    # tails of the antiderivative cancel to mu_L - mu_R
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    I, _ = currents(FULL_LINE, res)
    assert I == pytest.approx(-2.0, abs=1e-9)
    res2 = ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5)
    I2, _ = currents(FULL_LINE, res2)
    assert I2 == pytest.approx(res2.delta_mu, abs=1e-9)


def test_identical_reservoirs_zero_currents(rng):
    res = ReservoirPair(1.1, 1.1, 0.4, 0.4)
    T = random_tabulated(rng, res)
    I, J = currents(T, res)
    assert abs(I) < 1e-12 and abs(J) < 1e-12


def test_variance_full_line_identical():
    # 2 * integral of f(1-f) = 2 / beta
    for beta in (0.5, 1.0, 3.0):
        res = ReservoirPair(beta, beta, 0.0, 0.0)
        assert variance(FULL_LINE, res) == pytest.approx(2.0 / beta, rel=1e-10)


def test_boxcar_variance_cross_module(fig2_res, rng):
    # transport quadrature vs the boxcar module's own integrals (T^2 = T)
    for _ in range(8):
        B = random_boxcar(rng, fig2_res)
        T = BoxcarTransmission(B)
        I_t, J_t = currents(T, fig2_res)
        V_t = variance(T, fig2_res)
        I_b, J_b, V_b = boxcar_integrals(fig2_res, B)
        assert I_t == pytest.approx(I_b, rel=1e-9, abs=1e-11)
        assert J_t == pytest.approx(J_b, rel=1e-9, abs=1e-11)
        assert V_t == pytest.approx(V_b, rel=1e-9, abs=1e-11)


def test_variance_nonnegative_random(rng):
    for _ in range(100):
        res = random_reservoir(rng, equal_beta_prob=0.2)
        T = random_tabulated(rng, res, n_knots=12)
        assert variance(T, res) >= 0.0


def test_current_bound_and_saturation(fig2_res, rng):
    # |I| <= integral of |delta_f|; the one-sided boxcar saturates its side
    e0 = 0.875
    below = interval_moments(fig2_res, -math.inf, e0)[0]
    above = interval_moments(fig2_res, e0, math.inf)[0]
    int_abs = abs(below) + abs(above)
    for _ in range(10):
        T = random_tabulated(rng, fig2_res)
        I, _ = currents(T, fig2_res)
        assert abs(I) <= int_abs + 1e-10
    I_max, _ = currents(BoxcarTransmission(BoxcarSet(((e0, math.inf),))), fig2_res)
    assert I_max == pytest.approx(above, rel=1e-9)


def test_quadrature_self_consistency(fig2_res, rng):
    T = random_tabulated(rng, fig2_res)
    (I1, J1), (eI, eJ) = currents(T, fig2_res, abstol=1e-8, reltol=1e-6,
                                  full_output=True)
    I2, J2 = currents(T, fig2_res, abstol=5e-9, reltol=5e-7)
    assert abs(I1 - I2) <= eI
    assert abs(J1 - J2) <= eJ
    V1, eV = variance(T, fig2_res, abstol=1e-8, reltol=1e-6, full_output=True)
    V2 = variance(T, fig2_res, abstol=5e-9, reltol=5e-7)
    assert abs(V1 - V2) <= eV


@pytest.mark.parametrize("Omega", [0.03, 0.3])  # single and split resonance
@pytest.mark.parametrize("dmu", [0.1, 2.0, 40.0])
def test_summary_matches_scipy_quad_on_double_dot(Omega, dmu):
    # the one vector pass against scipy's scalar quad per integrand, with
    # the resonances as points and the reference fields delta_f and g_noise
    from scipy.integrate import quad

    T = dqd_transmission(0.1, Omega, 0.0)
    res = ReservoirPair(2.0, 2.0, -dmu / 2.0, dmu / 2.0)
    ws = _workspace(res)
    integrands = (
        lambda e: T(e) * delta_f(res, e),
        lambda e: e * T(e) * delta_f(res, e),
        lambda e: T(e) * g_noise(res, e) + T(e) * (1.0 - T(e)) * delta_f(res, e) ** 2,
    )
    s = summary(T, res)
    for value, f in zip((s.I, s.J, s.var_I), integrands):
        ref, _ = quad(f, ws.quad_lo, ws.quad_hi, points=T.breakpoints(),
                      epsabs=1e-14, epsrel=1e-12, limit=400)
        assert abs(value - ref) <= max(1e-10, 1e-8 * abs(ref))


def test_panel_budget_exhausted_raises_with_estimates():
    # a peak of width 1e-4 on [-1, 1] that no seed panel resolves
    def f(x):
        peak = 1e-8 / (x * x + 1e-8)
        return np.stack((peak, x * peak))

    values, errors = adaptive_panels(f, -1.0, 1.0)
    assert values[0] == pytest.approx(2e-4 * math.atan(1e4), rel=1e-8)
    assert abs(values[1]) <= 1e-10
    with pytest.raises(ConvergenceError) as info:
        adaptive_panels(f, -1.0, 1.0, max_panels=8)
    est = info.value.estimate
    assert est.shape == (2,)
    assert est[0] > max(1e-10, 1e-8 * values[0])


def test_summary_identities(fig2_res, rng):
    for _ in range(10):
        res = random_reservoir(rng)
        T = random_tabulated(rng, res)
        s = summary(T, res)
        sigma = -res.delta_beta * s.J + res.delta_beta_mu * s.I
        assert s.sigma == pytest.approx(sigma, rel=1e-10, abs=1e-300)
        assert s.sigma >= -1e-10
        assert s.P == pytest.approx(-res.delta_mu * s.I, rel=1e-12, abs=1e-300)
        assert s.J_Q_L == pytest.approx(s.J - res.mu_L * s.I, rel=1e-12, abs=1e-300)
        assert s.J_Q_R == pytest.approx(s.J - res.mu_R * s.I, rel=1e-12, abs=1e-300)


def test_summary_absent_fields():
    res = ReservoirPair(1.0, 1.0, 0.3, 0.3)  # identical: everything zero
    s = summary(FULL_LINE, res)
    assert s.I == pytest.approx(0.0, abs=1e-12)
    assert s.fano is None and s.tur_ratio is None and s.eta_eff is None


def test_equal_temperature_tur_identity(rng):
    # sigma = beta delta_mu I, so tur_ratio == fano * beta * |delta_mu|
    res = ReservoirPair(1.4, 1.4, -0.6, 0.6)
    T = random_tabulated(rng, res)
    s = summary(T, res)
    assert s.fano is not None
    assert s.tur_ratio == pytest.approx(
        s.fano * res.beta_L * abs(res.delta_mu), rel=1e-9
    )


def test_engine_regime_on_min_heat_boundary(fig2_res):
    # along the J_min(I) boundary there are operating points with positive
    # power and positive heat flow out of the hot bath
    from turbox import current_bounds, j_extrema

    cb = current_bounds(fig2_res)
    found = False
    for frac in np.linspace(0.05, 0.95, 19):
        I = cb.I_min + frac * (cb.I_max - cb.I_min)
        ex = j_extrema(fig2_res, float(I))
        s = summary(BoxcarTransmission(ex.boxcar_min), fig2_res)
        if s.P > 0.0 and s.J_Q_L > 0.0 and s.J_Q_R > 0.0:
            assert s.eta_eff is not None and 0.0 < s.eta_eff < 1.0
            found = True
    assert found


def test_eta_absent_outside_engine_regime(fig2_res):
    s = summary(FULL_LINE, fig2_res)
    engine = s.P > 0.0 and s.J_Q_L > 0.0 and s.J_Q_R > 0.0
    assert (s.eta_eff is not None) == engine


def test_tabulated_validation():
    with pytest.raises(ValidationError, match="increasing"):
        TabulatedTransmission([0.0, 0.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        TabulatedTransmission([0.0, 1.0], [0.5, 1.2])
    T = TabulatedTransmission([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
    assert T(-5.0) == 0.0 and T(5.0) == 0.0  # zero outside the range
    assert T(0.5) == pytest.approx(0.5)


def test_tabulated_narrow_peak_is_not_stepped_over():
    # a triangle of width 0.02 between wide zero plateaus: with only the end
    # energies as breakpoints the quadrature saw no current at all
    knots = (-3.0, 0.49, 0.5, 0.51, 3.0)
    T = TabulatedTransmission(knots, (0.0, 0.0, 1.0, 0.0, 0.0))
    assert T.breakpoints() == knots
    res = ReservoirPair(2.0, 2.0, -0.25, 0.25)
    I, J = currents(T, res)
    # reference: scipy.integrate.quad with the knots as points
    assert I == pytest.approx(-0.0019511390586455, rel=1e-7)
    assert J == pytest.approx(-0.00097554091123189, rel=1e-7)


def test_csv_loading(tmp_path):
    good = tmp_path / "t.csv"
    good.write_text("energy,transmission\n-1.0,0.0\n0.0,0.75\n2.0,1.0\n")
    T = load_transmission_csv(good)
    assert T(0.0) == pytest.approx(0.75)

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("e,t\n0,0\n1,1\n")
    with pytest.raises(ValidationError, match="row 1"):
        load_transmission_csv(bad_header)

    bad_order = tmp_path / "o.csv"
    bad_order.write_text("energy,transmission\n0.0,0.5\n0.0,0.5\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_transmission_csv(bad_order)

    bad_range = tmp_path / "r.csv"
    bad_range.write_text("energy,transmission\n0.0,0.5\n1.0,1.5\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_transmission_csv(bad_range)


def test_out_of_range_model_rejected(fig2_res):
    T = ClosedFormTransmission("bad", (), lambda e: 1.2 * np.ones_like(e))
    with pytest.raises(ValidationError, match="outside"):
        currents(T, fig2_res)
