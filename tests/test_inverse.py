"""Inverse map tests: round trips, boundary behavior, dominance, convexity."""

import math

import numpy as np
import pytest

from turbox import (
    ConvergenceError,
    FeasibilityError,
    Multipliers,
    ReservoirPair,
    boxcar_integrals,
    currents,
    current_bounds,
    dqd_transmission,
    j_extrema,
    optimal_variance,
    solve_boxcar,
    solve_multipliers,
    summary,
    variance,
)
from turbox import inverse
from turbox.analysis import default_bias_grid
from conftest import (
    random_interior_target,
    random_reservoir,
    random_tabulated,
    target_atols,
)


def test_trivial_zero_target(fig2_res):
    sol = solve_multipliers(fig2_res, 0.0, 0.0)
    assert sol.boxcar.is_empty
    assert sol.var_opt == 0.0
    assert sol.residual_norm == 0.0


def test_forward_inverse_round_trip(fig2_res, rng):
    hits = 0
    while hits < 10:
        m = Multipliers(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)))
        B = solve_boxcar(fig2_res, m)
        if B.is_empty:
            continue
        I0, J0, V0 = boxcar_integrals(fig2_res, B)
        sol = solve_multipliers(fig2_res, I0, J0, tol=1e-9)
        span = current_bounds(fig2_res).I_max - current_bounds(fig2_res).I_min
        assert abs(sol.I - I0) <= 1e-9 * max(abs(I0), 1e-2 * span)
        assert sol.var_opt <= V0 + 1e-8 * max(V0, 1e-3)
        hits += 1


def test_round_trip_multiple_reservoirs(rng):
    hits = 0
    while hits < 8:
        res = random_reservoir(rng, equal_beta_prob=0.25)
        m = Multipliers(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        try:
            B = solve_boxcar(res, m)
        except Exception:
            continue
        if B.is_empty or B.signature() == (1, True, True):
            continue
        I0, J0, V0 = boxcar_integrals(res, B)
        sol = solve_multipliers(res, I0, J0, tol=1e-8)
        assert sol.var_opt == pytest.approx(V0, rel=1e-6, abs=1e-10)
        hits += 1


def test_residual_norm_contract(fig2_res, rng):
    for _ in range(5):
        I, J = random_interior_target(rng, fig2_res)
        sol = solve_multipliers(fig2_res, I, J, tol=1e-8)
        cb = current_bounds(fig2_res)
        ex = j_extrema(fig2_res, I)
        atol_I = 1e-8 * max(abs(I), 1e-2 * (cb.I_max - cb.I_min))
        atol_J = 1e-8 * max(abs(J), 1e-2 * (ex.J_max - ex.J_min))
        assert abs(sol.I - I) <= atol_I
        assert abs(sol.J - J) <= atol_J
        assert sol.residual_norm <= max(atol_I, atol_J)


def test_lambda_zero_root_far_below_one():
    # at large bias the lambda = 0 root eta is about -1e-11: an absolute eta
    # tolerance stopped at the boxcar (-10.62, 10.62), with I = -21.25 and
    # var_opt = 2.8e-13 instead of 1.6e-27
    res = ReservoirPair(3.036793754497767, 3.036793754497767, -20.0, 20.0)
    I, J = -0.1831, 0.0
    sol = solve_multipliers(res, I, J)
    atol_I, atol_J = target_atols(res, I, J)
    assert abs(sol.I - I) <= atol_I
    assert abs(sol.J - J) <= atol_J
    assert sol.signature() == (1, False, False)
    assert 0.0 < sol.var_opt < 1e-26
    # both baths sit 60 thermal lengths from the boxcar, on opposite sides:
    # differences of f where 1 - f is needed would leave only rounding
    assert sol.var_opt == pytest.approx(1.5561209017183017e-27, rel=1e-12, abs=0.0)


def test_tolerance_met_or_raised():
    # a small symmetric target on an equal-beta pair, which the solver used
    # to return silently 30 times outside atol_I: the result must meet both
    # tolerances, or the solve raises with the solution as its estimate
    res = ReservoirPair(1.5, 1.5, -0.025, 0.025)
    I, J = -1e-5, 0.0
    atol_I, atol_J = target_atols(res, I, J)
    try:
        sol = solve_multipliers(res, I, J)
    except ConvergenceError as err:
        est = err.estimate
        assert est.residual_norm == max(abs(est.I - I), abs(est.J - J))
        assert abs(est.I - I) > atol_I or abs(est.J - J) > atol_J
    else:
        assert abs(sol.I - I) <= atol_I
        assert abs(sol.J - J) <= atol_J


def test_min_heat_boundary_compact_interval(fig2_res):
    # approaching J_min(I): single compact interval whose left endpoint
    # approaches eps0 = 0.875 like the square root of the inset
    cb = current_bounds(fig2_res)
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    gaps = []
    for inset in (1e-3, 1e-5, 1e-7):
        J = ex.J_min * (1.0 + inset)
        sol = solve_multipliers(fig2_res, I, J)
        assert sol.boxcar.signature() == (1, False, False)
        gaps.append(sol.boxcar.intervals[0][0] - 0.875)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # sqrt scaling: inset ratio 100 -> endpoint ratio ~10
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.25)


def test_infeasible_targets_raise(fig2_res):
    cb = current_bounds(fig2_res)
    with pytest.raises(FeasibilityError) as exc:
        solve_multipliers(fig2_res, cb.I_max * 1.5, 0.0)
    assert exc.value.boundary == "I_max"
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    with pytest.raises(FeasibilityError) as exc:
        solve_multipliers(fig2_res, I, ex.J_min - 0.5)
    assert exc.value.boundary == "J_min(I)"
    with pytest.raises(FeasibilityError) as exc:
        solve_multipliers(fig2_res, I, ex.J_max + 0.5)
    assert exc.value.boundary == "J_max(I)"


def test_boundary_target_nudged_inward(fig2_res):
    # a target exactly on J_min(I) is solvable (nudged by 1e-9 relative)
    cb = current_bounds(fig2_res)
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    sol = solve_multipliers(fig2_res, I, ex.J_min)
    assert sol.boxcar.signature() == (1, False, False)
    assert sol.var_opt == pytest.approx(ex.var_min, rel=1e-3)


def test_dominance_random_transmissions(fig2_res, rng):
    for _ in range(30):
        T = random_tabulated(rng, fig2_res, n_knots=10)
        I, J = currents(T, fig2_res)
        V = variance(T, fig2_res)
        v_opt = optimal_variance(fig2_res, I, J)
        assert v_opt <= V + 1e-8 * max(1.0, V)


def test_midpoint_convexity(fig2_res, rng):
    for _ in range(20):
        I1, J1 = random_interior_target(rng, fig2_res)
        I2, J2 = random_interior_target(rng, fig2_res)
        Im, Jm = 0.5 * (I1 + I2), 0.5 * (J1 + J2)
        try:
            vm = optimal_variance(fig2_res, Im, Jm)
        except FeasibilityError:
            continue  # midpoint can fall outside at this sampling margin
        v1 = optimal_variance(fig2_res, I1, J1)
        v2 = optimal_variance(fig2_res, I2, J2)
        assert vm <= 0.5 * (v1 + v2) + 1e-8


def test_continuity_along_segment(fig2_res):
    cb = current_bounds(fig2_res)
    n = 100
    ts = np.linspace(0.0, 1.0, n)
    vals = []
    guess = None
    for t in ts:
        I = cb.I_min * 0.4 + t * (cb.I_max * 0.4 - cb.I_min * 0.4)
        ex = j_extrema(fig2_res, float(I))
        J = ex.J_min + (0.3 + 0.4 * t) * (ex.J_max - ex.J_min)
        sol = solve_multipliers(fig2_res, float(I), float(J), guess=guess)
        guess = sol.multipliers
        vals.append(sol.var_opt)
    steps = np.abs(np.diff(vals))
    typical = np.median(steps) + 1e-12
    assert np.all(steps <= 10.0 * typical + 1e-9)


def test_var_opt_matches_boxcar_integrals(fig2_res, rng):
    I, J = random_interior_target(rng, fig2_res)
    sol = solve_multipliers(fig2_res, I, J)
    _, _, V = boxcar_integrals(fig2_res, sol.boxcar)
    assert sol.var_opt == pytest.approx(V, rel=1e-10, abs=1e-13)


def test_multiplier_recovery(fig2_res):
    m = Multipliers(-8.0, 11.2)
    B = solve_boxcar(fig2_res, m)
    I, J, _ = boxcar_integrals(fig2_res, B)
    sol = solve_multipliers(fig2_res, I, J, tol=1e-10)
    assert sol.multipliers.lam == pytest.approx(-8.0, rel=1e-6)
    assert sol.multipliers.eta == pytest.approx(11.2, rel=1e-6)


def test_identical_reservoirs_only_origin():
    res = ReservoirPair(1.0, 1.0, 0.5, 0.5)
    sol = solve_multipliers(res, 0.0, 0.0)
    assert sol.var_opt == 0.0
    with pytest.raises(FeasibilityError):
        solve_multipliers(res, 0.1, 0.0)


# regimes that tripped nested and joint Newton solvers (FIG3G unless named)
FIG3G = ReservoirPair.from_temperatures(1.0, 0.2, 0.1, 0.6)


def _assert_meets_tolerances(res, I, J, guess=None):
    sol = solve_multipliers(res, I, J, guess=guess)
    atol_I, atol_J = target_atols(res, I, J)
    assert abs(sol.I - I) <= atol_I
    assert abs(sol.J - J) <= atol_J


def test_warm_start_across_lambda_zero():
    # the guess has lam < 0 and the answer lam > 0
    _assert_meets_tolerances(
        FIG3G, -0.7397390025974401, 0.7225843162565144,
        guess=Multipliers(-0.0037771473863501223, -1.0101199083865997),
    )


def test_far_warm_start_on_flat_j():
    # J(lam) is nearly flat near J_min(I): a far guess must still come home
    _assert_meets_tolerances(
        FIG3G, -0.7637963571109986, 0.42800321017152476,
        guess=Multipliers(-37.5629976131514, -336.9035990902467),
    )


@pytest.mark.parametrize("k", [46, 52, 62])  # dmu ~ 4.79, 10.13, 35.31
def test_large_bias_fano_targets(k):
    # at large bias the optimum's lam is ~1e-17 and g ~ e^(-beta dmu / 2)
    dmu = float(default_bias_grid()[k])
    res = ReservoirPair(2.0, 2.0, -dmu / 2.0, dmu / 2.0)
    s = summary(dqd_transmission(0.1, 0.05, 0.5), res)
    _assert_meets_tolerances(res, s.I, s.J)


def test_forward_solve_count(fig2_res, monkeypatch):
    # a machine-independent regression check on the cost of cold solves
    # (measured: median 31.5, worst 53 forward solves)
    counts = []
    real = inverse.solve_boxcar

    def counted(*args, **kwargs):
        counts[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(inverse, "solve_boxcar", counted)
    rng = np.random.default_rng(5)
    for _ in range(20):
        I, J = random_interior_target(rng, fig2_res, margin=0.02)
        counts.append(0)
        _assert_meets_tolerances(fig2_res, I, J)
    assert np.median(counts) <= 40
    assert max(counts) <= 80


def test_extreme_beta_ratio_solves():
    # beta ratio ~240: the forward solve's scalar fields raised OverflowError
    # in exp(x) for x > 709 while brentq refined a root
    res = ReservoirPair(1.176215324418072, 281.026058483668,
                        0.8855449980574042, -1.8127497882354477)
    I, J = 2.1412237089946213, 0.4231254252724086
    _assert_meets_tolerances(res, I, J)
    assert solve_multipliers(res, I, J).signature() == (3, True, True)


def test_equal_beta_fuzz_miss_solves_or_raises():
    # a 1e-4-inset target on an equal-beta pair that missed atol_J (|dJ| =
    # 7.9e-12 against 2.7e-12) in a fuzz over reservoirs
    res = ReservoirPair(1.4689158048213888, 1.4689158048213888,
                        -0.3880586014532219, -0.3987761421284475)
    I, J = 0.008318679579212736, -0.00026875493701727926
    try:
        _assert_meets_tolerances(res, I, J)
    except ConvergenceError as err:
        assert err.estimate is not None


def test_inverse_fuzz_over_reservoirs():
    # a third of the pairs at equal beta, the rest with beta ratios up to
    # 300; every interior target either solves within its tolerances or
    # raises one of the two documented errors, and nothing else escapes
    rng = np.random.default_rng(12)
    for k in range(60):
        beta_L = 10.0 ** rng.uniform(-1.0, 0.5)
        if k % 3 == 0:
            beta_R = beta_L
        else:
            ratio = 10.0 ** rng.uniform(0.0, math.log10(300.0))
            beta_R = beta_L * ratio if rng.random() < 0.5 else beta_L / ratio
        mu_L, mu_R = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        res = ReservoirPair(beta_L, beta_R, mu_L, mu_R)
        for margin in (0.02, 0.02, 1e-4, 1e-4):
            I, J = random_interior_target(rng, res, margin=margin)
            try:
                _assert_meets_tolerances(res, I, J)
            except (ConvergenceError, FeasibilityError):
                pass  # a reported failure; any other exception fails the test
