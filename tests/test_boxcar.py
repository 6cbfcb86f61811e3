"""Forward solver, boxcar integrals and the endpoint Jacobian."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from turbox import (
    BoxcarSet,
    Multipliers,
    NearBifurcationError,
    ReservoirPair,
    ValidationError,
    boxcar_integrals,
    current_bounds,
    delta_f,
    epsilon_zero,
    g_noise,
    j_extrema,
    multiplier_jacobian,
    residual,
    solve_boxcar,
    solve_multipliers,
)
from turbox.boxcar import (
    _CORE_X,
    _df_g_scalar,
    _fields,
    _find_tail_root,
    _hull,
    _rprime_scalar,
    _tail_included,
    _workspace,
)
from turbox.region import bifurcation_curves
from conftest import random_reservoir, target_atols

INF = math.inf


# ---------------------------------------------------------------------------
# BoxcarSet data model
# ---------------------------------------------------------------------------


def test_boxcar_validation():
    with pytest.raises(ValidationError):
        BoxcarSet(((1.0, 1.0),))  # empty interval
    with pytest.raises(ValidationError):
        BoxcarSet(((0.0, 2.0), (1.0, 3.0)))  # overlap
    with pytest.raises(ValidationError):
        BoxcarSet(((0.0, INF), (5.0, 6.0)))  # inner +inf
    with pytest.raises(ValidationError):
        BoxcarSet(((0.0, 1.0), (-INF, 2.0)))
    B = BoxcarSet(((-INF, 0.0), (1.0, 2.0), (3.0, INF)))
    assert B.signature() == (3, True, True)
    assert B.finite_endpoints() == [0.0, 1.0, 2.0, 3.0]


def test_boxcar_indicator():
    B = BoxcarSet(((-1.0, 0.5), (2.0, INF)))
    e = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 100.0])
    assert np.array_equal(B.indicator(e), [0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    assert B.indicator(0.25) == 1.0


def test_boxcar_json_round_trip():
    B = BoxcarSet(((-INF, -1.0), (0.0, 2.5)))
    text = json.dumps(B.to_json())
    assert '"-inf"' in text
    assert BoxcarSet.from_json(text) == B
    assert BoxcarSet.from_json(B.to_json()) == B


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_at_eps0_is_g(fig2_res, rng):
    e0 = epsilon_zero(fig2_res)
    for _ in range(5):
        m = Multipliers(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        assert residual(fig2_res, m, e0) == pytest.approx(
            g_noise(fig2_res, e0), rel=1e-14
        )
        assert residual(fig2_res, m, e0) > 0.0


def test_residual_zero_multipliers_positive(fig2_res):
    m = Multipliers(0.0, 0.0)
    grid = np.linspace(-30.0, 30.0, 301)
    r = residual(fig2_res, m, grid)
    assert np.all(r[np.isfinite(grid)] >= 0.0)


def test_residual_vanishes_at_infinity(fig2_res):
    m = Multipliers(3.0, -2.0)
    assert residual(fig2_res, m, INF) == 0.0
    assert residual(fig2_res, m, -INF) == 0.0


# ---------------------------------------------------------------------------
# solve_boxcar
# ---------------------------------------------------------------------------


def test_zero_multipliers_empty(fig2_res):
    assert solve_boxcar(fig2_res, Multipliers(0.0, 0.0)).is_empty


def test_identical_reservoirs_always_empty():
    res = ReservoirPair(1.0, 1.0, 0.2, 0.2)
    assert solve_boxcar(res, Multipliers(5.0, -3.0)).is_empty


def test_large_multiplier_compact_limit(fig2_res):
    # lam -> -inf at fixed eps1 = -eta/lam: compact boxcar [eps0, eps1]
    e0, e1 = 0.875, 2.0
    lam = -1e6
    B = solve_boxcar(fig2_res, Multipliers(lam, -lam * e1))
    assert B.signature() == (1, False, False)
    (a, b), = B.intervals
    assert a == pytest.approx(e0, abs=1e-3)
    assert b == pytest.approx(e1, abs=1e-3)
    assert a > e0  # R(eps0) = g(eps0) > 0: eps0 itself is never inside


def test_large_multiplier_complement_limit(fig2_res):
    e1 = 2.0
    lam = 1e6
    B = solve_boxcar(fig2_res, Multipliers(lam, -lam * e1))
    assert B.signature() == (2, True, True)
    assert B.intervals[0][1] == pytest.approx(0.875, abs=1e-3)
    assert B.intervals[1][0] == pytest.approx(e1, abs=1e-3)


def test_solution_set_signs(fig2_res, rng):
    # R < 0 strictly inside intervals, R > 0 strictly between them
    # (checked where the fields are representable, |eps| <= ~40/beta)
    w_lo, w_hi = -44.0, 9.5
    for _ in range(10):
        m = Multipliers(float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)))
        B = solve_boxcar(fig2_res, m)
        for a, b in B.intervals:
            aa, bb = max(a, w_lo), min(b, w_hi)
            if aa >= bb:
                continue
            assert residual(fig2_res, m, 0.5 * (aa + bb)) < 0.0
        for (a1, b1), (a2, b2) in zip(B.intervals[:-1], B.intervals[1:]):
            gap_mid = 0.5 * (b1 + a2)
            if w_lo <= gap_mid <= w_hi:
                assert residual(fig2_res, m, gap_mid) > 0.0


def test_endpoint_residual_tolerance(fig2_res, rng):
    for _ in range(5):
        m = Multipliers(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        B = solve_boxcar(fig2_res, m)
        for e in B.finite_endpoints():
            # R changes by ~|R'| * 1e-12 across the root
            assert abs(residual(fig2_res, m, e)) < 1e-9 * (1.0 + abs(m.lam))


def test_endpoints_never_eps0(fig2_res, rng):
    e0 = epsilon_zero(fig2_res)
    for _ in range(10):
        m = Multipliers(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        for e in solve_boxcar(fig2_res, m).finite_endpoints():
            assert abs(e - e0) > 1e-10


def test_tangency_guard_ignores_rounding_noise_in_rprime():
    # near eps = -44 R' is rounding noise from terms of size ~1e-19: the
    # node formula gives -4.8e-35 and the scalar one +2.4e-35, so the node
    # scan sees a sign change that brentq on the scalar R' cannot bracket
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    m = Multipliers(0.002796733794980373, -1.192295333916264)
    B = solve_boxcar(res, m)
    assert B.signature() == (2, True, False)
    a, b = B.intervals[1]
    assert residual(res, m, 0.5 * (a + b)) < 0.0
    assert residual(res, m, 0.5 * (B.intervals[0][1] + a)) > 0.0

    # the same guard is reached through an interior target of the
    # equal-beta reservoirs
    I, J = -1.7366513973372755, 0.03733348423855609
    tol = 1e-8
    sol = solve_multipliers(res, I, J, tol=tol)
    cb = current_bounds(res)
    ex = j_extrema(res, I)
    atol_I = tol * max(abs(I), 1e-2 * (cb.I_max - cb.I_min))
    atol_J = tol * max(abs(J), 1e-2 * (ex.J_max - ex.J_min))
    assert abs(sol.I - I) <= atol_I
    assert abs(sol.J - J) <= atol_J
    assert sol.residual_norm <= max(atol_I, atol_J)


def test_scan_brackets_keep_their_end_values():
    # deep in the left tail (eps in [-45.066, -44.941]) the scan's R changes
    # sign while the scalar formula gives -1.2e-35 and -3.6e-35 at the two
    # nodes; brentq recomputing the ends raised a bare ValueError
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    I, J = -0.9957676517660873, 0.049263828512937424
    sol = solve_multipliers(res, I, J)
    atol_I, atol_J = target_atols(res, I, J)
    assert abs(sol.I - I) <= atol_I
    assert abs(sol.J - J) <= atol_J

    # the tangency branch of the same equal-beta pair runs into such
    # brackets at once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = bifurcation_curves(ReservoirPair.from_temperatures(1, 1, -1, 1))
    assert {r.tag for r in rows} == {"B_tan", "B_0"}
    assert all(math.isfinite(r.I) and math.isfinite(r.J) for r in rows)


def _random_pair(rng, max_ratio=300.0):
    beta_L = 10.0 ** rng.uniform(-1.0, 0.5)
    ratio = 10.0 ** rng.uniform(0.0, math.log10(max_ratio))
    beta_R = beta_L * ratio if rng.random() < 0.5 else beta_L / ratio
    mu_L, mu_R = rng.uniform(-2.0, 2.0, size=2)
    return ReservoirPair(beta_L, beta_R, mu_L, mu_R)


def test_fields_match_physics(rng):
    # the fused kernel against the branchy reference fields, across the scan
    # window, on pairs with beta ratios up to 300
    for _ in range(100):
        res = _random_pair(rng)
        ws = _workspace(res)
        x = np.linspace(ws.scan_lo, ws.scan_hi, 4001)
        df, g, dfp, gp = _fields(res, x)
        for v in (df, g, dfp, gp):
            assert np.all(np.isfinite(v))
        with np.errstate(over="ignore"):  # delta_f's mixed branch
            df_ref = delta_f(res, x)
            g_ref = g_noise(res, x)
            h = 1e-6 / ws.beta_max
            fd_df = (delta_f(res, x + h) - delta_f(res, x - h)) / (2.0 * h)
            fd_g = (g_noise(res, x + h) - g_noise(res, x - h)) / (2.0 * h)
        assert np.array_equal(np.sign(df), np.sign(df_ref))
        big = np.abs(df_ref) > 1e-290
        assert np.all(np.abs(df[big] - df_ref[big]) <= 1e-13 * np.abs(df_ref[big]))
        assert np.all(np.abs(g - g_ref) <= 1e-13 * g_ref)
        # derivatives on the beta g scale, over the rounding of the
        # difference quotient itself
        scale = ws.beta_max * g_ref
        fd_noise = 4e-16 * (np.abs(df_ref) + g_ref) / h
        assert np.all(np.abs(dfp - fd_df) <= 1e-6 * scale + fd_noise)
        assert np.all(np.abs(gp - fd_g) <= 1e-6 * scale + fd_noise)


def test_scalar_fields_match_fields(rng):
    # the scalar kernels of the root refinement against _fields, across the
    # scan window, on pairs with beta ratios up to 300, where the mixed-sign
    # branch used to overflow in exp(x)
    pairs = [_random_pair(rng) for _ in range(40)]
    pairs.append(ReservoirPair(1.176215324418072, 281.026058483668,
                               0.8855449980574042, -1.8127497882354477))
    for res in pairs:
        # the solver's own scan nodes: dense in the core, between the mus
        x = _workspace(res).nodes
        df, g, dfp, gp = _fields(res, x)
        lam, eta = (float(v) for v in rng.normal(0.0, 3.0, size=2))
        for k, e in enumerate(x):
            e = float(e)
            df_s, g_s = _df_g_scalar(res, e)
            # opposite exponent signs leave a difference of two O(1) Fermi
            # factors, exact only to a few ulps of 1
            assert abs(df_s - df[k]) <= 1e-13 * abs(df[k]) + 1e-15
            assert abs(g_s - g[k]) <= 1e-13 * g[k]
            rp = gp[k] - lam * df[k] - (lam * e + eta) * dfp[k]
            size = abs(gp[k]) + abs(lam * df[k]) + abs((lam * e + eta) * dfp[k])
            assert abs(_rprime_scalar(res, lam, eta, e) - rp) <= (
                1e-12 * size + 1e-15 * abs(lam))


def _tangent_multipliers(res, e):
    """(lam, eta) with R(e) = R'(e) = 0: the line touches G = g / delta_f."""
    df, g, dfp, gp = (float(v[0]) for v in _fields(res, np.array([e])))
    G = g / df
    lam = (gp - G * dfp) / df
    return lam, G - lam * e


def _reference_boxcar(res, m, x):
    """Sign scan on the sorted energies x, with brentq on each sign change;
    tails as in the solver."""
    ws = _workspace(res)
    r = residual(res, m, x)
    roots = [
        brentq(lambda e: residual(res, m, e), x[i], x[i + 1], xtol=1e-13)
        for i in np.nonzero(np.sign(r[:-1]) * np.sign(r[1:]) < 0.0)[0]
    ]
    left_in = _tail_included(ws, m.lam, m.eta, -1)
    right_in = _tail_included(ws, m.lam, m.eta, +1)
    if left_in != (r[0] < 0.0):
        roots.insert(0, _find_tail_root(ws, m.lam, m.eta, -1, x[0], r[0], 1e-12))
    if right_in != (r[-1] < 0.0):
        roots.append(_find_tail_root(ws, m.lam, m.eta, +1, x[-1], r[-1], 1e-12))
    bounds = [-INF] + roots + [INF]
    inside = left_in
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if inside:
            out.append((a, b))
        inside = not inside
    return BoxcarSet(tuple(out))


@pytest.mark.parametrize(
    "res",
    [
        ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5),  # FIG2
        ReservoirPair.from_temperatures(1.0, 0.2, 0.1, 0.6),  # FIG3G
        ReservoirPair(4.0, 0.3, -0.5, 1.5),
        ReservoirPair(1.3, 1.3, -0.7, 0.9),
    ],
    ids=["fig2", "fig3g", "unequal", "equal-beta"],
)
def test_tangency_fuzz(res, rng):
    # multipliers just off a tangency of the line with G, in the core and in
    # both tails: shifting eta by 1e-6..1e-2 relative either opens a dip
    # narrower than the grid or lifts R clear of zero; lam = 0 cases put
    # eta just off G at the same point
    ws = _workspace(res)
    # the reference scan is 64 times denser than the solver's grid
    dense = np.linspace(ws.nodes[0], ws.nodes[-1], 64 * ws.nodes.size)
    core_lo, core_hi = _hull(res, _CORE_X)
    stars = np.concatenate([
        rng.uniform(core_lo, core_hi, 6),
        rng.uniform(ws.scan_lo, core_lo, 3),
        rng.uniform(core_hi, ws.scan_hi, 3),
    ])
    for e in stars:
        if abs(e - ws.eps0) < 0.2 / ws.beta_max:
            continue  # G has its pole at eps0
        lam, eta = _tangent_multipliers(res, e)
        G = lam * e + eta
        w = 0.25 / ws.beta_max
        x = np.sort(np.concatenate([dense, np.linspace(e - w, e + w, 4001)]))
        for rel in np.outer((-1.0, 1.0), (1e-6, 1e-4, 1e-2)).ravel():
            for m in (
                Multipliers(lam, eta + rel * max(abs(eta), 1e-3)),
                Multipliers(0.0, G * (1.0 + rel)),
            ):
                B = solve_boxcar(res, m)
                ref = _reference_boxcar(res, m, x)
                assert B.signature() == ref.signature(), (e, m, B, ref)
                for u, v in zip(B.finite_endpoints(), ref.finite_endpoints()):
                    # where R is flat the rounding of R alone moves a root
                    # by ~eps g / |R'|, for the solver and the reference
                    # alike; past the underflow horizon both vanish
                    slope = abs(_rprime_scalar(res, m.lam, m.eta, v))
                    noise = 16.0 * 2.2e-16 * g_noise(res, v) / slope if slope else INF
                    assert abs(u - v) <= 1e-9 + noise, (e, m, u, v)


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


def test_integrals_empty():
    res = ReservoirPair(1.0, 2.0, 0.0, 0.5)
    assert boxcar_integrals(res, BoxcarSet(())) == (0.0, 0.0, 0.0)


def test_integrals_full_line_equal_beta():
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    I, J, V = boxcar_integrals(res, BoxcarSet(((-INF, INF),)))
    assert I == pytest.approx(-2.0, abs=1e-12)
    assert V == pytest.approx(2.0, rel=1e-10)  # 2 / beta
    assert J == pytest.approx(0.0, abs=1e-10)


def test_integrals_degenerate_width(fig2_res):
    vals = []
    for w in (1e-2, 1e-4, 1e-6):
        I, J, V = boxcar_integrals(fig2_res, BoxcarSet(((1.0, 1.0 + w),)))
        vals.append((abs(I), abs(J), abs(V)))
    assert vals[0] > vals[1] > vals[2]
    assert all(v < 1e-5 for v in vals[2])


def test_integrals_finite_at_far_tail_roots(fig2_res):
    # at tiny lam the tail roots sit near -eta/lam, past 1e154, where the
    # squares of the endpoints overflow; the tails carry no measure, so the
    # moments are those of the middle interval alone
    B = solve_boxcar(fig2_res, Multipliers(5.59376e-155, -0.38))
    assert B.signature() == (3, True, True)
    assert abs(B.intervals[0][1]) > 1e154 and B.intervals[2][0] > 1e154
    got = boxcar_integrals(fig2_res, B)
    assert all(math.isfinite(v) for v in got)
    middle = boxcar_integrals(fig2_res, BoxcarSet(B.intervals[1:2]))
    assert got == pytest.approx(middle, rel=1e-12, abs=0.0)


def test_overflowing_tail_hint_gives_the_horizon():
    # the line meets the tail limit of g/delta_f at (G - eta)/lam, which
    # overflows here; the tail root is put at the underflow horizon, beyond
    # which no measure is representable
    res = ReservoirPair(1.0, 1.0, -0.025, 0.025)
    B = solve_boxcar(res, Multipliers(9.594e-190, 5.51e119))
    assert B.signature() == (1, True, False)
    assert B.intervals[0][1] == pytest.approx(_workspace(res).horizon_lo, rel=1e-12)
    for v in boxcar_integrals(res, B):
        assert math.isfinite(v) and abs(v) < 1e-300


def test_j_dominated_by_eps0_identity(fig2_res, rng):
    # J - eps0 I = integral of (eps - eps0) delta_f >= 0 pointwise
    e0 = epsilon_zero(fig2_res)
    from conftest import random_boxcar

    for _ in range(10):
        B = random_boxcar(rng, fig2_res)
        I, J, _ = boxcar_integrals(fig2_res, B)
        assert J - e0 * I >= -1e-10


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------


def test_jacobian_empty_is_zero(fig2_res):
    jac = multiplier_jacobian(fig2_res, Multipliers(0.0, 0.0), BoxcarSet(()))
    assert np.array_equal(jac, np.zeros((2, 2)))


def _random_regular_case(rng):
    while True:
        res = random_reservoir(rng)
        m = Multipliers(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
        try:
            B = solve_boxcar(res, m)
        except Exception:
            continue
        if B.is_empty or B.signature() == (1, True, True):
            continue
        try:
            multiplier_jacobian(res, m, B, derivative_floor=1e-6)
        except NearBifurcationError:
            continue
        return res, m, B


def _fd_jacobian(res, m, h_eta, h_lam):
    def IJ(lam, eta):
        B = solve_boxcar(res, Multipliers(lam, eta))
        I, J, _ = boxcar_integrals(res, B)
        return np.array([I, J])

    col_eta = (IJ(m.lam, m.eta + h_eta) - IJ(m.lam, m.eta - h_eta)) / (2 * h_eta)
    col_lam = (IJ(m.lam + h_lam, m.eta) - IJ(m.lam - h_lam, m.eta)) / (2 * h_lam)
    return np.column_stack([col_eta, col_lam])


def test_jacobian_matches_finite_differences(rng):
    for _ in range(20):
        res, m, B = _random_regular_case(rng)
        jac = multiplier_jacobian(res, m, B)
        h = 1e-5 * max(1.0, abs(m.lam), abs(m.eta))
        fd = _fd_jacobian(res, m, h, h)
        scale = np.abs(jac).max()
        assert np.allclose(jac, fd, rtol=1e-4, atol=1e-4 * scale)
        assert jac[0, 1] == jac[1, 0]  # symmetric off-diagonal
        assert jac[0, 0] > 0.0  # dI/deta
        assert jac[1, 1] > 0.0  # dJ/dlam


def test_jacobian_derivative_floor(fig2_res):
    # the implicit-function-theorem weights are refused when |R'| at an
    # endpoint falls below the floor (double-root hypothesis failure)
    m = Multipliers(-8.0, 11.2)
    B = solve_boxcar(fig2_res, m)
    assert not B.is_empty
    multiplier_jacobian(fig2_res, m, B)  # fine at the default floor
    with pytest.raises(NearBifurcationError):
        multiplier_jacobian(fig2_res, m, B, derivative_floor=1e6)


def test_monotonicity_along_multipliers(fig2_res):
    # I nondecreasing in eta at fixed lam; J nondecreasing in lam at fixed eta
    lam = 0.7
    Is = []
    for eta in np.linspace(-4.0, 4.0, 33):
        B = solve_boxcar(fig2_res, Multipliers(lam, float(eta)))
        Is.append(boxcar_integrals(fig2_res, B)[0])
    assert all(b - a >= -1e-11 for a, b in zip(Is[:-1], Is[1:]))

    eta = 1.3
    Js = []
    for lam in np.linspace(-4.0, 4.0, 33):
        B = solve_boxcar(fig2_res, Multipliers(float(lam), eta))
        _, J, _ = boxcar_integrals(fig2_res, B)
        Js.append(J)
    assert all(b - a >= -1e-9 for a, b in zip(Js[:-1], Js[1:]))
