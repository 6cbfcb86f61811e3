"""Feasible-region geometry: bounds, boundary curves, bifurcations, topology."""

import math

import numpy as np
import pytest

from turbox import (
    BoxcarSet,
    ConvergenceError,
    FeasibilityError,
    Multipliers,
    ReservoirPair,
    bifurcation_curves,
    boxcar_integrals,
    classify_topology,
    compute_region_map,
    current_bounds,
    j_extrema,
    solve_boxcar,
    solve_multipliers,
)
from turbox import inverse

INF = math.inf

FIG3G = ReservoirPair.from_temperatures(1.0, 0.2, 0.1, 0.6)


def test_current_bounds_fig2(fig2_res):
    cb = current_bounds(fig2_res)
    assert cb.boxcar_min.intervals == ((-INF, 0.875),)
    assert cb.boxcar_max.intervals == ((0.875, INF),)
    assert cb.I_min < 0.0 < cb.I_max


def test_current_bounds_identical():
    cb = current_bounds(ReservoirPair(1.0, 1.0, 0.3, 0.3))
    assert cb.I_min == cb.I_max == 0.0


def test_current_bounds_equal_beta():
    # sign-definite delta_f: full transparency gives delta_mu, empty gives 0
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)  # mu_L < mu_R
    cb = current_bounds(res)
    assert cb.I_min == pytest.approx(res.delta_mu, abs=1e-12)
    assert cb.I_max == 0.0
    assert cb.boxcar_min.intervals == ((-INF, INF),)
    assert cb.boxcar_max.is_empty


def test_current_bounds_equal_temperature_symmetric():
    res = ReservoirPair.from_temperatures(2.0, 1.0, 0.0, 0.0)
    cb = current_bounds(res)
    # beta = (1/2, 1), mu = 0: each side integrates to ln 2
    assert cb.I_max == pytest.approx(math.log(2.0), abs=1e-12)
    assert cb.I_min == pytest.approx(-math.log(2.0), abs=1e-12)


def test_j_extrema_basic(fig2_res):
    cb = current_bounds(fig2_res)
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    assert ex.J_min < ex.J_max
    assert ex.var_min > 0.0 and ex.var_max > 0.0
    # the compact boxcar matches the requested current exactly
    for B in (ex.boxcar_min, ex.boxcar_max):
        assert boxcar_integrals(fig2_res, B)[0] == pytest.approx(I, abs=1e-12)
    # here T_L > T_R: J_min comes from the compact boxcar starting at eps0
    assert ex.boxcar_min.intervals[0][0] == pytest.approx(0.875, abs=1e-12)
    assert ex.boxcar_min.intervals[0][1] == pytest.approx(ex.eps1, abs=1e-12)
    # and J_max from the complementary shape
    assert ex.boxcar_max.signature() == (2, True, True)


def test_j_extrema_pinch_toward_imax(fig2_res):
    cb = current_bounds(fig2_res)
    gaps = []
    for f in (0.5, 0.9, 0.99, 0.999):
        ex = j_extrema(fig2_res, cb.I_min + f * (cb.I_max - cb.I_min))
        gaps.append(ex.J_max - ex.J_min)
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] < 0.05 * gaps[0]


def test_j_extrema_equal_beta_half_lines():
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    ex = j_extrema(res, -1.0)
    sigs = {ex.boxcar_min.signature(), ex.boxcar_max.signature()}
    assert sigs == {(1, True, False), (1, False, True)}


def test_j_extrema_out_of_range(fig2_res):
    cb = current_bounds(fig2_res)
    with pytest.raises(FeasibilityError):
        j_extrema(fig2_res, cb.I_max * 1.1)


def test_j_extrema_bounds_random_boxcars(fig2_res, rng):
    # 50 random boxcars adjusted to carry the same current stay inside
    # [J_min, J_max]; with draws anchored near eps0 the sample minimum also
    # reproduces J_min itself
    cb = current_bounds(fig2_res)
    I_t = 0.4 * cb.I_max
    ex = j_extrema(fig2_res, I_t)
    e0 = 0.875

    def adjusted_boxcar(a):
        # adjust the right endpoint by monotone bisection to match I_t
        lo, hi = a + 1e-9, 14.0
        f = lambda b: boxcar_integrals(fig2_res, BoxcarSet(((a, b),)))[0] - I_t
        if f(lo) * f(hi) > 0:
            return None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return BoxcarSet(((a, 0.5 * (lo + hi)),))

    sample_min = math.inf
    checked = 0
    anchors = [e0 + 1e-4, e0 + 1e-2, e0 + 0.05]
    while checked < 50:
        a = anchors.pop() if anchors else float(rng.uniform(e0, e0 + 2.5))
        B = adjusted_boxcar(a)
        if B is None:
            continue
        J = boxcar_integrals(fig2_res, B)[1]
        assert ex.J_min - 1e-8 <= J <= ex.J_max + 1e-8
        sample_min = min(sample_min, J)
        checked += 1
    assert sample_min == pytest.approx(ex.J_min, rel=1e-3)


def test_min_heat_boundary_variance(fig2_res):
    # var at (I, J_min + tiny) approaches the compact-boxcar variance
    cb = current_bounds(fig2_res)
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    sol = solve_multipliers(fig2_res, I, ex.J_min + 1e-8 * abs(ex.J_min))
    assert sol.var_opt == pytest.approx(ex.var_min, rel=1e-3)


# ---------------------------------------------------------------------------
# bifurcations
# ---------------------------------------------------------------------------


def test_btan_crossing_changes_interval_count():
    pts = [p for p in bifurcation_curves(FIG3G, z_grid=np.linspace(-3.0, 4.0, 41))
           if p.tag == "B_tan"]
    assert len(pts) >= 30
    exact_one = 0
    for p in pts:
        d = 1e-4 * (1.0 + abs(p.eta))
        c1 = solve_boxcar(FIG3G, Multipliers(p.lam, p.eta - d)).n_intervals
        c2 = solve_boxcar(FIG3G, Multipliers(p.lam, p.eta + d)).n_intervals
        assert abs(c1 - c2) <= 1
        exact_one += abs(c1 - c2) == 1
    assert exact_one >= 0.75 * len(pts)


def test_tangency_line_touches_g_ratio_exactly(fig2_res):
    # each B_tan row is the tangent of G = g/delta_f at its z: lam = G'(z)
    # and eta = G(z) - z G'(z), against 40-digit differentiation, out to
    # the far tail where G' is about 1e-14
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    res = fig2_res

    def G(e):
        fL = 1 / (mp.exp(res.beta_L * (e - res.mu_L)) + 1)
        fR = 1 / (mp.exp(res.beta_R * (e - res.mu_R)) + 1)
        return (fL * (1 - fL) + fR * (1 - fR)) / (fL - fR)

    z = np.array([-6.0, -2.5, -0.3, 0.4, 1.6, 4.0, 12.0, 31.8])
    pts = bifurcation_curves(res, z_grid=z, eta_grid=[0.0])
    tan = [p for p in pts if p.tag == "B_tan"]
    assert len(tan) == z.size
    for zi, p in zip(z, tan):
        d = mp.diff(G, mp.mpf(zi))
        assert abs(p.lam - float(d)) <= 1e-13 * max(1.0, abs(float(d))), (zi, p)
        eta = float(G(mp.mpf(zi)) - zi * d)
        assert abs(p.eta - eta) <= 1e-13 * max(1.0, abs(eta)), (zi, p)


def test_b0_crossing_toggles_one_endpoint_finiteness():
    # equal temperatures: the tail signs coincide, so between lam = 0 and a
    # half-crossing exactly one semi-infinite endpoint changes finiteness
    res = ReservoirPair(1.0, 1.0, -1.0, 1.0)
    for eta in (-1.2, -1.4, -2.0):
        s0 = solve_boxcar(res, Multipliers(0.0, eta)).signature()
        for lam in (-1e-3, 1e-3):
            s = solve_boxcar(res, Multipliers(lam, eta)).signature()
            flips = (s0[1] != s[1]) + (s0[2] != s[2])
            assert flips == 1, (eta, lam, s0, s)


def test_b0_crossing_unequal_beta_follows_tail_rule():
    # T_L > T_R: both tails belong to the boxcar for lam > 0 and neither
    # for lam < 0
    for eta in (0.0, 1.5, -1.5):
        s_plus = solve_boxcar(FIG3G, Multipliers(1e-3, eta)).signature()
        s_minus = solve_boxcar(FIG3G, Multipliers(-1e-3, eta)).signature()
        assert s_plus[1] and s_plus[2]
        assert not (s_minus[1] or s_minus[2])


def test_bifurcation_rows_have_mapped_currents():
    pts = bifurcation_curves(FIG3G, z_grid=np.linspace(-2.0, 3.0, 15),
                             eta_grid=np.linspace(-1.5, 1.5, 7))
    tags = {p.tag for p in pts}
    assert tags == {"B_tan", "B_0"}
    cb = current_bounds(FIG3G)
    for p in pts:
        assert cb.I_min - 1e-9 <= p.I <= cb.I_max + 1e-9
        if p.tag == "B_0":
            assert p.lam == 0.0


# ---------------------------------------------------------------------------
# topology classification
# ---------------------------------------------------------------------------


def test_classify_center_single_compact():
    res = ReservoirPair.from_temperatures(2.0, 1.0, 0.0, 0.0)
    cb = current_bounds(res)
    I = 0.5 * (cb.I_min + cb.I_max) + 0.25 * (cb.I_max - cb.I_min)
    ex = j_extrema(res, I)
    J = ex.J_min + 0.25 * (ex.J_max - ex.J_min)
    assert classify_topology(res, I, J) == (1, False, False)


def test_classify_three_interval_point():
    assert classify_topology(
        FIG3G, -0.6057763255727289, 0.49555589852281245
    ) == (3, True, True)


def test_classify_near_min_heat_boundary(fig2_res):
    cb = current_bounds(fig2_res)
    I = cb.I_max / 2.0
    ex = j_extrema(fig2_res, I)
    sig = classify_topology(fig2_res, I, ex.J_min + 1e-6 * abs(ex.J_min))
    assert sig == (1, False, False)


def test_region_map_structure_and_partition():
    rm = compute_region_map(FIG3G, n_boundary=12, n_topology=(16, 16), tol=1e-5)
    assert rm.i_range[0] < rm.i_range[1]
    assert len(rm.boundary) == 12
    for I, J_min, J_max, eps1 in rm.boundary:
        assert J_min <= J_max
    # every sample inside its boundary column
    for I, J, count, li, ri in rm.topology:
        ex = j_extrema(FIG3G, I)
        assert ex.J_min - 1e-9 <= J <= ex.J_max + 1e-9
        assert count >= 1
    # the bifurcation curves split the region into >= 4 connected
    # same-signature components
    from collections import defaultdict

    cols = defaultdict(list)
    for I, J, c, li, ri in rm.topology:
        cols[I].append((J, (c, li, ri)))
    grid = {}
    for ix, I in enumerate(sorted(cols)):
        for jx, (J, s) in enumerate(sorted(cols[I])):
            grid[(ix, jx)] = s
    seen = set()
    comps = 0
    for cell, sig in grid.items():
        if cell in seen:
            continue
        comps += 1
        stack = [cell]
        while stack:
            c0 = stack.pop()
            if c0 in seen:
                continue
            seen.add(c0)
            x, y = c0
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in grid and nb not in seen and grid[nb] == sig:
                    stack.append(nb)
    assert comps >= 4


def test_signature_changes_sit_near_bifurcation_curves():
    # no signature change without crossing a mapped curve, up to resolution
    rm = compute_region_map(FIG3G, n_boundary=12, n_topology=(20, 20), tol=1e-5)
    from collections import defaultdict

    cols = defaultdict(list)
    for I, J, c, li, ri in rm.topology:
        cols[I].append((J, (c, li, ri)))
    i_vals = sorted(cols)
    curve = [(p.I, p.J) for p in rm.bifurcations]
    cx = np.array([c[0] for c in curve])
    cy = np.array([c[1] for c in curve])
    d_i = i_vals[1] - i_vals[0]
    violations = 0
    checks = 0
    for I in i_vals:
        col = sorted(cols[I])
        d_j = col[1][0] - col[0][0] if len(col) > 1 else 1.0
        for (J1, s1), (J2, s2) in zip(col[:-1], col[1:]):
            if s1 == s2:
                continue
            checks += 1
            mid = 0.5 * (J1 + J2)
            dist = np.sqrt(((cx - I) / d_i) ** 2 + ((cy - mid) / d_j) ** 2)
            if dist.min() > 2.5:
                violations += 1
    assert checks > 0
    assert violations <= max(1, 0.1 * checks)


def test_region_map_export(tmp_path):
    rm = compute_region_map(FIG3G, n_boundary=6, n_topology=(6, 6), tol=1e-4)
    out = tmp_path / "region"
    rm.write_csv_dir(out)
    names = {p.name for p in out.iterdir()}
    assert names == {"boundary.csv", "bifurcations.csv", "topology.csv", "region.json"}
    header = (out / "boundary.csv").read_text().splitlines()[0]
    assert header == "I,J_min,J_max,eps1"
    header = (out / "bifurcations.csv").read_text().splitlines()[0]
    assert header == "tag,lambda,eta,I,J"
    header = (out / "topology.csv").read_text().splitlines()[0]
    assert header == "I,J,count,left_inf,right_inf"
    import json

    bundle = json.loads((out / "region.json").read_text())
    assert set(bundle) == {"i_range", "boundary", "bifurcations", "topology", "notes"}


def test_region_map_skips_unconverged_targets(monkeypatch):
    # a target whose inverse solve misses its tolerance is left out and
    # counted; the note is absent when nothing is skipped
    args = dict(n_boundary=4, n_topology=(3, 4))
    clean = compute_region_map(FIG3G, **args)
    assert "skipped_targets" not in clean.notes
    real = inverse.solve_multipliers
    calls = []

    def fails_once(*a, **kw):
        calls.append(None)
        if len(calls) == 2:
            raise ConvergenceError("missed", estimate=None)
        return real(*a, **kw)

    monkeypatch.setattr(inverse, "solve_multipliers", fails_once)
    rm = compute_region_map(FIG3G, **args)
    assert rm.notes["skipped_targets"] == 1
    assert len(rm.topology) == len(clean.topology) - 1
