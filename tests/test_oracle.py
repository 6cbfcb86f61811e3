"""Discrete concave-program oracle: cells, enumeration, verification."""

import math

import numpy as np
import pytest

from turbox import (
    FeasibilityError,
    ReservoirPair,
    ValidationError,
    boxcar_defect,
    discretize,
    mass_window,
    solve_discrete,
    solve_multipliers,
    verify,
)
from turbox.oracle import _q_of, g_total_mass, snap_boxcar
from conftest import random_interior_target

FIG3G = ReservoirPair.from_temperatures(1.0, 0.2, 0.1, 0.6)


def test_mass_window_coverage(fig2_res):
    from turbox.physics import interval_moments

    for frac in (1e-6, 1e-8):
        lo, hi = mass_window(fig2_res, frac)
        total = g_total_mass(fig2_res)
        missing = (interval_moments(fig2_res, hi, math.inf)[2]
                   + interval_moments(fig2_res, -math.inf, lo)[2])
        assert missing <= frac * total * 1.0001


def test_discretize_cells(fig2_res):
    w = mass_window(fig2_res)
    cells = discretize(fig2_res, w, 12)
    assert cells.n_cells == 12
    assert all(a > 0.0 for a in cells.A)
    assert all(d >= 0.0 for d in cells.D)
    # sum of B equals the window current from the exact antiderivatives
    from turbox.physics import interval_moments

    assert sum(cells.B) == pytest.approx(
        interval_moments(fig2_res, w[0], w[1])[0],
        abs=1e-12,
    )


def test_discretize_odd_symmetry():
    # mu_L = mu_R: delta_f is odd about eps0 = 0, so the two halves of a
    # symmetric 2-cell window carry opposite currents
    res = ReservoirPair.from_temperatures(2.0, 1.0, 0.0, 0.0)
    cells = discretize(res, (-12.0, 12.0), 2)
    assert cells.B[0] == pytest.approx(-cells.B[1], abs=1e-12)
    assert cells.A[0] == pytest.approx(cells.A[1], rel=1e-10)


def test_discretize_refinement_additivity(fig2_res):
    w = mass_window(fig2_res)
    c6 = discretize(fig2_res, w, 6)
    c12 = discretize(fig2_res, w, 12)
    for name in "ABCD":
        assert sum(getattr(c6, name)) == pytest.approx(
            sum(getattr(c12, name)), abs=1e-12
        )


def test_discretize_zero_measure_window(fig2_res):
    cells = discretize(fig2_res, (1.0, 1.0), 4)
    assert all(v == 0.0 for v in cells.A + cells.B + cells.C + cells.D)


def test_discretize_validation(fig2_res):
    with pytest.raises(ValidationError):
        discretize(fig2_res, (1.0, 0.0), 4)
    with pytest.raises(ValidationError):
        discretize(fig2_res, (0.0, 1.0), 1)


def test_solve_discrete_zero_target(fig2_res):
    cells = discretize(fig2_res, mass_window(fig2_res), 8)
    d = solve_discrete(cells, 0.0, 0.0)
    assert d.Q == pytest.approx(0.0, abs=1e-12)
    assert d.L == pytest.approx(0.0, abs=1e-12)
    assert all(t == 0.0 for t in d.tau)


def _aligned_cells(res, sol):
    # window whose cell edges include both endpoints of a compact optimum
    a, b = sol.boxcar.intervals[0]
    w = mass_window(res, 1e-6)
    width = b - a
    n_lo = int(math.ceil((a - w[0]) / width))
    n_hi = int(math.ceil((w[1] - b) / width))
    window = (a - n_lo * width, b + n_hi * width)
    N = n_lo + 1 + n_hi
    assert N <= 16
    return discretize(res, window, N), window, N


def test_solve_discrete_grid_aligned_boxcar(fig2_res):
    # align the grid with a continuous optimal boxcar (a compact
    # interval, so nothing is clipped at the window): the binary pattern is
    # then the discrete optimizer and Q* = sum of A over it
    I, J = 0.09, 0.2
    sol = solve_multipliers(fig2_res, I, J)
    assert sol.boxcar.signature() == (1, False, False)
    cells, window, N = _aligned_cells(fig2_res, sol)
    d = solve_discrete(cells, sol.I, sol.J)
    tau = np.asarray(d.tau)
    expected = snap_boxcar(cells, sol.boxcar)
    assert np.allclose(tau, expected, atol=1e-6)
    on = tau > 0.5
    assert d.Q == pytest.approx(float(np.sum(np.asarray(cells.A)[on])), rel=1e-6)


def test_q_vs_l_gap_bounded(fig2_res, rng):
    # Q* >= L*, and Q* <= L* + defect of the linear optimizer (the
    # continuum identity Q = L holds up to the fractional-cell defect)
    w = mass_window(fig2_res)
    cells = discretize(fig2_res, w, 12)
    for _ in range(20):
        I, J = random_interior_target(rng, fig2_res, margin=0.15)
        try:
            d = solve_discrete(cells, I, J)
        except FeasibilityError:
            continue
        assert d.Q >= d.L - 1e-10
        assert d.Q <= d.L + boxcar_defect(cells, d.tau_linear) + 1e-10


def test_at_most_two_fractional(fig2_res, rng):
    cells = discretize(fig2_res, mass_window(fig2_res), 10)
    seen = 0
    while seen < 15:
        I, J = random_interior_target(rng, fig2_res, margin=0.1)
        try:
            d = solve_discrete(cells, I, J)
        except FeasibilityError:
            continue
        assert d.n_fractional <= 2
        ftol = 1e-9
        frac_l = sum(1 for t in d.tau_linear if ftol < t < 1 - ftol)
        assert frac_l <= 2
        seen += 1


def test_discrete_minimum_dominates_random_feasible(fig2_res, rng):
    # Q* <= Q(tau) for 1000 random feasible tau (projected onto the two
    # equality constraints by solving for a random coordinate pair)
    cells = discretize(fig2_res, mass_window(fig2_res), 10)
    A, B, C, D = cells.arrays()
    I0, J0 = random_interior_target(rng, fig2_res, margin=0.2)
    d = solve_discrete(cells, I0, J0)
    n = cells.n_cells
    accepted = 0
    tries = 0
    while accepted < 1000 and tries < 40000:
        tries += 1
        tau = rng.uniform(0.0, 1.0, size=n)
        i, j = rng.choice(n, size=2, replace=False)
        keep = np.ones(n, bool)
        keep[[i, j]] = False
        det = B[i] * C[j] - B[j] * C[i]
        if abs(det) < 1e-12:
            continue
        rI = I0 - float(B[keep] @ tau[keep])
        rJ = J0 - float(C[keep] @ tau[keep])
        ti = (rI * C[j] - rJ * B[j]) / det
        tj = (B[i] * rJ - C[i] * rI) / det
        if not (0.0 <= ti <= 1.0 and 0.0 <= tj <= 1.0):
            continue
        tau[i], tau[j] = ti, tj
        accepted += 1
        assert d.Q <= _q_of(A, D, tau) + 1e-10
    assert accepted == 1000


def test_boxcar_defect_controls_near_optima(fig2_res, rng):
    # Q = L + defect, so any tau with Q(tau) <= Q* + delta has
    # defect <= delta + (Q* - L*): near-optimal transmissions are nearly
    # boxcars
    cells = discretize(fig2_res, mass_window(fig2_res), 10)
    A, B, C, D = cells.arrays()
    I0, J0 = random_interior_target(rng, fig2_res, margin=0.2)
    d = solve_discrete(cells, I0, J0)
    gap = d.Q - d.L
    assert boxcar_defect(cells, d.tau) <= gap + 1e-10
    n = cells.n_cells
    found = 0
    while found < 50:
        tau = rng.uniform(0.0, 1.0, size=n)
        i, j = rng.choice(n, size=2, replace=False)
        keep = np.ones(n, bool)
        keep[[i, j]] = False
        det = B[i] * C[j] - B[j] * C[i]
        if abs(det) < 1e-12:
            continue
        rI = I0 - float(B[keep] @ tau[keep])
        rJ = J0 - float(C[keep] @ tau[keep])
        ti = (rI * C[j] - rJ * B[j]) / det
        tj = (B[i] * rJ - C[i] * rI) / det
        if not (0.0 <= ti <= 1.0 and 0.0 <= tj <= 1.0):
            continue
        tau[i], tau[j] = ti, tj
        delta = _q_of(A, D, tau) - d.Q
        assert boxcar_defect(cells, tau) <= delta + gap + 1e-9
        found += 1


def test_lp_beyond_exhaustive_cap(fig2_res):
    cells = discretize(fig2_res, mass_window(fig2_res), 20)
    d = solve_discrete(cells, 0.01, 0.05)
    assert d.mode == "lp"
    assert d.Q >= d.L - 1e-12


def _lp(cells, I, J):
    from turbox.oracle import _solve_lp

    return _solve_lp(cells, *cells.arrays(), I, J)


def test_lp_agrees_with_exhaustive(fig2_res, rng):
    cells = discretize(fig2_res, mass_window(fig2_res), 12)
    for _ in range(5):
        I, J = random_interior_target(rng, fig2_res, margin=0.15)
        try:
            dx = solve_discrete(cells, I, J)
        except FeasibilityError:
            continue
        assert dx.mode == "exhaustive"
        dl = _lp(cells, I, J)
        assert dl.L == pytest.approx(dx.L, rel=1e-9, abs=1e-11)


def test_infeasible_polytope_target(fig2_res):
    cells = discretize(fig2_res, mass_window(fig2_res), 8)
    with pytest.raises(FeasibilityError):
        solve_discrete(cells, 100.0, 0.0)
    with pytest.raises(FeasibilityError):
        _lp(cells, 100.0, 0.0)


def test_sandwich_against_continuous(fig2_res, rng):
    # the discrete optimum is a variance of an admissible transmission,
    # so it cannot undercut the continuous optimum
    for _ in range(3):
        I, J = random_interior_target(rng, fig2_res, margin=0.15)
        sol = solve_multipliers(fig2_res, I, J)
        try:
            d = solve_discrete(discretize(fig2_res, mass_window(fig2_res), 14), I, J)
        except FeasibilityError:
            continue
        assert d.Q >= sol.var_opt - 1e-8


def test_verify_report(fig2_res, rng):
    I, J = random_interior_target(rng, fig2_res, margin=0.2)
    rep = verify(fig2_res, I, J, N=12)
    assert rep["verdict"] == "PASS"
    assert set(rep["gaps"]) == {
        "Q_minus_continuous",
        "L_minus_continuous",
        "Q_minus_L",
        "snapped_minus_continuous",
    }
    assert rep["discrete_Q"] >= rep["continuous_var"] - 1e-8
    assert rep["snapped_var"] >= rep["continuous_var"] - 1e-8
    assert rep["N"] == 12 and rep["refined_N"] == 24
    assert abs(rep["gaps"]["Q_minus_continuous"]) <= rep["grid_error_bound"]


def test_verify_refinement_decay(fig2_res, rng):
    for _ in range(3):
        I, J = random_interior_target(rng, fig2_res, margin=0.2)
        sol_var = solve_multipliers(fig2_res, I, J).var_opt
        gaps = []
        w = mass_window(fig2_res)
        for N in (8, 12, 16):
            try:
                d = solve_discrete(discretize(fig2_res, w, N), I, J)
            except FeasibilityError:
                gaps = None
                break
            gaps.append(abs(d.Q - sol_var))
        if gaps is None:
            continue
        assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12


def test_grid_aligned_verify_small_gaps(fig2_res):
    # choose the window so the continuous optimal endpoints are cell edges
    I, J = 0.09, 0.2
    sol = solve_multipliers(fig2_res, I, J)
    cells, window, N = _aligned_cells(fig2_res, sol)
    rep = verify(fig2_res, sol.I, sol.J, N=N, window=window)
    assert rep["verdict"] == "PASS"
    assert abs(rep["gaps"]["snapped_minus_continuous"]) <= 1e-9
    assert abs(rep["gaps"]["Q_minus_continuous"]) <= 1e-8


def _reference_exhaustive(A, B, C, D, I0, J0):
    """The per-pair pattern-matrix enumeration: every binary pattern of
    the cells other than (i, j), no pruning.  Returns the feasible
    (i, j, pattern) set and the DiscreteSolution fields (tau, Q, tau_linear, L):
    each value the minimum over every feasible vertex, each tau the smallest
    tied tau tuple in Python's lexicographic order, or None for all four
    when nothing is feasible."""
    from turbox.oracle import _FEAS_TOL, _TIE_TOL

    N = len(A)
    m = N - 2
    patterns = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    scale_bc = max(np.abs(B).max(), np.abs(C).max(), 1e-300)
    feasible = set()
    q_vertices = []
    l_vertices = []
    idx_all = np.arange(N)
    for i in range(N):
        for j in range(i + 1, N):
            det = B[i] * C[j] - B[j] * C[i]
            if abs(det) < 1e-14 * scale_bc * scale_bc:
                continue
            others = idx_all[(idx_all != i) & (idx_all != j)]
            rI = I0 - patterns @ B[others]
            rJ = J0 - patterns @ C[others]
            ti = (rI * C[j] - rJ * B[j]) / det
            tj = (B[i] * rJ - C[i] * rI) / det
            ok = (
                (ti >= -_FEAS_TOL)
                & (ti <= 1.0 + _FEAS_TOL)
                & (tj >= -_FEAS_TOL)
                & (tj <= 1.0 + _FEAS_TOL)
            )
            if not ok.any():
                continue
            feasible.update((i, j, int(p)) for p in np.flatnonzero(ok))
            ti = np.clip(ti[ok], 0.0, 1.0)
            tj = np.clip(tj[ok], 0.0, 1.0)
            pat = patterns[ok]
            base_l = pat @ A[others]
            lvals = base_l + ti * A[i] + tj * A[j]
            qvals = (
                base_l
                + ti * (A[i] + D[i])
                - ti * ti * D[i]
                + tj * (A[j] + D[j])
                - tj * tj * D[j]
            )
            for k in range(len(pat)):
                tau = np.zeros(N)
                tau[others] = pat[k]
                tau[i] = ti[k]
                tau[j] = tj[k]
                q_vertices.append((float(qvals[k]), tuple(tau)))
                l_vertices.append((float(lvals[k]), tuple(tau)))
    if not feasible:
        return feasible, None, None, None, None

    def best(vertices):
        lo = min(v for v, _ in vertices)
        tol = _TIE_TOL * (1.0 + abs(lo))
        return min(tau for v, tau in vertices if v <= lo + tol), lo

    tau, Q = best(q_vertices)
    tau_l, L = best(l_vertices)
    return feasible, tau, Q, tau_l, L


def _exhaustive_cases():
    """Seeded (cells, I0, J0) cases: targets B.tau, C.tau of random tau on
    the reservoir's own grid, every tenth one infeasible, and two targets
    that leave light window-edge cells free to tie."""
    pairs = [
        ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5),
        FIG3G,
        ReservoirPair(4.0, 0.3, -0.5, 1.5),
        ReservoirPair(1.0, 1.0, -1.0, 1.0),
        ReservoirPair(2.0, 2.0, -0.25, 0.25),
    ]
    rng = np.random.default_rng(7)
    Ns = (2, 3) + tuple(range(6, 17))
    out = []
    for n_case in range(45):
        res = pairs[n_case % len(pairs)]
        N = Ns[n_case % len(Ns)]
        cells = discretize(res, mass_window(res), N)
        _, B, C, _ = cells.arrays()
        if n_case % 10 == 9:
            I0, J0 = 100.0, 0.0
        else:
            tau = rng.uniform(0.0, 1.0, size=N)
            I0, J0 = float(B @ tau), float(C @ tau)
        out.append((cells, I0, J0))
    # on a wide window the outer cells carry under 1e-12 of the mass, so
    # patterns that differ only there tie: 64 vertices at N = 12 and 256 at
    # N = 16, with more than eight ties in several pairs
    for N in (12, 16):
        cells = discretize(pairs[0], (-60.0, 60.0), N)
        _, B, C, _ = cells.arrays()
        tau = np.zeros(N)
        tau[N // 2 - 1: N // 2 + 1] = 1.0
        tau[N // 2 + 1] = 0.4
        out.append((cells, float(B @ tau), float(C @ tau)))
    return out


def test_exhaustive_matches_pattern_matrix_reference():
    from turbox.oracle import _vertices

    n_feasible = n_infeasible = 0
    for cells, I0, J0 in _exhaustive_cases():
        A, B, C, D = cells.arrays()
        feasible, tau, Q, tau_l, L = _reference_exhaustive(A, B, C, D, I0, J0)
        i, j, pat, _, _, _ = _vertices(A, B, C, I0, J0)
        assert set(zip(i.tolist(), j.tolist(), pat.tolist())) == feasible
        if tau is None:
            with pytest.raises(FeasibilityError):
                solve_discrete(cells, I0, J0)
            n_infeasible += 1
            continue
        d = solve_discrete(cells, I0, J0)
        assert d.mode == "exhaustive"
        assert d.Q == pytest.approx(Q, rel=1e-14, abs=1e-300)
        assert d.L == pytest.approx(L, rel=1e-14, abs=1e-300)
        assert np.allclose(d.tau, tau, rtol=0.0, atol=1e-12)
        assert np.allclose(d.tau_linear, tau_l, rtol=0.0, atol=1e-12)
        n_feasible += 1
    assert n_feasible >= 35 and n_infeasible >= 4


def test_wide_window_ties_yield_smallest_vertex(fig2_res):
    # on (-60, 60) the outer cells carry under 1e-12 of the mass, so 64
    # vertices tie for the quadratic optimum, more than eight of them in
    # several pairs; the returned tau is the smallest of all 64
    from turbox.oracle import _TIE_TOL, _others, _vertices

    N = 12
    cells = discretize(fig2_res, (-60.0, 60.0), N)
    A, B, C, D = cells.arrays()
    tau = np.zeros(N)
    tau[5:7] = 1.0
    tau[7] = 0.4
    I0, J0 = float(B @ tau), float(C @ tau)
    i, j, pat, ti, tj, _ = _vertices(A, B, C, I0, J0)
    taus = np.zeros((len(i), N))
    rows = np.arange(len(i))
    taus[rows[:, None], _others(i, j, N - 2)] = (pat[:, None] >> np.arange(N - 2)) & 1
    taus[rows, i] = ti
    taus[rows, j] = tj
    q = np.array([_q_of(A, D, t) for t in taus])
    tied = q <= q.min() + _TIE_TOL * (1.0 + abs(q.min()))
    assert tied.sum() == 64
    assert max(np.unique(i[tied] * N + j[tied], return_counts=True)[1]) > 8
    d = solve_discrete(cells, I0, J0)
    assert d.tau == min(tuple(t) for t in taus[tied])
    assert d.Q == pytest.approx(q.min(), rel=1e-14)


def test_mass_window_cache_matches_fresh_solve(fig2_res):
    mass_window.cache_clear()
    for res in (fig2_res, FIG3G):
        for frac in (1e-6, 1e-8):
            first = mass_window(res, frac)
            assert mass_window(res, frac) is first
            assert first == mass_window.__wrapped__(res, frac)
    assert mass_window.cache_info().hits == 4
