"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with -s (or read captured output) to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from turbox import (
    BoxcarSet,
    BoxcarTransmission,
    FeasibilityError,
    LinearResponseFrame,
    Multipliers,
    ReservoirPair,
    boxcar_defect,
    boxcar_integrals,
    compute_region_map,
    currents,
    current_bounds,
    delta_f,
    discretize,
    epsilon_zero,
    fano_sweep,
    fermi,
    g_noise,
    j_extrema,
    linear_tur_bound,
    mass_window,
    multiplier_jacobian,
    optimal_variance,
    solve_boxcar,
    solve_multipliers,
    summary,
    variance,
)
from turbox.errors import NearBifurcationError
from turbox.oracle import grid_error_bound, solve_discrete
from conftest import random_reservoir, random_tabulated

FIG2 = ReservoirPair.from_temperatures(1.0, 0.2, -1.0, 0.5)
FIG3G = ReservoirPair.from_temperatures(1.0, 0.2, 0.1, 0.6)


def _finish(num, name, failures, elapsed, budget):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} "
          f"[{elapsed:.1f}s / {budget}s]")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_fig4_reproduction():
    failures = []
    t0 = time.time()
    rows = fano_sweep(Gamma=0.1, Omega=0.05, omega=0.0, beta=1.0)
    model = np.array([r["fano_model_scaled"] for r in rows])
    opt = np.array([r["fano_opt_scaled"] for r in rows])
    dmu = np.array([r["dmu"] for r in rows])

    if not (model < 2.0).any():
        failures.append("model scaled Fano never dips below 2")
    m = float(model.min())
    if not 1.76 <= m <= 1.96:
        failures.append(f"model sweep minimum {m:.4f} outside [1.76, 1.96]")
    if not np.all(np.diff(opt) <= 1e-6):
        failures.append("optimal scaled Fano not monotonically nonincreasing")
    first = float(opt[np.argmin(dmu)])
    if abs(first - 2.0) > 0.02 * 2.0:
        failures.append(f"optimal scaled Fano at dmu=0.05 is {first:.4f}, not 2 +-2%")
    last = float(opt[np.argmax(dmu)])
    if not last < 0.5:
        failures.append(f"optimal scaled Fano at largest bias is {last:.4f} >= 0.5")
    _finish(1, "Fig. 4 reproduction", failures, time.time() - t0, 60.0)


def test_criterion_2_linear_response_bound():
    failures = []
    t0 = time.time()

    # delta_beta = 0, delta_mu = 1e-2: the nonlinear ratio equals 2
    dmu = 1e-2
    res = ReservoirPair(1.0, 1.0, -dmu / 2.0, dmu / 2.0)
    B = BoxcarSet(((-1.0, 1.0),))
    s = summary(BoxcarTransmission(B), res, abstol=1e-13, reltol=1e-11)
    ratio0 = s.var_I * s.sigma / (s.I * s.I)
    if abs(ratio0 - 2.0) > 0.005 * 2.0:
        failures.append(f"equal-temperature nonlinear ratio {ratio0:.5f} != 2 +-0.5%")

    # delta_beta = delta_beta_mu = 1e-2: matches the expansion, exceeds 2
    frame = LinearResponseFrame(beta=1.0, mu=0.0, d_beta=1e-2, d_beta_mu=1e-2)
    B2 = BoxcarSet(((-1.0, 2.0),))
    lin = linear_tur_bound(frame, B2)
    s2 = summary(BoxcarTransmission(B2), frame.to_reservoirs(),
                 abstol=1e-13, reltol=1e-11)
    ratio2 = s2.var_I * s2.sigma / (s2.I * s2.I)
    if abs(ratio2 - lin.ratio) > 0.01 * abs(ratio2):
        failures.append(
            f"nonlinear {ratio2:.5f} vs expansion {lin.ratio:.5f} differ by >1%"
        )
    if not ratio2 > 2.0:
        failures.append(f"nonlinear ratio {ratio2:.5f} does not exceed 2")
    _finish(2, "linear-response bound", failures, time.time() - t0, 10.0)


def test_criterion_3_oracle_equivalence():
    # The discrete oracle brackets the continuous optimum from above.  A
    # transmission constant on the cells of a grid is itself a feasible
    # transmission, so no discrete optimum Q_N can fall below var_opt.
    #
    # The gap Q_N - var_opt shrinks under refinement only when one grid
    # refines the other.  The cells are uniform on the shared mass_window,
    # so the 16 cells split each of the 8 cells in two: every transmission
    # constant on the 8 cells is also constant on the 16 cells, and
    # Q_16 <= Q_8 holds exactly.  The 12-cell grid is refined by neither
    # (its edges at k/12 of the window are not edges of the 8- or 16-cell
    # grid), so Q_12 may land on either side of Q_8 and Q_16; on these
    # targets it does, e.g. gaps [0.35085, 0.35092, 0.33620] for N = 8, 12,
    # 16.  Q_12 is therefore held to the lower bound and the Q - L defect
    # bound only.
    failures = []
    t0 = time.time()
    rng = np.random.default_rng(11)
    param_sets = [(2.0, 1.0, 0.0, 0.0), (1.0, 1.0, -1.0, 1.0), (1.0, 0.2, 0.1, 0.6)]
    for temps in param_sets:
        res = ReservoirPair.from_temperatures(*temps)
        window = mass_window(res)
        cells_by_n = {N: discretize(res, window, N) for N in (8, 12, 16)}
        cb = current_bounds(res)
        span = cb.I_max - cb.I_min
        done = 0
        tries = 0
        while done < 10 and tries < 400:
            tries += 1
            I = float(rng.uniform(cb.I_min + 0.1 * span, cb.I_max - 0.1 * span))
            ex = j_extrema(res, I)
            width = ex.J_max - ex.J_min
            J = float(rng.uniform(ex.J_min + 0.1 * width, ex.J_max - 0.1 * width))
            try:
                discs = {N: solve_discrete(cells_by_n[N], I, J) for N in (8, 12, 16)}
            except FeasibilityError:
                continue  # target outside the coarse cell polytope
            sol = solve_multipliers(res, I, J)
            gaps = {N: discs[N].Q - sol.var_opt for N in (8, 12, 16)}
            for N in (8, 12, 16):
                if gaps[N] < -1e-10:
                    failures.append(
                        f"{temps}: N={N} discrete optimum {discs[N].Q:.6e} "
                        f"below the continuous {sol.var_opt:.6e} at target "
                        f"({I:.4f}, {J:.4f})"
                    )
            if discs[16].Q > discs[8].Q + 1e-12:
                failures.append(
                    f"{temps}: nested refinement raised the discrete optimum "
                    f"(Q_8 = {discs[8].Q:.6e}, Q_16 = {discs[16].Q:.6e}) at "
                    f"target ({I:.4f}, {J:.4f})"
                )
            bound = grid_error_bound(cells_by_n[16], sol.boxcar)
            if gaps[16] > bound:
                failures.append(
                    f"{temps}: N=16 gap {gaps[16]:.3e} exceeds grid bound "
                    f"{bound:.3e} at ({I:.4f}, {J:.4f})"
                )
            for N in (8, 12, 16):
                d = discs[N]
                defect = boxcar_defect(cells_by_n[N], d.tau_linear)
                if not -1e-10 <= d.Q - d.L <= defect + 1e-10:
                    failures.append(
                        f"{temps}: N={N} Q-L gap {d.Q - d.L:.3e} outside "
                        f"[0, fractional-cell defect {defect:.3e}]"
                    )
            done += 1
        if done < 10:
            failures.append(f"{temps}: only {done} discrete-feasible targets found")
    _finish(3, "oracle equivalence", failures, time.time() - t0, 300.0)


def test_criterion_4_jacobian_monotonicity():
    failures = []
    t0 = time.time()
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        res = random_reservoir(rng)
        m = Multipliers(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
        try:
            B = solve_boxcar(res, m)
        except Exception:
            continue
        if B.is_empty or B.signature() == (1, True, True):
            continue
        try:
            jac = multiplier_jacobian(res, m, B, derivative_floor=1e-6)
        except NearBifurcationError:
            continue

        h = 1e-5 * max(1.0, abs(m.lam), abs(m.eta))

        def IJ(lam, eta):
            bb = solve_boxcar(res, Multipliers(lam, eta))
            I, J, _ = boxcar_integrals(res, bb)
            return np.array([I, J])

        fd = np.column_stack([
            (IJ(m.lam, m.eta + h) - IJ(m.lam, m.eta - h)) / (2 * h),
            (IJ(m.lam + h, m.eta) - IJ(m.lam - h, m.eta)) / (2 * h),
        ])
        scale = max(np.abs(jac).max(), 1e-300)
        rel = np.abs(jac - fd).max() / scale
        if rel > 1e-4:
            failures.append(
                f"Jacobian mismatch {rel:.2e} at {res} {m} {B.signature()}"
            )
        if not (jac[0, 0] > 0.0 and jac[1, 1] > 0.0):
            failures.append(f"diagonal not positive at {res} {m}")
        checked += 1
    _finish(4, "Jacobian vs finite differences", failures, time.time() - t0, 30.0)


def test_criterion_5_boundary_compact_boxcar():
    # Near J_min(I) the optimum approaches the compact boxcar [eps0, eps1]
    # through a boundary layer at eps0.  Since delta_f(eps0) = 0, moving the
    # left endpoint inward by s (and the right one out to keep I) raises J
    # only at second order,
    #     delta = J - J_min ~ (eps1 - eps0) * delta_f'(eps0) * s^2 / 2,
    # while the variance drops at first order, V_min - var_opt ~ g(eps0) s.
    # Both the endpoint offset and the variance gap therefore grow like
    # sqrt(delta): at a relative inset of 1e-3 the true optimum sits ~2e-2
    # from eps0, and only near an inset of 1e-7 do both come within 1e-3.
    # The two ratios to the leading-order law carry O(s) corrections, so
    # they are held within 2 sqrt(inset) of 1.  tol=1e-12 keeps the
    # solver's J residual a negligible share of delta: at the default 1e-8
    # the allowed 5.4e-10 is a visible part of delta ~ 8e-9 at inset 1e-7.
    failures = []
    t0 = time.time()
    cb = current_bounds(FIG2)
    I = cb.I_max / 2.0
    ex = j_extrema(FIG2, I)
    e0 = epsilon_zero(FIG2)
    (_, e1), = ex.boxcar_min.intervals
    f_L = fermi(FIG2.beta_L, FIG2.mu_L, e0)
    f_R = fermi(FIG2.beta_R, FIG2.mu_R, e0)
    dfp0 = -FIG2.beta_L * f_L * (1.0 - f_L) + FIG2.beta_R * f_R * (1.0 - f_R)
    g0 = g_noise(FIG2, e0)
    for inset in (1e-3, 1e-5, 1e-7):
        J = ex.J_min + inset * abs(ex.J_min)
        sol = solve_multipliers(FIG2, I, J, tol=1e-12)
        if sol.boxcar.signature() != (1, False, False):
            failures.append(
                f"inset {inset:.0e}: expected a single compact interval, "
                f"got {sol.boxcar}"
            )
            continue
        left = sol.boxcar.intervals[0][0]
        if not left > e0:
            failures.append(
                f"inset {inset:.0e}: left endpoint {left!r} not above eps0 = {e0}"
            )
            continue
        s = left - e0
        s_pred = math.sqrt(2.0 * (J - ex.J_min) / ((e1 - e0) * dfp0))
        dV = ex.var_min - sol.var_opt
        allowed = 2.0 * math.sqrt(inset)
        for name, ratio in (("s / s_pred", s / s_pred),
                            ("dV / (g(eps0) s)", dV / (g0 * s))):
            if abs(ratio - 1.0) > allowed:
                failures.append(
                    f"inset {inset:.0e}: {name} = {ratio:.6f} departs from 1 "
                    f"by more than {allowed:.1e}"
                )
        if inset == 1e-7:
            if s > 1e-3:
                failures.append(
                    f"left endpoint {left:.6f} is {s:.2e} from "
                    f"eps0 = {e0} (tolerance 1e-3)"
                )
            if abs(dV) > 1e-3 * ex.var_min:
                failures.append(
                    f"variance {sol.var_opt:.6e} vs compact-boxcar "
                    f"{ex.var_min:.6e}: relative gap "
                    f"{abs(dV) / ex.var_min:.2e} > 1e-3"
                )
    _finish(5, "boundary compact boxcar", failures, time.time() - t0, 30.0)


def test_criterion_6_convexity_and_dominance():
    failures = []
    t0 = time.time()
    rng = np.random.default_rng(23)
    cb = current_bounds(FIG2)
    span = cb.I_max - cb.I_min

    def draw_target():
        I = float(rng.uniform(cb.I_min + 0.05 * span, cb.I_max - 0.05 * span))
        ex = j_extrema(FIG2, I)
        width = ex.J_max - ex.J_min
        J = float(rng.uniform(ex.J_min + 0.05 * width, ex.J_max - 0.05 * width))
        return I, J

    cache = {}

    def vopt(I, J):
        key = (I, J)
        if key not in cache:
            cache[key] = optimal_variance(FIG2, I, J)
        return cache[key]

    triples = 0
    worst = -math.inf
    while triples < 100:
        I1, J1 = draw_target()
        I2, J2 = draw_target()
        Im, Jm = 0.5 * (I1 + I2), 0.5 * (J1 + J2)
        try:
            vm = vopt(Im, Jm)
        except FeasibilityError:
            continue
        gap = vm - 0.5 * (vopt(I1, J1) + vopt(I2, J2))
        worst = max(worst, gap)
        triples += 1
    if worst > 1e-8:
        failures.append(f"midpoint convexity violated by {worst:.3e} > 1e-8")

    worst_dom = -math.inf
    for _ in range(200):
        T = random_tabulated(rng, FIG2, n_knots=10)
        I, J = currents(T, FIG2)
        V = variance(T, FIG2)
        v_opt = optimal_variance(FIG2, I, J)
        worst_dom = max(worst_dom, v_opt - V)
    if worst_dom > 1e-8:
        failures.append(f"dominance violated by {worst_dom:.3e}")
    _finish(6, "convexity and dominance", failures, time.time() - t0, 120.0)


def test_criterion_7_topology_grid():
    failures = []
    t0 = time.time()
    rm = compute_region_map(FIG3G, n_boundary=32, n_topology=(64, 64), tol=1e-6)
    counts = sorted({c for (_, _, c, _, _) in rm.topology})
    if 3 not in counts:
        failures.append(f"no 3-interval signature on the grid (counts: {counts})")
    over = rm.max_interval_count()
    if over > 3:
        # observation check per the criterion: reported, not failed
        print(f"    note: observed {over} intervals somewhere on the grid")
    _finish(7, "topology grid", failures, time.time() - t0, 120.0)


def test_criterion_8_pointwise_identity_suite():
    failures = []
    t0 = time.time()
    rng = np.random.default_rng(42)

    worst_g = 0.0
    for _ in range(200):
        res = random_reservoir(rng, equal_beta_prob=0.25)
        e = float(rng.uniform(-12, 12))
        fL = fermi(res.beta_L, res.mu_L, e)
        fR = fermi(res.beta_R, res.mu_R, e)
        worst_g = max(
            worst_g,
            abs(g_noise(res, e) - (fL + fR - 2 * fL * fR - delta_f(res, e) ** 2)),
        )
    if worst_g > 1e-12:
        failures.append(f"g identity violated by {worst_g:.2e} > 1e-12")

    # the canonical example reservoirs have an exactly representable eps0
    if delta_f(FIG2, epsilon_zero(FIG2)) != 0.0:
        failures.append("delta_f(eps0) != 0 at the (1, 0.2, -1, 0.5) reservoirs")
    # for generic parameters eps0 itself rounds, so the zero holds to the
    # suite tolerance
    for _ in range(50):
        res = random_reservoir(rng)
        e0 = epsilon_zero(res)
        if e0 is not None and abs(delta_f(res, e0)) > 1e-12:
            failures.append(f"|delta_f(eps0)| > 1e-12 for {res}")

    worst_sigma = 0.0
    for _ in range(60):
        res = random_reservoir(rng, equal_beta_prob=0.2)
        T = random_tabulated(rng, res, n_knots=10)
        s = summary(T, res)
        worst_sigma = min(worst_sigma, s.sigma)
    if worst_sigma < -1e-10:
        failures.append(f"entropy rate dipped to {worst_sigma:.2e} < -1e-10")
    _finish(8, "pointwise identity suite", failures, time.time() - t0, 10.0)
