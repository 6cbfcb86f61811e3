"""Inverse map: target currents (I, J) -> multipliers (eta, lam).

The forward map is the gradient of a convex function of the multipliers,
so dI/deta >= 0 and dJ/dlam >= 0, the off-diagonal derivatives coincide,
and the composed map lam -> J(lam, eta*(lam)) (with eta* matching I at
fixed lam) is itself nondecreasing.  The solver exploits this:

  1.  inner bracketed root solve on eta matching I at fixed lam (the
      particle current is available exactly, from the antiderivative);
  2.  outer bracketed root solve on lam matching J along eta*(lam);
  3.  damped Newton refinement on (eta, lam) jointly using the analytic
      endpoint Jacobian once the bracket phase is inside the basin.

Both currents are continuous across bifurcations, so the bracket phases
cannot get stuck; Newton failures (e.g. near-double endpoint roots) fall
back to more bracketing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .boxcar import (
    EMPTY,
    BoxcarSet,
    Multipliers,
    boxcar_current,
    boxcar_energy_current,
    boxcar_variance,
    multiplier_jacobian,
    solve_boxcar,
)
from .errors import ConvergenceError, FeasibilityError, NearBifurcationError, SolverError
from .physics import ReservoirPair
from .region import current_bounds, j_extrema

__all__ = ["OptimalSolution", "solve_multipliers", "optimal_variance"]

_XTOL_ROOT = 1e-12  # endpoint tolerance for boxcar root refinement


# feasibility geometry is reused heavily by grid sweeps (same reservoir,
# same I for a whole column of targets)
_bounds_cached = functools.lru_cache(maxsize=1024)(current_bounds)
_extrema_cached = functools.lru_cache(maxsize=8192)(j_extrema)


@dataclass(frozen=True)
class OptimalSolution:
    """Multipliers, boxcar and achieved currents for one inverse solve.

    residual_norm = max(|I - I_target|, |J - J_target|) and is guaranteed
    not to exceed the absolute tolerances derived from the requested
    relative tolerance.
    """

    multipliers: Multipliers
    boxcar: BoxcarSet
    I: float
    J: float
    var_opt: float
    residual_norm: float

    def signature(self):
        return self.boxcar.signature()

    def to_dict(self):
        return {
            "lambda": self.multipliers.lam,
            "eta": self.multipliers.eta,
            "boxcar": self.boxcar.to_json(),
            "I": self.I,
            "J": self.J,
            "var_opt": self.var_opt,
            "residual_norm": self.residual_norm,
        }


class _Evaluator:
    """Forward solves for one (reservoir, target) solve, counted."""

    def __init__(self, res):
        self.res = res
        self.n_solves = 0

    def box(self, lam, eta):
        self.n_solves += 1
        return solve_boxcar(self.res, Multipliers(lam, eta), xtol=_XTOL_ROOT)


def _match_eta(ev, lam, I_t, eta0, eta_step, atol_I, budget=400):
    """Find eta with I(lam, eta) = I_t; I is nondecreasing in eta.

    Expands a bracket geometrically around eta0, runs Brent on it, then
    falls back to plain bisection if the returned point misses atol_I
    (possible on the flat I=0 / I=I_full stretches).
    Returns (eta, boxcar, I).
    """
    cache = {}

    def f(eta):
        if eta not in cache:
            B = ev.box(lam, eta)
            cache[eta] = (boxcar_current(ev.res, B) - I_t, B)
        return cache[eta][0]

    d = eta_step
    lo = hi = eta0
    f0 = f(eta0)
    if f0 <= 0.0:
        hi = eta0 + d
        while f(hi) < 0.0:
            lo = hi
            d *= 4.0
            hi = eta0 + d
            if d > 1e18 * eta_step:
                raise ConvergenceError(
                    f"eta bracket for I={I_t} did not close at lam={lam}",
                    estimate=f(hi),
                )
    if f0 >= 0.0:
        lo = eta0 - d
        while f(lo) > 0.0:
            hi = lo
            d *= 4.0
            lo = eta0 - d
            if d > 1e18 * eta_step:
                raise ConvergenceError(
                    f"eta bracket for I={I_t} did not close at lam={lam}",
                    estimate=f(lo),
                )

    # the tolerance is relative to the root: at large bias the root sits
    # near 1e-11, far below any absolute tolerance on the O(1) bracket;
    # 3e-14 is what the absolute tolerance 1e-14 (1 + |lo| + |hi|) gave
    # around |eta| = 1
    eta = brentq(f, lo, hi, xtol=1e-300, rtol=3e-14, maxiter=200, disp=False)
    if abs(f(eta)) > atol_I:
        # flat stretch: bisect on the sign, tracking the best point seen
        flo, fhi = f(lo), f(hi)
        for _ in range(budget):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if abs(fm) <= atol_I:
                eta = mid
                break
            if fm * flo <= 0.0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
            if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
                eta = mid
                break
        else:
            raise ConvergenceError(
                f"inner eta solve stalled at lam={lam}: |I - I_t| = {abs(f(eta)):.3e}",
                estimate=abs(f(eta)),
            )
    fe, B = cache[eta]
    return eta, B, fe + I_t


def _newton_polish(ev, lam, eta, I_t, J_t, atol_I, atol_J, max_iter=50,
                   max_halvings=6):
    """Damped Newton on (eta, lam) with the analytic endpoint Jacobian.

    Returns (lam, eta, B, I, J, converged).  Near-bifurcation Jacobians are
    retried with a deterministic multiplier nudge; persistent failure just
    reports non-convergence so the caller can fall back to bracketing.
    """
    B = ev.box(lam, eta)
    I = boxcar_current(ev.res, B)
    J = boxcar_energy_current(ev.res, B)

    def resnorm(I, J):
        return max(abs(I - I_t) / atol_I, abs(J - J_t) / atol_J)

    r = resnorm(I, J)
    for _ in range(max_iter):
        if r <= 1.0:
            return lam, eta, B, I, J, True
        if B.is_empty:
            return lam, eta, B, I, J, False
        try:
            jac = multiplier_jacobian(ev.res, Multipliers(lam, eta), B)
        except NearBifurcationError:
            nudge = 1e-9 * (1.0 + abs(eta)) if abs(I - I_t) > 0 else 0.0
            eta_n = eta + nudge
            lam_n = lam + 1e-9 * (1.0 + abs(lam))
            B_n = ev.box(lam_n, eta_n)
            I_n = boxcar_current(ev.res, B_n)
            J_n = boxcar_energy_current(ev.res, B_n)
            if resnorm(I_n, J_n) > 4.0 * r:
                return lam, eta, B, I, J, False
            lam, eta, B, I, J = lam_n, eta_n, B_n, I_n, J_n
            r = resnorm(I, J)
            continue
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        scale = max(abs(jac).max(), 1e-300)
        if not math.isfinite(det) or abs(det) < 1e-14 * scale * scale:
            return lam, eta, B, I, J, False
        d_eta, d_lam = np.linalg.solve(jac, [I_t - I, J_t - J])
        accepted = False
        for k in range(max_halvings):
            fac = 0.5**k
            lam_n = lam + fac * d_lam
            eta_n = eta + fac * d_eta
            try:
                B_n = ev.box(lam_n, eta_n)
            except SolverError:
                continue
            # cheap reject on the exact current before paying for J
            I_n = boxcar_current(ev.res, B_n)
            if abs(I_n - I_t) / atol_I > max(r, 1.0) * 4.0:
                continue
            J_n = boxcar_energy_current(ev.res, B_n)
            r_n = resnorm(I_n, J_n)
            if r_n < r:
                lam, eta, B, I, J, r = lam_n, eta_n, B_n, I_n, J_n, r_n
                accepted = True
                break
        if not accepted:
            return lam, eta, B, I, J, False
    return lam, eta, B, I, J, r <= 1.0


def solve_multipliers(
    res: ReservoirPair,
    I_target,
    J_target,
    tol=1e-8,
    guess: Multipliers | None = None,
) -> OptimalSolution:
    """Multipliers whose optimal boxcar reproduces (I_target, J_target).

    tol is relative on the currents; targets exactly on the feasible
    boundary are nudged inward by 1e-9 (relative to the local span) before
    solving, and infeasible targets raise FeasibilityError naming the
    violated boundary.  `guess` warm-starts the Newton phase (used by
    region sweeps); the bracketed phases are unconditionally safe because
    I is monotone in eta and J in lam along the matched path.
    """
    I_t = float(I_target)
    J_t = float(J_target)
    cb = _bounds_cached(res)
    span_I = cb.I_max - cb.I_min
    if span_I <= 0.0:
        if I_t == 0.0 and J_t == 0.0:
            return OptimalSolution(Multipliers(0.0, 0.0), EMPTY, 0.0, 0.0, 0.0, 0.0)
        raise FeasibilityError(
            "identical reservoirs support only the target (0, 0)", boundary="I range"
        )

    atol_I = tol * max(abs(I_t), 1e-2 * span_I)

    # the (0, 0) corner is attained exactly by the empty boxcar
    if I_t == 0.0 and J_t == 0.0:
        return OptimalSolution(Multipliers(0.0, 0.0), EMPTY, 0.0, 0.0, 0.0, 0.0)

    inset = 1e-9 * span_I
    if I_t <= cb.I_min or I_t >= cb.I_max:
        if I_t < cb.I_min - inset or I_t > cb.I_max + inset:
            raise FeasibilityError(
                f"I = {I_t} outside [{cb.I_min}, {cb.I_max}]",
                boundary="I_min" if I_t <= cb.I_min else "I_max",
            )
        I_t = min(max(I_t, cb.I_min + inset), cb.I_max - inset)

    ex = _extrema_cached(res, I_t)
    span_J = ex.J_max - ex.J_min
    atol_J = tol * max(abs(J_t), 1e-2 * max(span_J, 1e-300))
    inset_J = 1e-9 * span_J
    if J_t <= ex.J_min or J_t >= ex.J_max:
        if J_t < ex.J_min - inset_J or J_t > ex.J_max + inset_J:
            raise FeasibilityError(
                f"J = {J_t} outside [{ex.J_min}, {ex.J_max}] at I = {I_t}",
                boundary="J_min(I)" if J_t <= ex.J_min else "J_max(I)",
            )
        J_t = min(max(J_t, ex.J_min + inset_J), ex.J_max - inset_J)

    ev = _Evaluator(res)

    s0 = max(
        res.beta_L,
        res.beta_R,
        res.beta_L * abs(res.mu_L),
        res.beta_R * abs(res.mu_R),
        1.0,
    )

    if guess is not None:
        lam, eta, B, I, J, ok = _newton_polish(
            ev, guess.lam, guess.eta, I_t, J_t, atol_I, atol_J, max_iter=15
        )
        if ok:
            return _assemble(res, lam, eta, I_t, J_t, atol_I, atol_J)

    eta_state = {"eta": guess.eta if guess is not None else 0.0}
    eta_step = 0.25 * (1.0 + abs(eta_state["eta"])) if guess is not None else s0

    def G(lam):
        eta, B, I = _match_eta(
            ev, lam, I_t, eta_state["eta"], eta_step, atol_I
        )
        eta_state["eta"] = eta
        eta_state["at"] = (lam, eta, B, I)
        return boxcar_energy_current(res, B) - J_t

    # lam = 0 is the B_0 bifurcation: symmetric targets sit exactly on it,
    # and a lam of +-epsilon would drag in a zero-measure tail root, so try
    # the exact value first
    g0 = G(0.0)
    if abs(g0) <= atol_J:
        lam_b, eta_b, _, _ = eta_state["at"]
        return _assemble(res, lam_b, eta_b, I_t, J_t, atol_I, atol_J)

    # bracket lam: J(lam, eta*(lam)) is nondecreasing; start from the guess
    # when it sits on the indicated side of zero
    if g0 > 0.0:
        start = guess.lam if (guess is not None and guess.lam < 0.0) else -s0
        lam_lo, lam_hi = start, 0.0
        g_hi = g0
        g_lo = G(lam_lo)
    else:
        start = guess.lam if (guess is not None and guess.lam > 0.0) else s0
        lam_lo, lam_hi = 0.0, start
        g_lo = g0
        g_hi = None
    grow = 0
    while g_lo > 0.0:
        lam_hi, g_hi = lam_lo, g_lo
        lam_lo = lam_lo * 4.0 if lam_lo < 0 else -s0
        g_lo = G(lam_lo)
        grow += 1
        if grow > 40:
            raise ConvergenceError(
                f"lambda bracket did not close below, J residual {g_lo:.3e}",
                estimate=g_lo,
            )
    if g_hi is None:
        g_hi = G(lam_hi)
    grow = 0
    while g_hi < 0.0:
        lam_lo, g_lo = lam_hi, g_hi
        lam_hi = lam_hi * 4.0 if lam_hi > 0 else s0
        g_hi = G(lam_hi)
        grow += 1
        if grow > 40:
            raise ConvergenceError(
                f"lambda bracket did not close above, J residual {g_hi:.3e}",
                estimate=g_hi,
            )

    best = None
    for round_ in range(6):
        # a few safeguarded secant/bisection steps on the outer variable
        for _ in range(8 if round_ == 0 else 12):
            if g_hi == g_lo:
                lam_mid = 0.5 * (lam_lo + lam_hi)
            else:
                lam_mid = lam_lo - g_lo * (lam_hi - lam_lo) / (g_hi - g_lo)
                w = lam_hi - lam_lo
                if not (lam_lo + 0.05 * w <= lam_mid <= lam_hi - 0.05 * w):
                    lam_mid = 0.5 * (lam_lo + lam_hi)
            g_mid = G(lam_mid)
            lam_b, eta_b, B_b, I_b = eta_state["at"]
            best = (lam_b, eta_b)
            if abs(g_mid) <= atol_J:
                return _assemble(res, lam_b, eta_b, I_t, J_t, atol_I, atol_J)
            if g_mid > 0.0:
                lam_hi, g_hi = lam_mid, g_mid
            else:
                lam_lo, g_lo = lam_mid, g_mid
            # relative to the root, as in _match_eta: at large bias lam is
            # far below 1e-15 and an absolute width stops short of it
            if lam_hi - lam_lo <= 4.0 * math.ulp(max(abs(lam_lo), abs(lam_hi))):
                break
        lam_b, eta_b = best
        lam, eta, B, I, J, ok = _newton_polish(
            ev, lam_b, eta_b, I_t, J_t, atol_I, atol_J
        )
        if ok:
            return _assemble(res, lam, eta, I_t, J_t, atol_I, atol_J)
        if lam_hi - lam_lo <= 4.0 * math.ulp(max(abs(lam_lo), abs(lam_hi))):
            break
        if ev.n_solves > 40000:
            break

    # last resort: report the best iterate
    lam_b, eta_b = best if best is not None else (0.0, eta_state["eta"])
    eta_f, B_f, I_f = _match_eta(ev, lam_b, I_t, eta_b, s0, atol_I)
    J_f = boxcar_energy_current(res, B_f)
    if abs(J_f - J_t) <= atol_J:
        return _assemble(res, lam_b, eta_f, I_t, J_t, atol_I, atol_J)
    raise ConvergenceError(
        f"inverse solve exhausted its budget: residuals "
        f"|dI|={abs(I_f - I_t):.3e}, |dJ|={abs(J_f - J_t):.3e} at "
        f"lam={lam_b}, eta={eta_f}",
        estimate=OptimalSolution(
            Multipliers(lam_b, eta_f),
            B_f,
            I_f,
            J_f,
            boxcar_variance(res, B_f),
            max(abs(I_f - I_t), abs(J_f - J_t)),
        ),
    )


def _assemble(res, lam, eta, I_t, J_t, atol_I, atol_J):
    """The solution at (lam, eta); raises ConvergenceError, with the
    solution as its estimate, when it misses either current tolerance."""
    m = Multipliers(lam, eta)
    B = solve_boxcar(res, m, xtol=_XTOL_ROOT)
    I = boxcar_current(res, B)
    J = boxcar_energy_current(res, B)
    V = boxcar_variance(res, B)
    sol = OptimalSolution(
        multipliers=m,
        boxcar=B,
        I=I,
        J=J,
        var_opt=V,
        residual_norm=max(abs(I - I_t), abs(J - J_t)),
    )
    if abs(I - I_t) > atol_I or abs(J - J_t) > atol_J:
        raise ConvergenceError(
            f"inverse solve missed its tolerance: |dI|={abs(I - I_t):.3e} "
            f"(atol {atol_I:.3e}), |dJ|={abs(J - J_t):.3e} (atol {atol_J:.3e}) "
            f"at lam={lam}, eta={eta}",
            estimate=sol,
        )
    return sol


def optimal_variance(res: ReservoirPair, I, J, tol=1e-8, guess=None):
    """Minimal particle-current variance over all transmissions with the
    given currents: the generalized uncertainty bound surface."""
    return solve_multipliers(res, I, J, tol=tol, guess=guess).var_opt
