"""Inverse map: target currents (I, J) -> multipliers (eta, lam).

The optimal boxcar for the target (I_t, J_t) has multipliers that maximise
the concave dual

    d(eta, lam) = V_B + eta (I_t - I_B) + lam (J_t - J_B),

whose gradient is the residual (I_t - I, J_t - J) and whose Hessian is
-multiplier_jacobian.  The solver maximises d in nested form, and each
level is the root of a nonincreasing function of one variable, found by
the one helper `_find_root`:

  inner:  eta -> I_t - I(lam, eta), with slope -dI/deta;
  outer:  lam -> J_t - J(lam, eta*(lam)), which is D'(lam) for the concave
          D(lam) = max_eta d(eta, lam); its slope is minus the Schur
          complement dJ/dlam - (dI/dlam)^2 / (dI/deta).

A cold solve starts at exactly lam = 0, the B_0 bifurcation on which
symmetric targets sit; a warm one starts at the guess.  Each inner solve
starts from the tangent eta + (deta*/dlam) dlam of the previous one.  An
empty boxcar or a near-bifurcation Jacobian has no slope, and the helper
then takes its bracket step instead of a Newton step.  The outer value
takes J at eta*(lam) to first order in the inner residual, and the answer
is one Newton step in eta past the last iterate.  A result that misses
either current tolerance raises ConvergenceError with that result as its
estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .boxcar import (
    EMPTY,
    BoxcarSet,
    Multipliers,
    boxcar_integrals,
    multiplier_jacobian,
    solve_boxcar,
)
from .errors import ConvergenceError, FeasibilityError, NearBifurcationError
from .physics import ReservoirPair
from .region import current_bounds, j_extrema

__all__ = ["OptimalSolution", "solve_multipliers", "optimal_variance"]

# feasibility geometry is reused heavily by grid sweeps (same reservoir,
# same I for a whole column of targets); a sweep over reservoirs never hits,
# and a larger cache would only hold its misses
_CACHE_SIZE = 64
_bounds_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(current_bounds)
_extrema_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(j_extrema)


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


def _find_root(h, x, step, done, max_iter=200):
    """Root of a nonincreasing function h, from its value and slope.

    h(x) returns (value, slope, state), with slope None where h has none.
    Until the root is bracketed, the search moves toward it by Newton steps
    of at most `step` for the first move and four times the last move after
    that; where there is no slope, or Newton asks for more, it moves that
    far.  Inside the bracket it takes Newton steps, but bisects where one
    would leave the bracket or where |h| has not halved in two steps (a
    Newton run converging from one side never halves the bracket).  Returns
    the state of the first point where done(value, state) holds; when the
    bracket has collapsed to a few ulps, h is NaN, or the budget is spent,
    it returns the state of the point with the smallest |h|, and the caller
    judges it.
    """
    lo, hi = -math.inf, math.inf
    seen = [math.inf, math.inf]  # |h| at each point so far
    best = None
    for _ in range(max_iter):
        v, slope, state = h(x)
        if best is None or abs(v) < best[0]:
            best = (abs(v), state)
        if done(v, state):
            return state
        if math.isnan(v):
            break
        seen.append(abs(v))
        if v > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - v / slope if slope is not None and slope < 0.0 else math.nan
        if math.isfinite(lo) and math.isfinite(hi):
            if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
                break
            if not lo < x_new < hi or seen[-1] > 0.5 * seen[-3]:
                x_new = 0.5 * (lo + hi)
        elif not abs(x_new - x) <= step or x_new == x:
            x_new = x + math.copysign(step, v)
        if not math.isfinite(x_new):
            break
        step = 4.0 * abs(x_new - x)
        x = x_new
    return best[1]


def _jacobian(res, lam, eta, B):
    """(dI/deta, dI/dlam, dJ/dlam) from multiplier_jacobian, or None where
    it gives no usable slope."""
    if B.is_empty:
        return None
    # no floor on |R'|: a root deep in a tail has R' near 1e-37 and a
    # negligible weight, and a true near-double root gives a steep slope,
    # which the bracket safeguards of _find_root absorb
    try:
        jac = multiplier_jacobian(res, Multipliers(lam, eta), B,
                                  derivative_floor=math.ulp(0.0))
    except NearBifurcationError:
        return None
    a, b, c = float(jac[0, 0]), float(jac[0, 1]), float(jac[1, 1])
    return (a, b, c) if a > 0.0 and math.isfinite(a + b + c) else None


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
    violated boundary.  `guess` warm-starts both root solves (used by
    region sweeps); they stay safe from any start because I is monotone in
    eta and J in lam along the matched path.
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

    def inner(lam, eta):
        B = solve_boxcar(res, Multipliers(lam, eta))
        moments = boxcar_integrals(res, B)
        jac = _jacobian(res, lam, eta, B)
        return (I_t - moments[0], None if jac is None else -jac[0],
                (lam, eta, B, moments, jac))

    # lam = 0 is the B_0 bifurcation: symmetric targets sit exactly on it,
    # and a lam of +-epsilon would drag in a zero-measure tail root, so a
    # cold solve tries the exact value first
    lam0, eta0 = (guess.lam, guess.eta) if guess is not None else (0.0, 0.0)
    last = (lam0, eta0, None, None, None)

    def outer(lam):
        nonlocal last
        lam_p, eta, _, _, jac = last
        if jac is not None:
            eta -= jac[1] / jac[0] * (lam - lam_p)  # tangent of eta*(lam)
        last = _find_root(functools.partial(inner, lam), eta,
                          0.25 * (1.0 + abs(eta)), lambda v, _: abs(v) <= atol_I)
        _, eta, _, (I, J, _), jac = last
        if jac is None:
            return J_t - J, None, last
        # J at eta*(lam) to first order: an inner solve that stops anywhere
        # within atol_I would otherwise make J(lam) jump by more than atol_J
        J += jac[1] * (I_t - I) / jac[0]
        return J_t - J, jac[1] ** 2 / jac[0] - jac[2], last

    # a lam where the inner solve collapsed short of I_t is no answer, even
    # where J matches: at lam = 0 on an equal-beta pair, I(eta) can jump by
    # more than atol_I within an ulp of eta, and only a tilt resolves it
    def done(v, state):
        return abs(v) <= atol_J and abs(state[3][0] - I_t) <= atol_I

    lam, eta, B, moments, jac = _find_root(outer, lam0, 0.25 * (1.0 + abs(lam0)),
                                           done)

    # the step onto eta*(lam) that the first-order J assumed; it costs one
    # forward solve and leaves I with little but rounding
    I = moments[0]
    if jac is not None and I != I_t:
        eta_n = eta + (I_t - I) / jac[0]
        B_n = solve_boxcar(res, Multipliers(lam, eta_n))
        moments_n = boxcar_integrals(res, B_n)
        if abs(moments_n[0] - I_t) < abs(I - I_t):
            eta, B, moments = eta_n, B_n, moments_n
    return _assemble(lam, eta, B, moments, I_t, J_t, atol_I, atol_J)


def _assemble(lam, eta, B, moments, I_t, J_t, atol_I, atol_J):
    """The solution with boxcar B at (lam, eta) and its moments (I, J, V);
    raises ConvergenceError, with the solution as its estimate, when it
    misses either current tolerance."""
    I, J, V = moments
    sol = OptimalSolution(
        multipliers=Multipliers(lam, eta),
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
