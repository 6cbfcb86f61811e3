"""Physical-model comparisons and the linear-response precision bound.

Contents: the resonant double-quantum-dot transmission, the bias sweep
comparing its Fano factor against the minimal-variance one at the same
currents, closed forms for the symmetric single boxcar that is optimal in
the equal-temperature symmetric-bias setup, boxcar moments of f(1-f), and
the small-gradient expansion of the precision-dissipation ratio.

Symmetric-boxcar closed form
----------------------------
For beta_L = beta_R = beta, mu_R = -mu_L = dmu/2 and the boxcar
[-a/2, a/2], exact antiderivatives give

    var   = 2 (1 - f_L - f_R) / beta
    |I|   = (1/beta) ln[ f_R (1-f_R) / (f_L (1-f_L)) ]

with f_L, f_R evaluated at the right edge a/2, hence the optimal Fano
factor (ratio reading of the logarithm; the product reading fails the
quadrature cross-check and is rejected at runtime):

    F_opt = 2 (1 - f_L - f_R) / ln[ f_R (1-f_R) / (f_L (1-f_L)) ]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxcar import BoxcarSet, boxcar_integrals
from .errors import FeasibilityError, FormulaMismatchError, SingularityError, ValidationError
from .physics import ReservoirPair, delta_f, fermi, fermi_tail_antiderivs, g_noise
from .transport import ClosedFormTransmission

__all__ = [
    "LinearResponseFrame",
    "dqd_transmission",
    "fano_sweep",
    "default_bias_grid",
    "symmetric_boxcar_width",
    "fano_opt_symmetric",
    "theta_moments",
    "LinearTURResult",
    "linear_tur_bound",
    "LOG_ARGUMENT_READING",
]

# Resolution of the typographically ambiguous closed-form logarithm: the
# quotient of the two f(1-f) factors reproduces the defining integrals, the
# product does not (see fano_opt_symmetric's runtime cross-check).
LOG_ARGUMENT_READING = "ratio"

INF = math.inf
_CHECK_TOL = 1e-6  # relative tolerance of fano_opt_symmetric's cross-check


@dataclass(frozen=True)
class LinearResponseFrame:
    """Small-gradient parametrization around a mean bath (beta, mu).

    beta_{L,R} = beta -/+ d_beta/2 and beta_{L,R} mu_{L,R} =
    beta mu -/+ d_beta_mu/2.  Note this sign convention makes d_beta equal
    to beta_R - beta_L; the entropy rate is evaluated through the exact
    reservoir affinities, so all reported quantities stay sign-consistent.
    """

    beta: float
    mu: float
    d_beta: float
    d_beta_mu: float

    def __post_init__(self):
        if self.beta - abs(self.d_beta) / 2.0 <= 0:
            raise ValidationError(
                f"resulting inverse temperatures must stay positive "
                f"(beta={self.beta}, d_beta={self.d_beta})"
            )

    def to_reservoirs(self) -> ReservoirPair:
        beta_L = self.beta - self.d_beta / 2.0
        beta_R = self.beta + self.d_beta / 2.0
        mu_L = (self.beta * self.mu - self.d_beta_mu / 2.0) / beta_L
        mu_R = (self.beta * self.mu + self.d_beta_mu / 2.0) / beta_R
        return ReservoirPair(beta_L, beta_R, mu_L, mu_R)


def dqd_transmission(Gamma, Omega, omega) -> ClosedFormTransmission:
    """Resonant double-dot transmission, evaluated in real arithmetic.

    T(eps) = Gamma^2 Omega^2 / ((u^2 - Omega^2 - Gamma^2/4)^2 + Gamma^2 u^2)
    with u = eps - omega: the expanded squared modulus of the complex
    denominator.  Values lie in (0, 1]; the maximum reaches 1 exactly when
    Omega^2 >= Gamma^2/4 (split resonances).  The peaks, at omega +-
    sqrt(Omega^2 - Gamma^2/4) when split and at omega otherwise, are its
    breakpoints, so that quadrature never steps over a narrow resonance.
    """
    if Gamma <= 0:
        raise ValidationError(f"Gamma must be positive, got {Gamma}")
    G2 = float(Gamma) ** 2
    O2 = float(Omega) ** 2
    c = O2 + G2 / 4.0
    split = math.sqrt(max(O2 - G2 / 4.0, 0.0))
    peaks = (omega - split, omega + split) if split > 0.0 else (float(omega),)

    def func(eps):
        u2 = (eps - omega) ** 2
        return (G2 * O2) / ((u2 - c) ** 2 + G2 * u2)

    return ClosedFormTransmission(
        name="dqd",
        params=(("Gamma", float(Gamma)), ("Omega", float(Omega)), ("omega", float(omega))),
        func=func,
        breaks=peaks,
    )


def default_bias_grid(lo=0.05, mid=2.0, hi=40.0):
    """Linear steps of `lo` up to `mid`, then geometric up to `hi`."""
    lin = np.arange(lo, mid + 1e-12, lo)
    geo = np.geomspace(mid, hi, 25)[1:]
    return np.concatenate([lin, geo])


def fano_sweep(Gamma, Omega, omega, beta, dmu_grid=None, tol=1e-8):
    """Bias sweep comparing the model Fano factor with the optimal one.

    Equal temperatures, mu_R = -mu_L = dmu/2.  The optimum is solved at the
    model's own currents (I, J); at omega = 0 the model's J vanishes by
    symmetry, and the target is (I, 0) exactly.  Each row carries the model
    currents, both variances, and both Fano factors scaled by beta*dmu
    (the scale on which the classical precision bound reads 2).  Rows with
    vanishing current (dmu = 0) are omitted.

    Returns a list of dict rows, ordered by dmu.
    """
    from .inverse import solve_multipliers
    from .transport import summary

    if dmu_grid is None:
        dmu_grid = default_bias_grid()
    T = dqd_transmission(Gamma, Omega, omega)
    rows = []
    for dmu in np.asarray(dmu_grid, dtype=float):
        if dmu == 0.0:
            continue
        res = ReservoirPair(beta, beta, -dmu / 2.0, dmu / 2.0)
        s = summary(T, res)
        if s.fano is None:
            continue
        # a resonance centred at 0 carries no energy current; solve at the
        # symmetric target rather than chase quadrature noise
        sol = solve_multipliers(res, s.I, s.J if omega != 0.0 else 0.0, tol=tol)
        fano_opt = sol.var_opt / abs(s.I)
        rows.append(
            {
                "dmu": float(dmu),
                "I": s.I,
                "J": s.J,
                "var_model": s.var_I,
                "fano_model_scaled": s.fano * beta * dmu,
                "var_opt": sol.var_opt,
                "fano_opt_scaled": fano_opt * beta * dmu,
            }
        )
    return rows


def _symmetric_reservoirs(beta, dmu):
    return ReservoirPair(beta, beta, -dmu / 2.0, dmu / 2.0)


def symmetric_boxcar_width(beta, dmu, I_target):
    """Width a >= 0 of the boxcar [-a/2, a/2] carrying current I_target.

    Equal temperatures, mu_R = -mu_L = dmu/2; the integrand is
    sign-definite, so the width is unique, and it has the closed form

        a = (2/beta) ln[(r s - 1)/(s - r)],  r = e^{beta |I|/2},  s = e^{beta dmu/2}.

    The full-line current is -dmu; a target equal to it is reported as an
    unbounded boxcar (a = inf), larger magnitudes are infeasible.
    """
    if beta <= 0 or dmu <= 0:
        raise ValidationError("need beta > 0 and dmu > 0")
    full = -dmu  # current of the full line
    I_t = float(I_target)
    if I_t == 0.0:
        return 0.0
    if I_t * full <= 0.0 or abs(I_t) > abs(full):
        raise FeasibilityError(
            f"target current {I_t} not attainable by a symmetric boxcar "
            f"(full-line current is {full})",
            boundary="symmetric current range",
        )
    if abs(I_t) >= abs(full) * (1.0 - 1e-12):
        return INF  # the full-line current is reached only by a = inf

    # a = (2/beta) ln[(r s - 1)/(s - r)] with r = e^y, s = e^z, whose
    # argument is 1 + q, q = (r - 1)(s + 1)/(s - r); it is formed from
    # e^{-z} and e^{y-z} only, so it stays finite where s overflows
    y = 0.5 * beta * abs(I_t)
    z = 0.5 * beta * dmu
    t = -math.expm1(y - z)  # 1 - r/s
    if y < 1.0:
        return (2.0 / beta) * math.log1p(math.expm1(y) * (1.0 + math.exp(-z)) / t)
    # ln q, with ln(r - 1) = y + ln(1 - e^{-y}); then ln(1 + q) = ln q + ln(1 + 1/q)
    log_q = y + math.log1p(-math.exp(-y)) + math.log1p(math.exp(-z)) - math.log(t)
    return (2.0 / beta) * (log_q + math.log1p(math.exp(-log_q)))


def _log_fermi_fluct(x):
    """ln[f(1-f)] = -|x| - 2 ln(1 + e^{-|x|}), stable at any |x|."""
    ax = abs(x)
    return -ax - 2.0 * math.log1p(math.exp(-ax))


def fano_opt_symmetric(beta, dmu, a):
    """Closed-form optimal Fano factor of the symmetric boxcar [-a/2, a/2].

    Evaluates 2 (1 - f_L - f_R) / ln[f_R(1-f_R) / (f_L(1-f_L))] at the
    right edge and cross-checks it against the defining integrals; a
    disagreement beyond _CHECK_TOL (relative) raises
    FormulaMismatchError.  The degenerate a -> 0 limit is the ratio of the
    integrand densities at the origin.
    """
    if a < 0:
        raise ValidationError(f"width must be nonnegative, got {a}")
    res = _symmetric_reservoirs(beta, dmu)
    if a == INF:
        raise ValidationError("width must be finite")
    if a <= 1e-9 / beta:
        df0 = delta_f(res, 0.0)
        if df0 == 0.0:
            raise SingularityError("degenerate boxcar with no current")
        return g_noise(res, 0.0) / abs(df0)

    x_L = beta * (a / 2.0 + dmu / 2.0)
    x_R = beta * (a / 2.0 - dmu / 2.0)
    f_L = fermi(beta, -dmu / 2.0, a / 2.0)
    f_R = fermi(beta, dmu / 2.0, a / 2.0)
    one_minus_sum = 1.0 / (1.0 + math.exp(-x_R)) - f_L  # (1 - f_R) - f_L
    log_ratio = _log_fermi_fluct(x_R) - _log_fermi_fluct(x_L)
    closed = 2.0 * one_minus_sum / log_ratio

    B = BoxcarSet(((-a / 2.0, a / 2.0),))
    I, _, V = boxcar_integrals(res, B)
    numeric = V / abs(I)
    if abs(closed - numeric) > _CHECK_TOL * abs(numeric):
        raise FormulaMismatchError(
            f"closed-form Fano {closed!r} disagrees with the defining "
            f"integrals {numeric!r} (beta={beta}, dmu={dmu}, a={a}); "
            f"log-argument reading: {LOG_ARGUMENT_READING}"
        )
    return closed


def theta_moments(frame: LinearResponseFrame, B: BoxcarSet):
    """(theta0, theta1, theta2): moments of f(1-f) of the mean bath over B.

    All three are exact.  With F0, T1 and W the antiderivatives of f, eps*f
    and f(1-f) on one side of mu (physics.fermi_tail_antiderivs), partial
    integration gives those of the moments as W, eps W + side F0/beta and
    eps^2 W + 2 side T1/beta, and each interval is split at mu so that
    every difference is taken on one side's branch.
    """
    beta, mu = frame.beta, frame.mu

    def anti(e, side):
        if math.isinf(e):
            return 0.0, 0.0, 0.0
        F0, T1, W = fermi_tail_antiderivs(beta, mu, e, side)
        return W, e * W + side * F0 / beta, e * e * W + 2.0 * side * T1 / beta

    theta = np.zeros(3)
    for a, b in B.intervals:
        c = min(max(mu, a), b)
        theta += np.subtract(anti(c, -1.0), anti(a, -1.0))
        theta += np.subtract(anti(b, 1.0), anti(c, 1.0))
    return tuple(float(t) for t in theta)


@dataclass(frozen=True)
class LinearTURResult:
    """Linearized precision diagnostics for one (frame, boxcar) pair."""

    ratio: float  # precision-dissipation ratio; >= 2, = 2 iff d_beta = 0
    I: float
    J: float
    var_I: float  # 2 theta0
    sigma: float
    theta0: float
    theta1: float
    theta2: float


def linear_tur_bound(frame: LinearResponseFrame, B: BoxcarSet) -> LinearTURResult:
    """Small-gradient precision-dissipation ratio for a boxcar.

    ratio = 2 + (2 d_beta^2 / I^2)(theta0 theta2 - theta1^2), together with
    the linearized currents I = d_beta theta1 - d_beta_mu theta0,
    J = d_beta theta2 - d_beta_mu theta1, variance 2 theta0, and the
    entropy rate from the exact reservoir affinities (which keeps it
    nonnegative under this frame's sign convention).  By the
    Cauchy-Schwarz inequality the ratio is >= 2, with equality only for
    d_beta = 0 or a degenerate boxcar.
    """
    t0, t1, t2 = theta_moments(frame, B)
    db = frame.d_beta
    dbm = frame.d_beta_mu
    I = db * t1 - dbm * t0
    J = db * t2 - dbm * t1
    res = frame.to_reservoirs()
    sigma = -res.delta_beta * J + res.delta_beta_mu * I
    var_I = 2.0 * t0
    scale = max(abs(db) * (abs(t1) + abs(t2)), abs(dbm) * (abs(t0) + abs(t1)), 1e-300)
    if abs(I) <= 1e-13 * scale:
        raise SingularityError(
            "linearized current vanishes; the precision ratio is undefined"
        )
    ratio = 2.0 + (2.0 * db * db / (I * I)) * (t0 * t2 - t1 * t1)
    return LinearTURResult(
        ratio=ratio,
        I=I,
        J=J,
        var_I=var_I,
        sigma=sigma,
        theta0=t0,
        theta1=t1,
        theta2=t2,
    )
