"""Reservoir parametrization and the pointwise scalar fields.

Natural units k_B = hbar = e = 1 throughout; energies are dimensionless and
currents are dimensionless rates.  Everything here is a pure function of an
immutable :class:`ReservoirPair`, safe for concurrent use.

The three fields that drive the rest of the library are

    delta_f(eps) = f_L(eps) - f_R(eps)
    g_noise(eps) = f_L(1 - f_L) + f_R(1 - f_R)
    g_ratio(eps) = g_noise / delta_f

All of them are evaluated through exponent-sign branches so they keep full
relative accuracy deep into the Fermi tails (|beta (eps - mu)| up to ~700),
where the naive f_L - f_R would round to zero already at ~37.  They are
the reference: the forward solver and the transport quadrature take
delta_f and g on arrays from the one fused kernel boxcar._fields, which
is tested against them.

Their integrals have closed forms, and interval_moments is the one place
that takes them: the integrals of delta_f, eps*delta_f and g over any
interval, ends possibly infinite, from the per-bath antiderivatives of
fermi_tail_antiderivs, each keeping full relative accuracy in the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spence

from .errors import SingularityError, ValidationError

__all__ = [
    "ReservoirPair",
    "fermi",
    "fermi_fluct",
    "delta_f",
    "fermi_tail_antiderivs",
    "interval_moments",
    "g_noise",
    "epsilon_zero",
    "g_ratio",
    "g_ratio_limits",
]


@dataclass(frozen=True)
class ReservoirPair:
    """Two fermionic baths (beta_L, mu_L) and (beta_R, mu_R).

    Stored canonically as inverse temperatures; use
    :meth:`from_temperatures` when parameters are quoted as (T_L, T_R).
    """

    beta_L: float
    beta_R: float
    mu_L: float
    mu_R: float

    def __post_init__(self):
        for name in ("beta_L", "beta_R", "mu_L", "mu_R"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.beta_L <= 0 or self.beta_R <= 0:
            raise ValidationError(
                f"inverse temperatures must be positive, got "
                f"beta_L={self.beta_L}, beta_R={self.beta_R}"
            )
        object.__setattr__(self, "beta_L", float(self.beta_L))
        object.__setattr__(self, "beta_R", float(self.beta_R))
        object.__setattr__(self, "mu_L", float(self.mu_L))
        object.__setattr__(self, "mu_R", float(self.mu_R))

    @classmethod
    def from_temperatures(cls, T_L, T_R, mu_L, mu_R):
        if T_L <= 0 or T_R <= 0:
            raise ValidationError(
                f"temperatures must be positive, got T_L={T_L}, T_R={T_R}"
            )
        return cls(1.0 / T_L, 1.0 / T_R, mu_L, mu_R)

    @property
    def delta_beta(self):
        """beta_L - beta_R."""
        return self.beta_L - self.beta_R

    @property
    def delta_beta_mu(self):
        """beta_L mu_L - beta_R mu_R."""
        return self.beta_L * self.mu_L - self.beta_R * self.mu_R

    @property
    def delta_mu(self):
        """mu_L - mu_R."""
        return self.mu_L - self.mu_R

    @property
    def identical(self):
        """True when both baths are the same (delta_f vanishes identically)."""
        return self.beta_L == self.beta_R and self.mu_L == self.mu_R


def _as_array(eps):
    arr = np.asarray(eps, dtype=float)
    return arr, arr.ndim == 0


def fermi(beta, mu, eps):
    """Fermi-Dirac occupation 1 / (exp(beta (eps - mu)) + 1).

    Overflow-safe for any argument; returns 0 at eps = +inf and 1 at
    eps = -inf.  `eps` may be a scalar or an ndarray.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    x, scalar = _as_array(beta * (np.asarray(eps, dtype=float) - mu))
    out = np.empty_like(x)
    pos = x >= 0
    # exp is only taken of non-positive arguments on each branch
    e = np.exp(-x[pos])
    out[pos] = e / (1.0 + e)
    e = np.exp(x[~pos])
    out[~pos] = 1.0 / (1.0 + e)
    return float(out) if scalar else out


def fermi_fluct(beta, mu, eps):
    """f (1 - f) evaluated stably: exp(-|x|) / (1 + exp(-|x|))^2.

    Keeps full relative accuracy in the tails, where computing 1 - f
    directly would lose everything to rounding.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    x, scalar = _as_array(beta * (np.asarray(eps, dtype=float) - mu))
    e = np.exp(-np.abs(x))
    out = e / (1.0 + e) ** 2
    out = np.where(np.isfinite(x), out, 0.0)
    return float(out) if scalar else out


def delta_f(res: ReservoirPair, eps):
    """f_L(eps) - f_R(eps), with full relative accuracy in both tails.

    The difference is formed from exponentials directly (never from two
    saturated occupations), so its sign is reliable wherever exp(-|x|)
    is representable.
    """
    e_arr, scalar = _as_array(eps)
    xL = res.beta_L * (e_arr - res.mu_L)
    xR = res.beta_R * (e_arr - res.mu_R)
    out = np.zeros_like(e_arr)
    finite = np.isfinite(e_arr)

    d = xR - xL
    both_pos = finite & (xL >= 0) & (xR >= 0)
    both_neg = finite & (xL < 0) & (xR < 0)
    mixed = finite & ~(both_pos | both_neg)

    # f_L - f_R = (e^{-xL} - e^{-xR}) / ((1+e^{-xL})(1+e^{-xR}))
    m = both_pos
    if np.any(m):
        a = np.exp(-xL[m])
        b = np.exp(-xR[m])
        close = np.abs(d[m]) < 30.0
        num = np.where(close, b * np.expm1(np.where(close, d[m], 0.0)), a - b)
        out[m] = num / ((1.0 + a) * (1.0 + b))

    # f_L - f_R = (e^{xR} - e^{xL}) / ((1+e^{xL})(1+e^{xR}))
    m = both_neg
    if np.any(m):
        a = np.exp(xL[m])
        b = np.exp(xR[m])
        close = np.abs(d[m]) < 30.0
        num = np.where(close, a * np.expm1(np.where(close, d[m], 0.0)), b - a)
        out[m] = num / ((1.0 + a) * (1.0 + b))

    # opposite exponent signs: the difference is O(1), no cancellation
    m = mixed
    if np.any(m):
        out[m] = 1.0 / (1.0 + np.exp(xL[m])) - 1.0 / (1.0 + np.exp(xR[m]))

    return float(out) if scalar else out


def _li2_neg(t):
    """Li2(-t) for 0 <= t <= 1, with full relative accuracy.

    scipy's spence(z) is Li2(1 - z), but z = 1 + t rounds t to t' = z - 1,
    which loses small t entirely, so the rounding is put back to first
    order: Li2(-t) = Li2(-t') - (t - t') ln(1 + t)/t, with ln(1 + t)/t
    taken as 1 - t/2 (the neglected terms are below 1e-16 of t - t')."""
    z = 1.0 + t
    return float(spence(z)) - (t - (z - 1.0)) * (1.0 - 0.5 * t)


def fermi_tail_antiderivs(beta, mu, eps, side):
    """Antiderivatives of f, eps*f and f(1 - f) above mu (side +1), and of
    1 - f, eps*(1 - f) and f(1 - f) below it (side -1), at one energy, each
    vanishing at that side's infinity.  With t = exp(-|beta (eps - mu)|)
    they are

        -side ln(1 + t)/beta,  -side (eps/beta) ln(1 + t) + Li2(-t)/beta^2,
        -side min(f, 1 - f)/beta

    The dilogarithm inversion formula continues the eps*f branch below mu
    as (eps^2 - mu^2)/2 - pi^2/(6 beta^2) minus the eps*(1 - f) one.  All
    are finite at both infinities and formed from t alone, so a difference
    on one branch keeps full relative accuracy deep in that tail.
    """
    if math.isinf(eps):
        return 0.0, 0.0, 0.0
    t = math.exp(-beta * abs(eps - mu))
    log_t = math.log1p(t) / beta
    return (
        -side * log_t,
        -side * eps * log_t + _li2_neg(t) / (beta * beta),
        -side * t / ((1.0 + t) * beta),
    )


def interval_moments(res: ReservoirPair, a, b):
    """Exact (I, J, V): the integrals of delta_f, eps*delta_f and g over [a, b].

    The ends may be infinite.  For each bath the interval is split at its
    mu, c = mu clipped into [a, b], so that the pieces [a, c] and [c, b]
    each lie on one side, and the integrals are differences of
    fermi_tail_antiderivs on that side's branch.  Below mu, f is 1 less
    1 - f and eps*f is eps less eps*(1 - f); of the two baths' c - a and
    (c^2 - a^2)/2 only c_L - c_R and (c_L - c_R)(c_L + c_R)/2 remain,
    added last.  Both vanish in the tails, where c_L = c_R, and stay finite
    where c^2 would overflow; no energy is ever shifted by the other bath's
    mu, so a difference deep in a tail keeps full relative accuracy.
    """
    I = J = V = 0.0
    ends = []
    for beta, mu, sgn in ((res.beta_L, res.mu_L, 1.0), (res.beta_R, res.mu_R, -1.0)):
        c = min(max(mu, a), b)
        Fa, Ta, Wa = fermi_tail_antiderivs(beta, mu, a, -1.0)
        Fc_lo, Tc_lo, Wc_lo = fermi_tail_antiderivs(beta, mu, c, -1.0)
        Fc_hi, Tc_hi, Wc_hi = fermi_tail_antiderivs(beta, mu, c, 1.0)
        Fb, Tb, Wb = fermi_tail_antiderivs(beta, mu, b, 1.0)
        I += sgn * ((Fb - Fc_hi) - (Fc_lo - Fa))
        J += sgn * ((Tb - Tc_hi) - (Tc_lo - Ta))
        V += (Wb - Wc_hi) + (Wc_lo - Wa)
        ends.append(c)
    c_L, c_R = ends
    return I + (c_L - c_R), J + 0.5 * (c_L - c_R) * (c_L + c_R), V


def g_noise(res: ReservoirPair, eps):
    """g(eps) = f_L(1 - f_L) + f_R(1 - f_R), in [0, 1/2]."""
    e_arr, scalar = _as_array(eps)
    out = fermi_fluct(res.beta_L, res.mu_L, e_arr) + fermi_fluct(
        res.beta_R, res.mu_R, e_arr
    )
    return float(out) if scalar else out


def epsilon_zero(res: ReservoirPair):
    """The unique sign change of delta_f, or None when delta_beta == 0.

    eps0 = delta_beta_mu / delta_beta; with equal inverse temperatures
    delta_f never changes sign (its sign is that of mu_L - mu_R).
    """
    if res.delta_beta == 0.0:
        return None
    return res.delta_beta_mu / res.delta_beta


def g_ratio(res: ReservoirPair, eps):
    """Pointwise ratio g(eps) / delta_f(eps).

    Raises SingularityError at eps0 (g > 0 there while delta_f = 0) and for
    identical reservoirs (delta_f vanishes identically).
    """
    if res.identical:
        raise SingularityError("g_ratio undefined: identical reservoirs, delta_f == 0")
    e_arr, scalar = _as_array(eps)
    df = np.asarray(delta_f(res, e_arr))
    if np.any(df == 0.0):
        raise SingularityError(
            "g_ratio evaluated at a zero of delta_f (eps == eps0)"
        )
    out = np.asarray(g_noise(res, e_arr)) / df
    return float(out) if scalar else out


def g_ratio_limits(res: ReservoirPair):
    """The finite limits of g/delta_f at -inf and +inf.

    Computed from the dominant exponentials, never by sampling at huge
    energies.  For beta_L != beta_R the slower-decaying reservoir wins and
    the limits are -sign(delta_beta) at -inf... concretely:

        delta_beta < 0:  (-1, +1)
        delta_beta > 0:  (+1, -1)
        delta_beta == 0: both limits equal coth(beta delta_mu / 2)

    Returns (limit at -inf, limit at +inf).
    """
    if res.identical:
        raise SingularityError(
            "g_ratio_limits undefined: identical reservoirs, delta_f == 0"
        )
    db = res.delta_beta
    if db < 0:
        return (-1.0, 1.0)
    if db > 0:
        return (1.0, -1.0)
    c = 1.0 / math.tanh(res.beta_L * res.delta_mu / 2.0)
    return (c, c)


def tail_signs(res: ReservoirPair):
    """Sign of delta_f deep in each tail: (sign at -inf, sign at +inf).

    0 only for identical reservoirs.
    """
    db = res.delta_beta
    if db != 0.0:
        s = 1.0 if db > 0 else -1.0
        return (s, -s)
    s = math.copysign(1.0, res.delta_mu) if res.delta_mu != 0.0 else 0.0
    return (s, s)
