"""Reference computations made apart from turbox.

Everything here is written from the textbook formulas with numpy/scipy
only, so a check built on it does not share code with what it checks:
Fermi functions through `scipy.special.expit`, the particle current from
the closed-form antiderivative of the Fermi function, the boxcar variance
from the antiderivative of f(1 - f), which is -f/beta, and every other
integral by `scipy.integrate.quad`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

# beyond beta|eps - mu| = 75 every integrand here is below e^-75 |eps|
CUTOFF_X = 75.0

Baths = namedtuple("Baths", "beta_L beta_R mu_L mu_R")


def symmetric_baths(beta, dmu):
    """beta_L = beta_R = beta and mu_R = -mu_L = dmu/2, as in a bias sweep."""
    return Baths(beta, beta, -dmu / 2.0, dmu / 2.0)


def fermi(beta, mu, eps):
    return expit(-beta * (np.asarray(eps, dtype=float) - mu))


def delta_f(res, eps):
    return fermi(res.beta_L, res.mu_L, eps) - fermi(res.beta_R, res.mu_R, eps)


def g_noise(res, eps):
    out = 0.0
    for beta, mu in ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R)):
        x = beta * (np.asarray(eps, dtype=float) - mu)
        out = out + expit(x) * expit(-x)
    return out


def _fermi_at(beta, mu, e):
    if e == math.inf:
        return 0.0
    if e == -math.inf:
        return 1.0
    return float(fermi(beta, mu, e))


def _delta_f_integral_to(res, e):
    """F_L(e) - F_R(e) with F(e) = -ln(1 + exp(-beta (e - mu))) / beta.

    Tends to mu_R - mu_L at -inf and to 0 at +inf."""
    if e == math.inf:
        return 0.0
    if e == -math.inf:
        return res.mu_R - res.mu_L
    out = 0.0
    for beta, mu, sgn in ((res.beta_L, res.mu_L, 1.0), (res.beta_R, res.mu_R, -1.0)):
        out -= sgn * np.logaddexp(0.0, -beta * (e - mu)) / beta
    return float(out)


def window(res):
    """Energies outside which every integrand is negligible."""
    lo = min(res.mu_L - CUTOFF_X / res.beta_L, res.mu_R - CUTOFF_X / res.beta_R)
    hi = max(res.mu_L + CUTOFF_X / res.beta_L, res.mu_R + CUTOFF_X / res.beta_R)
    return lo, hi


def boxcar_current(res, intervals):
    """Particle current of a boxcar set, from the closed-form antiderivative."""
    return sum(
        _delta_f_integral_to(res, b) - _delta_f_integral_to(res, a)
        for a, b in intervals
    )


def boxcar_variance(res, intervals):
    """Variance of a boxcar set: sum over both baths of (f(a) - f(b)) / beta."""
    total = 0.0
    for a, b in intervals:
        for beta, mu in ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R)):
            total += (_fermi_at(beta, mu, a) - _fermi_at(beta, mu, b)) / beta
    return total


def _quad(func, a, b, points):
    inner = sorted(p for p in points if a < p < b)
    value, _ = quad(func, a, b, points=inner or None, limit=400,
                    epsabs=1e-14, epsrel=1e-12)
    return value


def boxcar_energy_current(res, intervals):
    """Energy current of a boxcar set by `scipy.integrate.quad`."""
    lo, hi = window(res)
    total = 0.0
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if a < b:
            total += _quad(lambda e: e * float(delta_f(res, e)), a, b,
                           (res.mu_L, res.mu_R))
    return total


def residual(res, lam, eta, eps):
    """R(eps) = g(eps) - (lam eps + eta) delta_f(eps): the optimal
    transmission is 1 where R < 0 and 0 where R > 0."""
    eps = np.asarray(eps, dtype=float)
    return g_noise(res, eps) - (lam * eps + eta) * delta_f(res, eps)


def dqd(Gamma, Omega, omega, eps):
    """Double-dot transmission |t|^2 with resonances at omega +- sqrt(Omega^2 - Gamma^2/4)."""
    u2 = (np.asarray(eps, dtype=float) - omega) ** 2
    c = Omega**2 + Gamma**2 / 4.0
    return Gamma**2 * Omega**2 / ((u2 - c) ** 2 + Gamma**2 * u2)


def dqd_resonances(Gamma, Omega, omega):
    split = Omega**2 - Gamma**2 / 4.0
    if split <= 0.0:
        return [omega]
    s = math.sqrt(split)
    return [omega - s, omega, omega + s]


def model_current_and_variance(Gamma, Omega, omega, res):
    """(I, var_I) of the double-dot model by quad, with the resonance
    energies and both chemical potentials as break points."""
    lo, hi = window(res)
    points = dqd_resonances(Gamma, Omega, omega) + [res.mu_L, res.mu_R]

    def i_integrand(e):
        return float(dqd(Gamma, Omega, omega, e) * delta_f(res, e))

    def v_integrand(e):
        t = float(dqd(Gamma, Omega, omega, e))
        df = float(delta_f(res, e))
        return t * float(g_noise(res, e)) + t * (1.0 - t) * df * df

    return _quad(i_integrand, lo, hi, points), _quad(v_integrand, lo, hi, points)


def symmetric_boxcar_variance(beta, dmu, I_targets):
    """Variances of the symmetric boxcars [-a/2, a/2] carrying the currents
    I_targets, at beta_L = beta_R = beta and mu_R = -mu_L = dmu/2 (dmu and
    I_targets are arrays of one length).

    The width a comes from bisection on the exact current, which falls
    monotonically from 0 (a = 0) to -dmu (a = inf); the variance is the
    closed form 2 (1 - f_L - f_R) / beta at the right edge a/2.
    """
    I_t = np.asarray(I_targets, dtype=float)
    dmu = np.asarray(dmu, dtype=float)
    mu_L, mu_R = -dmu / 2.0, dmu / 2.0

    def anti(e):  # F_L(e) - F_R(e), as in _delta_f_integral_to
        return (np.logaddexp(0.0, -beta * (e - mu_R))
                - np.logaddexp(0.0, -beta * (e - mu_L))) / beta

    def current(a):
        return anti(a / 2.0) - anti(-a / 2.0)

    lo = np.zeros_like(I_t)
    hi = np.full_like(I_t, 2.0 * (dmu + CUTOFF_X / beta))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        wider = current(mid) > I_t
        lo = np.where(wider, mid, lo)
        hi = np.where(wider, hi, mid)
    half = 0.25 * (lo + hi)
    # 1 - f_L - f_R = (1 - f_R) - f_L
    one_minus = expit(beta * (half - mu_R)) - expit(-beta * (half - mu_L))
    return 2.0 * one_minus / beta
