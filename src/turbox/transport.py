"""Landauer-Buttiker functionals for arbitrary transmission functions.

Currents, particle-current variance, entropy production and engine
diagnostics.  I, J and the variance come from one adaptive Gauss-Kronrod
pass over the effective support window, whose panels serve all three
integrands, with delta_f and g from the same kernel as the boxcar module
(all integrands decay like e^{-beta |eps|}; the neglected tails are
bounded analytically and folded into the reported error estimates).

The variance integrand is evaluated through the identity

    f_L + f_R - 2 f_L f_R = g + delta_f^2,

so it reads T*g + T(1-T)*delta_f^2 -- manifestly nonnegative and free of
the cancellation that saturated occupations would cause in the tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .boxcar import BoxcarSet, _fields, _workspace
from .errors import ValidationError
from .physics import ReservoirPair
from .quadrature import adaptive_panels, tail_moment_bound

__all__ = [
    "Transmission",
    "BoxcarTransmission",
    "TabulatedTransmission",
    "ClosedFormTransmission",
    "load_transmission_csv",
    "TransportSummary",
    "currents",
    "variance",
    "summary",
]

# |I| below this multiple of the integrand scale counts as "no current":
# fano and tur_ratio are then reported absent.
_ZERO_CURRENT_RTOL = 1e-12


class Transmission:
    """An energy-indexed function with values in [0, 1].

    Subclasses implement __call__ on scalars or arrays and may report
    breakpoints (discontinuities / knots) to seed the quadrature.
    """

    def __call__(self, eps):
        raise NotImplementedError

    def breakpoints(self):
        return ()


@dataclass(frozen=True)
class BoxcarTransmission(Transmission):
    """Indicator of a BoxcarSet."""

    boxcar: BoxcarSet

    def __call__(self, eps):
        return self.boxcar.indicator(eps)

    def breakpoints(self):
        return tuple(self.boxcar.finite_endpoints())


class TabulatedTransmission(Transmission):
    """Piecewise-linear interpolation of sorted (energy, value) samples.

    Clamped to [0, 1]; zero outside the sampled range.  Densify the table
    to reduce interpolation error.
    """

    def __init__(self, energies, values):
        e = np.asarray(energies, dtype=float)
        v = np.asarray(values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape or e.size < 2:
            raise ValidationError("need matching 1-d arrays with at least 2 samples")
        bad = np.nonzero(~(np.diff(e) > 0))[0]
        if bad.size:
            raise ValidationError(
                f"energies must be strictly increasing (first violation at "
                f"sample {bad[0] + 2})"
            )
        bad = np.nonzero((v < 0.0) | (v > 1.0) | ~np.isfinite(v))[0]
        if bad.size:
            raise ValidationError(
                f"transmission values must lie in [0, 1] (violated at sample "
                f"{bad[0] + 1}: {v[bad[0]]!r})"
            )
        self.energies = e
        self.values = v

    def __call__(self, eps):
        out = np.interp(np.asarray(eps, dtype=float), self.energies, self.values,
                        left=0.0, right=0.0)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if np.ndim(eps) == 0 else out

    def breakpoints(self):
        # every knot is a kink: quadrature must not step over a narrow peak
        return tuple(self.energies)


@dataclass(frozen=True)
class ClosedFormTransmission(Transmission):
    """Named formula with parameters; `func` maps energy arrays to values,
    and `breaks` holds the energies (narrow peaks, kinks) that quadrature
    must not step over."""

    name: str
    params: tuple
    func: Callable
    breaks: tuple = ()

    def __call__(self, eps):
        out = np.asarray(self.func(np.asarray(eps, dtype=float)), dtype=float)
        return float(out) if np.ndim(eps) == 0 else out

    def breakpoints(self):
        return self.breaks


def load_transmission_csv(path) -> TabulatedTransmission:
    """Read a `energy,transmission` CSV; violations are rejected with the
    offending file row number (header is row 1)."""
    energies = []
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["energy", "transmission"]:
            raise ValidationError(
                f"{path}: row 1: expected header 'energy,transmission', got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{path}: row {lineno}: expected 2 columns")
            try:
                e = float(parts[0])
                v = float(parts[1])
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}: non-numeric entry {line!r}"
                ) from None
            if energies and e <= energies[-1]:
                raise ValidationError(
                    f"{path}: row {lineno}: energies must be strictly increasing"
                )
            if not 0.0 <= v <= 1.0:
                raise ValidationError(
                    f"{path}: row {lineno}: transmission {v} outside [0, 1]"
                )
            energies.append(e)
            values.append(v)
    if len(energies) < 2:
        raise ValidationError(f"{path}: need at least 2 samples")
    return TabulatedTransmission(energies, values)


@dataclass(frozen=True)
class TransportSummary:
    """All steady-state observables for one (transmission, reservoirs) pair.

    eta_eff is None outside the engine regime (P, J_Q_L, J_Q_R all > 0);
    fano and tur_ratio are None when I vanishes within tolerance.
    """

    I: float
    J: float
    var_I: float
    sigma: float
    P: float
    J_Q_L: float
    J_Q_R: float
    eta_eff: Optional[float]
    fano: Optional[float]
    tur_ratio: Optional[float]

    def to_dict(self):
        return {
            "I": self.I,
            "J": self.J,
            "var_I": self.var_I,
            "sigma": self.sigma,
            "P": self.P,
            "J_Q_L": self.J_Q_L,
            "J_Q_R": self.J_Q_R,
            "eta_eff": self.eta_eff,
            "fano": self.fano,
            "tur_ratio": self.tur_ratio,
        }


def _validate_on_grid(T: Transmission, lo, hi):
    grid = np.linspace(lo, hi, 513)
    vals = np.asarray(T(grid), dtype=float)
    bad = np.nonzero((vals < -1e-12) | (vals > 1.0 + 1e-12) | ~np.isfinite(vals))[0]
    if bad.size:
        raise ValidationError(
            f"transmission outside [0, 1] at eps={grid[bad[0]]}: {vals[bad[0]]!r}"
        )


def _tail_budget(res, lo, hi, moment):
    b = 0.0
    for beta, mu in ((res.beta_L, res.mu_L), (res.beta_R, res.mu_R)):
        b += tail_moment_bound(beta, mu, hi, moment, +1)
        b += tail_moment_bound(beta, mu, lo, moment, -1)
    return b


def _integrals(T: Transmission, res: ReservoirPair, abstol, reltol):
    """(I, J, V) and their error bounds from one adaptive pass over the
    window; the bounds add the analytic tail budgets to the panel estimates."""
    ws = _workspace(res)
    lo, hi = ws.quad_lo, ws.quad_hi
    _validate_on_grid(T, lo, hi)

    def integrands(x):
        t = np.asarray(T(x))
        df, g = _fields(res, x)[:2]
        tdf = t * df
        return np.stack((tdf, x * tdf, t * g + t * (1.0 - t) * df * df))

    (I, J, V), (e_I, e_J, e_V) = adaptive_panels(
        integrands, lo, hi, abstol, reltol, breakpoints=T.breakpoints()
    )
    tail_0 = _tail_budget(res, lo, hi, 0)
    return ((float(I), float(J), float(V)),
            (float(e_I) + tail_0, float(e_J) + _tail_budget(res, lo, hi, 1),
             float(e_V) + tail_0))


def currents(T: Transmission, res: ReservoirPair, abstol=1e-10, reltol=1e-8,
             full_output=False):
    """Particle and energy currents (I, J) for a transmission function.

    Each integral is converged to the requested tolerances by adaptive
    panels; a ConvergenceError carries the error estimates if the panel
    budget runs out.  With full_output=True, returns
    ((I, J), (err_I, err_J)) where the errors combine the panel estimates
    with the analytic bound on the truncated exponential tails.
    """
    (I, J, _), (e_I, e_J, _) = _integrals(T, res, abstol, reltol)
    if full_output:
        return (I, J), (e_I, e_J)
    return I, J


def variance(T: Transmission, res: ReservoirPair, abstol=1e-10, reltol=1e-8,
             full_output=False):
    """Particle-current variance for a transmission function (nonnegative)."""
    (_, _, V), (_, _, e_V) = _integrals(T, res, abstol, reltol)
    if full_output:
        return V, e_V
    return V


def summary(T: Transmission, res: ReservoirPair, abstol=1e-10, reltol=1e-8):
    """Full TransportSummary: currents, variance, entropy rate, power, heats,
    efficiency (engine regime only), Fano factor and TUR ratio."""
    (I, J, var_I), _ = _integrals(T, res, abstol, reltol)
    sigma = -res.delta_beta * J + res.delta_beta_mu * I
    P = -res.delta_mu * I
    J_Q_L = J - res.mu_L * I
    J_Q_R = J - res.mu_R * I
    eta_eff = P / J_Q_L if (P > 0.0 and J_Q_L > 0.0 and J_Q_R > 0.0) else None

    ws = _workspace(res)
    i_scale = _tail_budget(res, ws.quad_lo, ws.quad_hi, 0) + abs(
        res.mu_R - res.mu_L
    ) + 1.0 / min(res.beta_L, res.beta_R)
    if abs(I) > max(abstol, _ZERO_CURRENT_RTOL * i_scale):
        fano = var_I / abs(I)
        tur_ratio = var_I * sigma / (I * I)
    else:
        fano = None
        tur_ratio = None
    return TransportSummary(
        I=I,
        J=J,
        var_I=var_I,
        sigma=sigma,
        P=P,
        J_Q_L=J_Q_L,
        J_Q_R=J_Q_R,
        eta_eff=eta_eff,
        fano=fano,
        tur_ratio=tur_ratio,
    )
