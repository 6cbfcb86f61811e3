"""The three workloads: their inputs, their operations and their checks.

A workload is built from a seed (its set-up) and then yields rounds of
calls.  Round k is a pure function of (seed, k), so a run that stops
after any number of whole rounds has attempted the same operations as
every other run of that seed up to that point.  The region-map inset and
the bias-sweep parameters come from low-discrepancy sequences with a
seeded offset: any prefix of rounds covers its range evenly, so the work
in a run depends little on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# (T_L, T_R, mu_L, mu_R)
FIG2 = (1.0, 0.2, -1.0, 0.5)
FIG3G = (1.0, 0.2, 0.1, 0.6)

# additive recurrences x_k = frac(offset + k alpha) in 1 and 3 dimensions
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PHI3 = 1.2207440846057596  # real root of x^3 = x + 1
R3 = np.array([1.0 / _PHI3, 1.0 / _PHI3**2, 1.0 / _PHI3**3])


def bias_grid():
    """The 64-point bias grid of `turbox.analysis.default_bias_grid`:
    steps of 0.05 up to 2, then 24 geometric steps up to 40."""
    lin = np.arange(0.05, 2.0 + 1e-12, 0.05)
    return np.concatenate([lin, np.geomspace(2.0, 40.0, 25)[1:]])


@dataclass
class Call:
    """One timed call into turbox, standing for `attempted` operations."""

    run: Callable[[], Any]
    attempted: int
    inputs: Any


class RegionMap:
    """One `compute_region_map` on FIG3G per round; an op is one target of
    its topology grid.  The seed draws the boundary inset, which moves
    every target of every column."""

    name = "region-map"
    shape = (16, 16)
    n_boundary = 64
    min_ok = 1
    trace_rounds = 1
    resolved_per_map = 3

    def __init__(self, tb, seed):
        self.tb = tb
        self.seed = seed
        self.res = tb.ReservoirPair.from_temperatures(*FIG3G)
        self.offset = np.random.default_rng(seed).random()

    def inset(self, k):
        """Boundary inset in [1e-3, 3e-3), log-spaced."""
        u = (self.offset + k * GOLDEN) % 1.0
        return 1e-3 * 3.0**u

    def calls(self, k):
        inset = self.inset(k)
        region = self.tb.region

        def run():
            return region.compute_region_map(
                self.res, n_boundary=self.n_boundary, n_topology=self.shape,
                boundary_inset=inset,
            )

        return [Call(run, self.shape[0] * self.shape[1], inset)]

    @staticmethod
    def succeeded(out):
        return len(out.topology)

    def check(self, results):
        import checks

        problems = []
        n_targets = self.shape[0] * self.shape[1]
        for k, (call, rm) in enumerate(results):
            problems += checks.boundary_shape(rm.boundary)
            problems += checks.column_ends(rm.topology)
            problems += checks.target_count(rm.topology, n_targets)
            rng = np.random.default_rng([self.seed, k, 1])
            picks = rng.choice(len(rm.topology), self.resolved_per_map, replace=False)
            for p in picks:
                I, J, count, li, ri = rm.topology[p]
                sol = self.tb.inverse.solve_multipliers(self.res, I, J)
                problems += checks.resolved_boxcar(self.res, I, J, sol, (count, li, ri))
        return problems


class OracleVerify:
    """`verify(res, I, J, N=16)` at targets (B tau, C tau) of random cell
    transmissions tau on the reservoir's own 16-cell grid, feasible on it
    and on the 32 cells that refine it.

    Each round verifies four seeded targets on each of FIG2, FIG3G and the
    strongly unequal-beta pair, then the one equal-beta target below, which
    raises ValueError from solve_boxcar's sign scan every time.  Seeded
    equal-beta targets are left out: about one in twenty of them raises the
    same error, so the failed count would depend on the seed."""

    name = "oracle-verify"
    per_round = 4
    min_ok = 200
    trace_rounds = 2
    EQUAL_BETA = (1.0, 1.0, -1.0, 1.0)  # (beta_L, beta_R, mu_L, mu_R)
    FAILING_TARGET = (-0.9957676517660873, 0.049263828512937424)

    def __init__(self, tb, seed):
        self.tb = tb
        self.seed = seed
        RP = tb.ReservoirPair
        self.pairs = {
            "FIG2": RP.from_temperatures(*FIG2),
            "FIG3G": RP.from_temperatures(*FIG3G),
            "unequal-beta": RP(4.0, 0.3, -0.5, 1.5),
        }
        self.equal_beta = RP(*self.EQUAL_BETA)
        self.BC = {}
        for name, res in self.pairs.items():
            cells = tb.oracle.discretize(res, tb.oracle.mass_window(res), 16)
            _, B, C, _ = cells.arrays()
            self.BC[name] = (B, C)

    def _call(self, label, res, I, J):
        oracle = self.tb.oracle
        return Call(lambda: oracle.verify(res, I, J, N=16), 1, (label, I, J))

    def calls(self, k):
        rng = np.random.default_rng([self.seed, k])
        out = []
        for _ in range(self.per_round):
            for name, res in self.pairs.items():
                B, C = self.BC[name]
                tau = rng.random(B.size)
                out.append(self._call(name, res, float(B @ tau), float(C @ tau)))
        out.append(self._call("equal-beta", self.equal_beta, *self.FAILING_TARGET))
        return out

    @staticmethod
    def succeeded(out):
        return 1

    def check(self, results):
        import checks

        problems = []
        for call, report in results:
            problems += [f"{call.inputs}: {p}" for p in checks.verify_report(report)]
        return problems


class BiasSweep:
    """One `fano_sweep` over the 64-point bias grid per round, for a seeded
    double-dot (Gamma, Omega, beta) at omega = 0: Gamma log-uniform in
    [0.1, 0.5], Omega/Gamma in [0.2, 1.5] (single resonance below 0.5,
    split above), beta log-uniform in [1, 4].

    Gamma * beta stays at or above 0.1: below it the smallest biases carry
    currents under 1 % of the full-line current, where the lambda = 0
    inverse solve can miss its own current tolerance (see CHANGES.md)."""

    name = "bias-sweep"
    min_ok = 1
    trace_rounds = 6
    quad_rows_per_sweep = 4

    def __init__(self, tb, seed):
        self.tb = tb
        self.seed = seed
        self.grid = bias_grid()
        self.offset = np.random.default_rng(seed).random(3)

    def params(self, k):
        u = (self.offset + k * R3) % 1.0
        Gamma = 0.1 * 5.0 ** u[0]
        Omega = Gamma * (0.2 + 1.3 * u[1])
        beta = 4.0 ** u[2]
        return (float(Gamma), float(Omega), 0.0, float(beta))

    def calls(self, k):
        params = self.params(k)
        analysis = self.tb.analysis
        grid = self.grid
        return [Call(lambda: analysis.fano_sweep(*params, dmu_grid=grid), 1, params)]

    @staticmethod
    def succeeded(out):
        return 1

    def check(self, results):
        import checks

        problems = []
        for k, (call, rows) in enumerate(results):
            params = call.inputs
            found = checks.sweep_rows(rows, params[3], self.grid)
            if not found:
                rng = np.random.default_rng([self.seed, k, 2])
                picks = rng.choice(len(rows), self.quad_rows_per_sweep, replace=False)
                found = checks.model_rows(rows, params, sorted(picks))
            problems += [f"{params}: {p}" for p in found]
        return problems


WORKLOADS = {w.name: w for w in (RegionMap, OracleVerify, BiasSweep)}
