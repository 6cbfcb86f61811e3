"""Each output check passes on real turbox output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses

import common

common.pin_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

tb = common.load_turbox()
FIG3G = tb.ReservoirPair.from_temperatures(*workloads.FIG3G)


@pytest.fixture(scope="module")
def region_map():
    return tb.compute_region_map(FIG3G, n_boundary=16, n_topology=(4, 4))


def test_boundary_shape(region_map):
    rows = [list(r) for r in region_map.boundary]
    assert checks.boundary_shape(rows) == []
    # one point pushed just past the chord of its neighbours
    bumped = copy.deepcopy(rows)
    bumped[7][1] = 0.5 * (rows[6][1] + rows[8][1]) + 1e-6
    assert checks.boundary_shape(bumped)
    dented = copy.deepcopy(rows)
    dented[7][2] = 0.5 * (rows[6][2] + rows[8][2]) - 1e-6
    assert checks.boundary_shape(dented)


def test_column_ends(region_map):
    topo = list(region_map.topology)
    assert checks.column_ends(topo) == []
    I, J, _, _, _ = topo[0]
    assert checks.column_ends([(I, J, 2, False, False)] + topo[1:])
    I, J, _, _, _ = topo[3]
    assert checks.column_ends(topo[:3] + [(I, J, 1, False, False)] + topo[4:])


def test_target_count(region_map):
    assert checks.target_count(region_map.topology, 16) == []
    assert checks.target_count(region_map.topology[1:], 16)


def test_resolved_boxcar(region_map):
    I, J, count, li, ri = region_map.topology[5]
    sol = tb.solve_multipliers(FIG3G, I, J)
    sig = (count, li, ri)
    assert checks.resolved_boxcar(FIG3G, I, J, sol, sig) == []

    a, b = sol.boxcar.intervals[0]
    moved = tb.BoxcarSet(((a, b + 1e-3),) + sol.boxcar.intervals[1:])
    assert checks.resolved_boxcar(FIG3G, I, J, dataclasses.replace(sol, boxcar=moved), sig)
    assert checks.resolved_boxcar(
        FIG3G, I, J, dataclasses.replace(sol, var_opt=sol.var_opt * (1 + 1e-6)), sig)
    assert checks.resolved_boxcar(FIG3G, I, J, sol, (count + 1, li, ri))
    # multipliers whose boxcar is not this one break the sign condition
    m = sol.multipliers
    shifted = tb.Multipliers(m.lam, m.eta + 0.05 * (1.0 + abs(m.eta)))
    assert checks.resolved_boxcar(
        FIG3G, I, J, dataclasses.replace(sol, multipliers=shifted), sig)


def test_verify_report():
    res = tb.ReservoirPair.from_temperatures(*workloads.FIG2)
    cells = tb.discretize(res, tb.mass_window(res), 16)
    _, B, C, _ = cells.arrays()
    tau = np.random.default_rng(3).random(16)
    report = tb.verify(res, float(B @ tau), float(C @ tau), N=16)
    assert checks.verify_report(report) == []

    def perturbed(**changes):
        return checks.verify_report({**report, **changes})

    assert perturbed(verdict="FAIL")
    assert perturbed(discrete_Q=report["continuous_var"] - 1e-8)
    assert perturbed(refined_Q=report["continuous_var"] - 1e-8)
    assert perturbed(discrete_L=report["discrete_Q"] + 1e-9)


@pytest.fixture(scope="module")
def sweep():
    params = (0.1, 0.08, 0.0, 1.5)
    grid = workloads.bias_grid()[::8]
    return params, grid, tb.fano_sweep(*params, dmu_grid=grid)


def test_sweep_rows(sweep):
    params, grid, rows = sweep
    beta = params[3]
    assert checks.sweep_rows(rows, beta, grid) == []
    assert checks.sweep_rows(rows[:-1], beta, grid)
    worse = [dict(r) for r in rows]
    worse[2]["var_opt"] = worse[2]["var_model"] * 1.01
    assert checks.sweep_rows(worse, beta, grid)
    off = [dict(r) for r in rows]
    off[4]["var_opt"] *= 1 + 1e-5
    assert checks.sweep_rows(off, beta, grid)


def test_model_rows(sweep):
    params, grid, rows = sweep
    every = range(len(rows))
    assert checks.model_rows(rows, params, every) == []
    for key in ("I", "var_model"):
        off = [dict(r) for r in rows]
        off[3][key] *= 1 + 1e-6
        assert checks.model_rows(off, params, every)
