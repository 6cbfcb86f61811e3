"""Spans around the calls into each turbox layer, recorded from outside.

`Tracer.install` replaces the traced functions in every turbox module
namespace that holds them (the names each module imports, and the package
re-exports) with a wrapper that records one span: layer-qualified name,
parent span, and process CPU time at entry and exit.  Nothing under `src/`
changes.  The namespaces of `physics` and `quadrature` themselves keep the
originals, so their spans are the calls other layers make into them and
their internal helper calls count as their own self time.

Spans stay in memory, in flat integer arrays, until `write` saves them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced; the layer is the module name
TRACED = (
    ("physics", ("delta_f", "g_noise", "df_g_arrays")),
    ("quadrature", ("gk15_batched", "gk15_per_panel", "adaptive_panels")),
    ("boxcar", ("solve_boxcar", "boxcar_current", "boxcar_energy_current",
                "boxcar_variance", "multiplier_jacobian")),
    ("inverse", ("solve_multipliers",)),
    ("region", ("current_bounds", "j_extrema", "bifurcation_curves",
                "compute_region_map")),
    ("oracle", ("mass_window", "discretize", "solve_discrete", "verify")),
    ("transport", ("currents", "variance", "summary")),
    ("analysis", ("fano_sweep",)),
)
# layers whose own namespace keeps the originals (see module docstring)
CALLED_FROM_OUTSIDE_ONLY = ("physics", "quadrature")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.physics_points = 0
        self._stack = []

    def _id(self, label):
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        return self.name_id[label]

    def wrap(self, label, fn):
        nid = self._id(label)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.process_time_ns
        count_points = label.startswith("physics.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            if count_points:
                eps = args[1] if len(args) > 1 else kwargs["eps"]
                self.physics_points += int(np.size(eps))
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every binding of the traced functions; restore on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "turbox" or name.startswith("turbox."))]
        patched = []
        for layer, names in TRACED:
            home = sys.modules.get(f"turbox.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:  # gone from this version: its metrics read 0
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    if mod is home and layer in CALLED_FROM_OUTSIDE_ONLY:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    # -- analysis of the recorded spans -----------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, parent, dur, dur - child

    def forward_solves_per_solve(self):
        """Forward solves (solve_boxcar spans) under each solve_multipliers
        span, counting only those whose nearest solve_multipliers ancestor
        it is."""
        solve = self.name_id.get("inverse.solve_multipliers")
        fwd = self.name_id.get("boxcar.solve_boxcar")
        if solve is None:
            return []
        owner = [-1] * len(self.span_name)
        counts = {}
        for i, (nid, par) in enumerate(zip(self.span_name, self.parent)):
            if nid == solve:
                owner[i] = i
                counts[i] = 0
            elif par >= 0:
                owner[i] = owner[par]
                if nid == fwd and owner[i] >= 0:
                    counts[owner[i]] += 1
        return [counts[i] for i in sorted(counts)]

    def write(self, path):
        """One line per span: id, parent id, name, CPU ns at entry and exit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i, (nid, par, s, e) in enumerate(
                zip(self.span_name, self.parent, self.start, self.end)
            ):
                fh.write(f"{i},{par},{names[nid]},{s},{e}\n")


def nearest_rank(values, q):
    """The q-quantile as an element of `values` (nearest-rank definition),
    so exact counts give exact, repeatable quantiles."""
    if not values:
        return 0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[k]


def layer_metrics(tracer):
    """The per-layer metrics of one traced run, by name."""
    name, _, dur, self_ns = tracer.arrays()
    ids = tracer.name_id

    def mask(labels):
        m = np.zeros(len(name), dtype=bool)
        for label in labels:
            if label in ids:
                m |= name == ids[label]
        return m

    def calls(*labels):
        return int(mask(labels).sum())

    def total(scale, *labels):
        return float(dur[mask(labels)].sum()) / scale

    def per_call(scale, *labels):
        n = calls(*labels)
        return total(scale, *labels) / n if n else 0.0

    def layer_self_s(layer):
        prefix = layer + "."
        m = mask([label for label in ids if label.startswith(prefix)])
        return float(self_ns[m].sum()) * 1e-9

    fwd = tracer.forward_solves_per_solve()
    moments = ("boxcar.boxcar_energy_current", "boxcar.boxcar_variance")
    physics_ns = float(self_ns[mask([f"physics.{n}" for n in TRACED[0][1]])].sum())
    points = tracer.physics_points
    return {
        "boxcar.solve_boxcar.calls": (calls("boxcar.solve_boxcar"), "count"),
        "boxcar.solve_boxcar.us_per_call": (per_call(1e3, "boxcar.solve_boxcar"), "us"),
        "boxcar.self_s": (layer_self_s("boxcar"), "s"),
        "boxcar.moments.calls": (calls(*moments), "count"),
        "boxcar.moments.us_per_call": (per_call(1e3, *moments), "us"),
        "boxcar.multiplier_jacobian.calls": (calls("boxcar.multiplier_jacobian"), "count"),
        "inverse.solves": (len(fwd), "count"),
        "inverse.fwd_per_solve.p50": (nearest_rank(fwd, 0.5), "count"),
        "inverse.fwd_per_solve.p90": (nearest_rank(fwd, 0.9), "count"),
        "inverse.ms_per_solve": (per_call(1e6, "inverse.solve_multipliers"), "ms"),
        "inverse.self_s": (layer_self_s("inverse"), "s"),
        "quadrature.gk15_batched.calls": (calls("quadrature.gk15_batched"), "count"),
        "quadrature.adaptive_panels.calls": (calls("quadrature.adaptive_panels"), "count"),
        "quadrature.self_s": (layer_self_s("quadrature"), "s"),
        "physics.points": (points, "count"),
        "physics.ns_per_point": (physics_ns / points if points else 0.0, "ns"),
        "transport.summary.ms_per_call": (per_call(1e6, "transport.summary"), "ms"),
        "oracle.discretize.ms_per_call": (per_call(1e6, "oracle.discretize"), "ms"),
        "oracle.solve_discrete.ms_per_call": (per_call(1e6, "oracle.solve_discrete"), "ms"),
        "region.j_extrema.calls": (calls("region.j_extrema"), "count"),
        "region.j_extrema.ms_per_call": (per_call(1e6, "region.j_extrema"), "ms"),
        "region.bifurcation_curves.s": (total(1e9, "region.bifurcation_curves"), "s"),
    }
