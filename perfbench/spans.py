"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of `fhnrds` where they are looked up
(`fhnrds.cocycle.solve`, `fhnrds.diagnostics.pullback`, ...), so no file
under `src/` changes.  Each call becomes a span (id, parent, thread, name,
start, end); a per-thread stack supplies the parent, so spans made in
`cli --threads 2` worker threads nest under their own thread's calls.
Counts (increments drawn, IMEX steps, bytes written, ...) are recorded at
the same boundaries.  `layer_metrics` turns a written trace into the
per-layer metrics named in README.md.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

DIAGNOSTICS = {
    "run_pullback_ensemble": "ensemble",
    "calibrate_noise_constant": "calibration",
    "calibrate_constant": "calibration",
    "calibrate_lp_constant": "calibration",
    "calibrate_rho_constant": "calibration",
    "absorbing_radius": "absorbing_radius",
    "radius_temperedness": "radius_temperedness",
    "energy_records": "energy_inequality",
    "verify_energy_inequality": "energy_inequality",
    "absorption_report": "absorption_report",
    "compact_interval_report": "compact_interval_report",
    "chebyshev_report": "chebyshev_report",
    "truncation_tail_report": "truncation_tail_report",
    "attractor_from_runs": "attractor",
    "bispatial_equality_check": "attractor",
    "containment_check": "attractor",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, thread, name, start, end)
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key, n):
        with self._lock:
            self.counts[key] += int(n)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, threading.get_ident(), name, start, end))

        return traced

    def patch(self, name, owners, attribute, adapt=None):
        """Replace `attribute` on every owner by one traced wrapper."""
        original = getattr(owners[0], attribute)
        fn = adapt(original) if adapt else original
        traced = self.wrap(name, fn)
        for owner in owners:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"{owner!r}.{attribute} is not the function traced as {name}")
            setattr(owner, attribute, traced)

    def install(self):
        """Wrap the layer boundaries of an imported fhnrds."""
        from fhnrds import cli, cocycle, config, diagnostics, model, noise

        self.patch("config.resolve", [config, cli], "resolve")

        def increments(fn):
            def counted(seed, k, dt):
                self.count("noise.increments", getattr(k, "size", 1))
                return fn(seed, k, dt)
            return counted

        def blocks(fn):
            def counted(proc, ms):
                ms = list(ms)
                new = len(set(m for m in ms if m not in proc._blocks))
                self.count("noise.ou_blocks", new)
                self.count("noise.ou_values_filled", new * proc.B)
                return fn(proc, ms)
            return counted

        self.patch("noise.wiener_increment", [noise], "wiener_increment", increments)
        self.patch("noise.ou_values", [noise.OuProcess], "values")
        self.patch("noise.ou_fill", [noise.OuProcess], "_compute_blocks", blocks)
        self.patch("fields.l2_sq", [model, diagnostics, cocycle], "l2_sq")
        self.patch("fields.lp_p", [model, diagnostics], "lp_p")

        def steps(fn):
            def counted(spec, solver, path, tau0, tau1, *args, **kwargs):
                k = noise.step_index(tau1, solver.dt) - noise.step_index(tau0, solver.dt)
                self.count("model.imex_steps", k)
                return fn(spec, solver, path, tau0, tau1, *args, **kwargs)
            return counted

        self.patch("model.solve", [cocycle, cli], "solve", steps)
        self.patch("model.implicit_solve", [model._ImplicitOperator], "solve")
        self.patch("model.operator_factorize", [model._ImplicitOperator], "__init__")
        self.patch("cocycle.pullback", [diagnostics], "pullback")
        self.patch("cocycle.sample_family", [diagnostics], "sample_family")
        for attribute in DIAGNOSTICS:
            self.patch(f"diagnostics.{attribute}", [diagnostics], attribute)

        def written(position):
            def adapt(fn):
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    self.count("cli.bytes_written", os.path.getsize(args[position]))
                    return result
                return counted
            return adapt

        for attribute, position in (("write_csv", 0), ("write_json", 0), ("write_snapshot", 1)):
            self.patch(f"cli.{attribute}", [cli], attribute, written(position))

    def write(self, path):
        """Spans as CSV, counts as one JSON comment line at the top."""
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(dict(self.counts), sort_keys=True) + "\n")
            fh.write("id,parent,thread,name,start,end\n")
            for s in sorted(self.spans):
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]!r},{s[5]!r}\n")


def read_trace(path):
    with open(path) as fh:
        counts = json.loads(fh.readline()[2:])
        fh.readline()
        spans = []
        for line in fh:
            sid, parent, thread, name, start, end = line.rstrip("\n").split(",")
            spans.append((int(sid), int(parent), int(thread), name, float(start), float(end)))
    return spans, counts


def union_length(intervals):
    total = 0.0
    hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            total += b - a
            hi = b
        elif b > hi:
            total += b - hi
            hi = b
    return total


PER_LAYER = (
    ("config.resolve_s", "s"),
    ("noise.increments", "count"),
    ("noise.increment_ns", "ns"),
    ("noise.ou_values_s", "s"),
    ("noise.ou_blocks", "count"),
    ("noise.increments_per_ou_value", "ratio"),
    ("fields.norm_calls", "count"),
    ("fields.norm_s", "s"),
    ("model.solve_calls", "count"),
    ("model.imex_steps", "count"),
    ("model.step_us", "us"),
    ("model.step_inclusive_us", "us"),
    ("model.implicit_solves", "count"),
    ("model.implicit_solve_us", "us"),
    ("model.operator_factorizations", "count"),
    ("cocycle.pullback_calls", "count"),
    ("cocycle.pullback_self_s", "s"),
    ("cocycle.sample_family_s", "s"),
    *((f"diagnostics.{key}_s", "s") for key in dict.fromkeys(DIAGNOSTICS.values())),
    ("diagnostics.absorbing_radius_calls", "count"),
    ("cli.energy_phase_s", "s"),
    ("cli.pullback_phase_s", "s"),
    ("cli.worker_busy_ratio", "ratio"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "count"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, counts, workers, traced_run_s, untraced_run_s):
    """Per-layer metrics from one traced run; 0 where a layer did not run."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def duration(s):
        return s[5] - s[4]

    def self_time(s):
        inside = [(max(c[4], s[4]), min(c[5], s[5])) for c in children[s[0]]]
        return duration(s) - union_length([iv for iv in inside if iv[1] > iv[0]])

    def under(s, name):
        p = s[1]
        while p:
            if by_id[p][3] == name:
                return True
            p = by_id[p][1]
        return False

    named = defaultdict(list)
    for s in spans:
        named[s[3]].append(s)

    def total(name, fn=duration):
        return sum(fn(s) for s in named[name])

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    m["config.resolve_s"] = total("config.resolve")
    inc = counts.get("noise.increments", 0)
    m["noise.increments"] = inc
    m["noise.increment_ns"] = per(total("noise.wiener_increment"), inc, 1e9)
    m["noise.ou_values_s"] = total("noise.ou_values")
    m["noise.ou_blocks"] = counts.get("noise.ou_blocks", 0)
    m["noise.increments_per_ou_value"] = per(inc, counts.get("noise.ou_values_filled", 0))
    m["fields.norm_calls"] = len(named["fields.l2_sq"]) + len(named["fields.lp_p"])
    m["fields.norm_s"] = total("fields.l2_sq") + total("fields.lp_p")
    steps = counts.get("model.imex_steps", 0)
    m["model.solve_calls"] = len(named["model.solve"])
    m["model.imex_steps"] = steps
    m["model.step_us"] = per(total("model.solve", self_time), steps, 1e6)
    m["model.step_inclusive_us"] = per(total("model.solve"), steps, 1e6)
    m["model.implicit_solves"] = len(named["model.implicit_solve"])
    m["model.implicit_solve_us"] = per(total("model.implicit_solve"), len(named["model.implicit_solve"]), 1e6)
    m["model.operator_factorizations"] = len(named["model.operator_factorize"])
    m["cocycle.pullback_calls"] = len(named["cocycle.pullback"])
    m["cocycle.pullback_self_s"] = total("cocycle.pullback", self_time)
    m["cocycle.sample_family_s"] = total("cocycle.sample_family")
    for attribute, key in DIAGNOSTICS.items():
        m[f"diagnostics.{key}_s"] = m.get(f"diagnostics.{key}_s", 0.0) + total(
            f"diagnostics.{attribute}", self_time
        )
    m["diagnostics.absorbing_radius_calls"] = len(named["diagnostics.absorbing_radius"])
    ensemble = "diagnostics.run_pullback_ensemble"
    solves = named["model.solve"]
    energy = [(s[4], s[5]) for s in solves if not under(s, ensemble)]
    m["cli.energy_phase_s"] = union_length(energy)
    pullback_phase = union_length([(s[4], s[5]) for s in named[ensemble]])
    m["cli.pullback_phase_s"] = pullback_phase
    busy = sum(duration(s) for s in solves if under(s, ensemble))
    m["cli.worker_busy_ratio"] = per(busy, pullback_phase * workers)
    m["cli.write_s"] = sum(total(f"cli.{a}") for a in ("write_csv", "write_json", "write_snapshot"))
    m["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    return m
