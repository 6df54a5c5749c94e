"""Command-line front end: batch experiments with plot-ready output.

Subcommands: `noise` (OU driver diagnostics), `simulate` (one forward
trajectory), `pullback` (pullback schedule for one noise realization),
`verify` (the full verification report), `attractor` (attractor
approximation and bi-spatial convergence).  Every number in CSV output is
written with 17 significant digits and reports carry no wall-clock data, so
identical configs and seeds reproduce identical bytes regardless of
`--threads`; timing lives only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, diagnostics as dg
from .config import ConfigError, check_forcing, read_config, resolve
from .fields import bump_field, open_new, write_snapshot
from .model import FhnState, solve, solve_batch
from .noise import GridAlignmentError, OuProcess, RunError, WienerPath, step_index, temperedness_probe


def _fmt(x):
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):  # strict JSON has no NaN or infinity
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_csv(path, header, rows):
    with open_new(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in row) + "\n")


def write_json(path, payload):
    with open_new(path) as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


class Manifest:
    def __init__(self, cfg, threads):
        self.cfg = cfg
        self.threads = threads
        self.t0 = time.time()
        self.artifacts = []
        self.summary = {}
        self.error = None

    def add(self, path):
        self.artifacts.append(str(path))
        return path

    def write(self, out):
        payload = {
            "config_hash": self.cfg.config_hash if self.cfg else None,
            "tool_version": __version__,
            "seed": self.cfg.seed if self.cfg else None,
            "threads": self.threads,
            "wall_clock_seconds": time.time() - self.t0,
            "checks": self.summary,
            "error": self.error,
            "artifacts": sorted(self.artifacts),
        }
        write_json(out / "manifest.json", payload)


def _standard_init(spec, t=0.0):
    u0 = bump_field(spec.grid, amplitude=1.0, width=6.0)
    v0 = bump_field(spec.grid, center=4.0, amplitude=1.0, width=6.0)
    return FhnState(t, u0, v0)


class WorkerError(RuntimeError):
    """An exception of a worker process, carried back as its type name and message.

    Any exception pickles this way; one whose class the parent cannot
    rebuild from its pickle would leave the parent's pool waiting forever.
    """

    def __init__(self, type_name, message):
        super().__init__(f"{type_name} in a worker process: {message}")
        self.type_name = type_name
        self.message = message

    def __reduce__(self):
        return (type(self), (self.type_name, self.message))


# the task of the running _map_ordered; forked workers inherit it, so the
# closures mapped need no pickling (only their arguments and results do)
_TASK = None


def _run_task(chunk):
    try:
        return _TASK(chunk)
    except RunError:  # they pickle; main() turns them into exit code 2
        raise
    except Exception as exc:
        raise WorkerError(type(exc).__name__, str(exc)) from None


def _map_ordered(fn, items, workers):
    """fn(items) for an `fn` that returns one result per item, over worker processes.

    Each forked worker gets one contiguous chunk of the items, so the worker
    count changes only how many items one call of `fn` handles.  The work
    is many small numpy calls that hold the GIL, so threads would run it
    slower than one; processes do not share it.  Results come back in item
    order, so reductions over them do not depend on the worker count.
    """
    global _TASK
    workers = min(workers, len(items))
    if workers <= 1:
        return fn(items)
    n = len(items)
    chunks = [items[n * i // workers : n * (i + 1) // workers] for i in range(workers)]
    _TASK = fn
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.map(_run_task, chunks)
    finally:
        _TASK = None
    return [result for part in parts for result in part]


def _record_checks(checks, out, manifest):
    """(report entries {"name", "pass", **details}, joined fixtures) of `checks`;
    writes their tables and enters their verdicts in the manifest."""
    fixtures = {}
    for c in checks:
        fixtures.update(c.fixtures)
        if c.table:
            name, header, rows = c.table
            write_csv(manifest.add(out / name), header, rows)
    manifest.summary.update((c.name, c.passed) for c in checks)
    return [{"name": c.name, "pass": c.passed, **c.details} for c in checks], fixtures


# ---------------------------------------------------------------------------
# subcommands


def cmd_noise(cfg, out, args, manifest, forcing):
    spec = cfg.model_spec()
    dt = cfg["solver.dt"]
    horizon = cfg["experiment.horizon"]
    n = step_index(horizon, dt)
    # the series samples [-n, n] every n // 2000 steps and the temperedness
    # probe [-n, 0] every n // 500, backward from 0; one read of each
    # process serves both, so no block is filled twice
    stride, back = max(1, n // 2000), max(1, n // 500)
    js = np.arange(-n, n + 1, stride)
    ks = np.arange(0, n + 1, back)
    ts = ks * dt
    spans = [(-n, n, stride), (-int(ks[-1]), 0, back)]
    (z1, p1), (z2, p2) = (OuProcess(cfg.seed, 1, spec.lam, dt).read(spans),
                          OuProcess(cfg.seed, 2, spec.sigma, dt).read(spans))
    write_csv(
        manifest.add(out / "ou_series.csv"),
        ["t", "z1", "z2"],
        zip(js * dt, z1, z2),
    )
    rows = []
    passed = True
    for name, z, expo in (("z1", p1, spec.p), ("z2", p2, 2.0)):
        series, ok = temperedness_probe(ts, z[::-1], spec.delta, expo, horizon)
        passed = passed and ok
        rows.extend((name, t, s) for t, s in zip(ts, series))
    write_csv(manifest.add(out / "ou_temperedness.csv"), ["component", "t", "series"], rows)
    manifest.summary["ou_temperedness"] = passed
    return 0 if passed else 1


def cmd_simulate(cfg, out, args, manifest, forcing):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    tau = cfg["experiment.tau"]
    traj = solve(spec, solver, path, tau, tau + args.duration, _standard_init(spec, tau))
    write_csv(
        manifest.add(out / "trajectory.csv"),
        ["t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2", "energy"],
        zip(traj.t, traj.u_l2sq, traj.v_l2sq, traj.u_lp_p, traj.utilde_lp_p, traj.z1, traj.z2, traj.energy),
    )
    manifest.summary["simulate"] = True
    return 0


def cmd_pullback(cfg, out, args, manifest, forcing):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(tau, [path], fam, spec, solver, cfg.t_schedule())
    _, dist = dg.sample_defects(runs, spec.p)
    nan = (float("nan"), float("nan"))
    rows = [
        (r.t, r.sample_id, r.seed, r.traj.u_l2sq[-1], r.traj.v_l2sq[-1], r.traj.u_lp_p[-1],
         *dist.get((r.t, r.sample_id), nan))
        for r in sorted(runs, key=lambda r: (r.t, r.sample_id))
    ]
    write_csv(
        manifest.add(out / "pullback.csv"),
        ["t_elapsed", "sample_id", "seed", "u_l2sq", "v_l2sq", "u_lp_p",
         "dist_to_prev_t_l2", "dist_to_prev_t_lp"],
        rows,
    )
    manifest.summary["pullback"] = True
    return 0


def cmd_verify(cfg, out, args, manifest, forcing):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    horizon = cfg["experiment.horizon"]
    t_schedule = cfg.t_schedule()
    M_schedule = cfg.M_schedule()

    def paths(count):
        return [WienerPath(seed=seed, dt=solver.dt) for seed in range(cfg.seed, cfg.seed + count)]

    # the energy trajectories and each seed's pullback runs, then the
    # constants fitted on them
    init = _standard_init(spec, tau)
    energy_trajs = _map_ordered(
        lambda chunk: solve_batch(spec, solver, [(path, init) for path in chunk], tau + dg.ENERGY_WINDOW),
        paths(cfg["experiment.energy_seed_count"]), args.threads)
    c_noise = dg.calibrate_noise_constant(energy_trajs, spec)
    pull_paths = paths(cfg["experiment.seed_count"])
    ensembles = _map_ordered(
        lambda chunk: dg.run_pullback_ensemble(tau, chunk, fam, spec, solver, t_schedule,
                                               snapshot_stride=cfg["solver.snapshot_stride"]),
        pull_paths, args.threads)
    all_runs = [r for runs in ensembles for r in runs]
    c_cal, degenerate = dg.calibrate_constant([r.traj for r in all_runs], spec, tau)
    # both radii of a seed integrate one OU history, dropped before the next
    radii, rho_radii, c_lp = [], [], dg.CALIBRATION_FLOOR
    for path, runs in zip(pull_paths, ensembles):
        z = dg.ou_history(path, spec, horizon)
        radii.append(dg.absorbing_radius(spec, c_cal, forcing, z, solver.dt))
        rho_radii.append(dg.rho_radius(runs, spec, forcing, z, solver.dt))
        c_lp = max(c_lp, dg.calibrate_lp_constant(runs, tau, radii[-1]))
        del z

    t_check = [t for t in t_schedule if t >= 8.0] or t_schedule
    checks = [
        dg.verify_energy_inequality(energy_trajs, spec, c_noise, cfg["tolerances.energy_abs"],
                                    cfg["tolerances.energy_rel"]),
        dg.absorption_report(ensembles, radii, t_check),
        dg.compact_interval_report(ensembles, radii, c_lp, tau),
        dg.radius_temperedness(pull_paths[0], spec, c_cal, forcing, horizon),
        dg.chebyshev_report(all_runs, M_schedule),
        dg.truncation_tail_report(ensembles, spec, M_schedule, cfg["tolerances.eta"]),
        dg.bispatial_report(ensembles, rho_radii, spec, cfg["tolerances.defect"]),
    ]
    entries, fixtures = _record_checks(checks, out, manifest)
    all_pass = all(c.passed for c in checks)
    report = {
        "config_hash": cfg.config_hash,
        "tool_version": __version__,
        "seed": cfg.seed,
        "checks": entries,
        "fixtures": {"c_noise": c_noise, "c_cal": c_cal, "c_cal_degenerate": degenerate, **fixtures},
        "pass": all_pass,
    }
    path = manifest.add(out / "report.json")
    write_json(path, report)
    if not all_pass:
        print(f"verification FAILED; see {path}", file=sys.stderr)
        return 1
    return 0


def cmd_attractor(cfg, out, args, manifest, forcing):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(tau, [path], fam, spec, solver, cfg.t_schedule())
    # the verdict of `verify` for this one seed
    horizon = cfg["experiment.horizon"]
    rho = dg.rho_radius(runs, spec, forcing, dg.ou_history(path, spec, horizon), solver.dt)
    check = dg.bispatial_report([runs], [rho], spec, cfg["tolerances.defect"])
    (entry,), fixtures = _record_checks([check], out, manifest)
    ap = dg.attractor_from_runs(runs, spec.p)
    for i, (u, v) in enumerate(ap.points):
        write_snapshot(u, manifest.add(out / f"attractor_u_{i:03d}.txt"), tau)
        write_snapshot(v, manifest.add(out / f"attractor_v_{i:03d}.txt"), tau)
    report = {
        "tau": tau,
        "seed": cfg.seed,
        "points": len(ap.points),
        "provenance": ap.provenance,
        "pairwise_l2": ap.pairwise_l2,
        "pairwise_lp": ap.pairwise_lp,
        "bispatial": entry,
        "fixtures": fixtures,
    }
    path_json = manifest.add(out / "attractor.json")
    write_json(path_json, report)
    if not check.passed:
        print(f"bi-spatial convergence FAILED; see {path_json}", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "noise": cmd_noise,
    "simulate": cmd_simulate,
    "pullback": cmd_pullback,
    "verify": cmd_verify,
    "attractor": cmd_attractor,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="fhnrds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes over independent seeds (verify)")
        if name == "simulate":
            p.add_argument("--duration", type=float, default=8.0)
    return parser


def main(argv=None):
    """Run one subcommand; 0 when its verdicts pass, 1 when one fails, 2 on
    an invalid config or a failed run, each with the error in the manifest.
    Any other exception is a bug: it is named in the manifest and re-raised."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(None, args.threads)
    try:
        try:
            values = read_config(args.config) if args.config else {}
            if args.seed is not None:
                values["seed"] = args.seed
            cfg = resolve(values)
            if args.command == "simulate" and not 0 <= args.duration < math.inf:
                raise ConfigError(f"--duration must be finite and nonnegative, got {args.duration}")
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {args.threads}")
            # the forcing history quadrature, which verify and attractor reuse;
            # noise reads only lambda, sigma, p and delta
            forcing = None if args.command == "noise" else check_forcing(cfg)
            factors = (cfg["experiment.seed_count"], len(cfg.t_schedule()), cfg["family.sample_count"])
            if args.command == "verify" and math.prod(factors) < dg.CALIBRATION_MIN_RUNS:
                raise ConfigError(
                    f"verify fits its constants on at least {dg.CALIBRATION_MIN_RUNS} pullback runs; "
                    f"experiment.seed_count x entries of schedules.t x family.sample_count = "
                    f"{' x '.join(map(str, factors))} = {math.prod(factors)}"
                )
            # verify's own times, which no config key sets: only solver.dt can move them off the grid
            own = [(cfg["experiment.tau"] + dg.ENERGY_WINDOW, "energy_inequality")]
            own += [(t, "radius_temperedness") for t in dg.TEMPEREDNESS_TIMES]
            for t, check in own if args.command == "verify" else ():
                try:
                    step_index(t, cfg["solver.dt"])
                except GridAlignmentError as exc:
                    raise ConfigError(f"solver.dt: {exc}, a time of verify's {check} check") from None
            manifest.cfg = cfg
        except (OSError, ValueError) as exc:  # ConfigError, StructureViolation, spec and grid checks
            manifest.error = f"invalid config: {exc}"
        else:
            status = COMMANDS[args.command](manifest.cfg, out, args, manifest, forcing)
    except RunError as exc:  # a blow-up, an off-grid time or a calibration failure
        manifest.error = f"{exc.kind}: {exc}"
    except BaseException as exc:  # a bug or an interrupt: no manifest may read as a success
        manifest.error = f"internal: {type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.write(out)
    if manifest.error:
        print(manifest.error, file=sys.stderr)
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
