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
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, diagnostics as dg
from .config import read_config, resolve
from .fields import bump_field, write_snapshot
from .model import BlowUpError, FhnState, solve, solve_batch
from .noise import WienerPath, get_ou, merge_ou_blocks, ou_blocks, step_index, temperedness_probe


def _fmt(x):
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
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
            "config_hash": self.cfg.config_hash,
            "tool_version": __version__,
            "seed": self.cfg.seed,
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
    known = ou_blocks()
    try:
        results = _TASK(chunk)
    except BlowUpError:  # pickles with its fields; main() turns it into exit code 2
        raise
    except Exception as exc:
        raise WorkerError(type(exc).__name__, str(exc)) from None
    filled = {key: {m: b for m, b in blocks.items() if m not in known.get(key, {})}
              for key, blocks in ou_blocks().items()}
    return results, filled


def _map_ordered(fn, items, workers):
    """fn(items) for an `fn` that returns one result per item, over worker processes.

    Each forked worker gets one contiguous chunk of the items, so the worker
    count changes only how many items one call of `fn` handles.  The work
    is many small numpy calls that hold the GIL, so threads would run it
    slower than one; processes do not share it.  Results come back in item
    order, so reductions over them do not depend on the worker count.  The
    OU blocks the workers filled join this process's cache.
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
    results = []
    for part, blocks in parts:
        results.extend(part)
        merge_ou_blocks(blocks)
    return results


# ---------------------------------------------------------------------------
# subcommands


def cmd_noise(cfg, out, args, manifest):
    spec = cfg.model_spec()
    dt = cfg["solver.dt"]
    horizon = cfg["experiment.horizon"]
    ou1 = get_ou(cfg.seed, 1, spec.lam, dt)
    ou2 = get_ou(cfg.seed, 2, spec.sigma, dt)
    n = step_index(horizon, dt)
    stride = max(1, n // 2000)
    js = np.arange(-n, n + 1, stride)
    z1 = ou1.values(-n, n)[::stride]
    z2 = ou2.values(-n, n)[::stride]
    write_csv(
        manifest.add(out / "ou_series.csv"),
        ["t", "z1", "z2"],
        zip(js * dt, z1, z2),
    )
    rows = []
    passed = True
    for name, proc, expo in (("z1", ou1, spec.p), ("z2", ou2, 2.0)):
        ts, series, ok = temperedness_probe(proc, spec.delta, expo, horizon)
        passed = passed and ok
        rows.extend((name, t, s) for t, s in zip(ts, series))
    write_csv(manifest.add(out / "ou_temperedness.csv"), ["component", "t", "series"], rows)
    manifest.summary["ou_temperedness"] = passed
    return 0 if passed else 1


def cmd_simulate(cfg, out, args, manifest):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    tau = cfg["experiment.tau"]
    traj = solve(spec, solver, path, tau, tau + args.duration, _standard_init(spec))
    write_csv(
        manifest.add(out / "trajectory.csv"),
        ["t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2", "energy"],
        zip(traj.t, traj.u_l2sq, traj.v_l2sq, traj.u_lp_p, traj.utilde_lp_p, traj.z1, traj.z2, traj.energy),
    )
    manifest.summary["simulate"] = True
    return 0


def cmd_pullback(cfg, out, args, manifest):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(tau, [path], fam, spec, solver, cfg.t_schedule())
    by_key = {(r.t, r.sample_id): r for r in runs}
    ts = sorted(set(r.t for r in runs))
    rows = []
    for r in sorted(runs, key=lambda r: (r.t, r.sample_id)):
        prev = ts[ts.index(r.t) - 1] if ts.index(r.t) > 0 else None
        d2 = dp = float("nan")
        if prev is not None and (prev, r.sample_id) in by_key:
            q = by_key[(prev, r.sample_id)]
            d2 = dg.pair_dist((r.u_tilde, r.v_tilde), (q.u_tilde, q.v_tilde))
            dp = dg.pair_dist((r.u_tilde, r.v_tilde), (q.u_tilde, q.v_tilde), spec.p)
        rows.append(
            (r.t, r.sample_id, r.seed, r.traj.u_l2sq[-1], r.traj.v_l2sq[-1],
             r.traj.u_lp_p[-1], d2, dp)
        )
    write_csv(
        manifest.add(out / "pullback.csv"),
        ["t_elapsed", "sample_id", "seed", "u_l2sq", "v_l2sq", "u_lp_p",
         "dist_to_prev_t_l2", "dist_to_prev_t_lp"],
        rows,
    )
    manifest.summary["pullback"] = True
    return 0


def _verify_checks(cfg, out, manifest, threads):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    horizon = cfg["experiment.horizon"]
    t_schedule = cfg.t_schedule()
    checks = []
    fixtures = {}

    # energy inequality over the seed ensemble
    energy_seeds = list(range(cfg.seed, cfg.seed + cfg["experiment.energy_seed_count"]))

    def energy_trajs_of(seeds):
        init = _standard_init(spec, tau)
        members = [(WienerPath(seed=seed, dt=solver.dt), init) for seed in seeds]
        return solve_batch(spec, solver, members, tau + 4.0)

    energy_trajs = _map_ordered(energy_trajs_of, energy_seeds, threads)
    c_noise = dg.calibrate_noise_constant(energy_trajs, spec)
    worst = -np.inf
    energy_pass = True
    for traj in energy_trajs:
        rep = dg.verify_energy_inequality(
            traj, spec, c_noise,
            tol_abs=cfg["tolerances.energy_abs"], tol_rel=cfg["tolerances.energy_rel"],
        )
        energy_pass = energy_pass and rep["pass"]
        worst = max(worst, rep["worst_margin"])
    checks.append({"name": "energy_inequality", "pass": energy_pass,
                   "worst_margin": worst, "seeds": len(energy_seeds)})
    fixtures["c_noise"] = c_noise
    E0, D0, R0 = dg.energy_records(energy_trajs[0], spec, c_noise)
    write_csv(
        manifest.add(out / "energy_records.csv"),
        ["t", "E", "dissipation", "rhs"],
        zip(energy_trajs[0].t, E0, D0, R0),
    )

    # pullback ensembles per seed
    pull_seeds = list(range(cfg.seed, cfg.seed + cfg["experiment.seed_count"]))
    snapshot_stride = cfg["solver.snapshot_stride"]

    def seed_runs(seeds):
        paths = [WienerPath(seed=seed, dt=solver.dt) for seed in seeds]
        return list(zip(paths, dg.run_pullback_ensemble(
            tau, paths, fam, spec, solver, t_schedule, snapshot_stride=snapshot_stride
        )))

    ensembles = _map_ordered(seed_runs, pull_seeds, threads)
    all_runs = [r for _, runs in ensembles for r in runs]
    c_cal, degenerate = dg.calibrate_constant([r.traj for r in all_runs], spec, tau)
    fixtures["c_cal"] = c_cal
    fixtures["c_cal_degenerate"] = degenerate

    # absorption + compact-interval per seed
    t_check = [t for t in t_schedule if t >= 8.0] or t_schedule
    absorption_pass = True
    compact_pass = True
    absorption_times = {}
    c_lp = dg.CALIBRATION_FLOOR
    radii = {}
    for (path, runs), seed in zip(ensembles, pull_seeds):
        R = dg.absorbing_radius(tau, path, spec, c_cal, horizon)
        radii[seed] = R
        c_lp = max(c_lp, dg.calibrate_lp_constant(runs, spec, tau, R))
    for (path, runs), seed in zip(ensembles, pull_seeds):
        R = radii[seed]
        rep = dg.absorption_report(
            [r for r in runs if r.t in t_check], R.radius, fam, t_check
        )
        absorption_pass = absorption_pass and rep["pass"] and R.converged
        absorption_times[seed] = rep["absorption_time"]
        R_lp = c_lp * (R.constant_term + R.forcing_quad + R.ou_quad)
        ci = dg.compact_interval_report(runs, spec, R.radius, R_lp, tau)
        compact_pass = compact_pass and ci["pass"]
    checks.append({"name": "absorption", "pass": absorption_pass, "seeds": len(pull_seeds)})
    checks.append({"name": "compact_interval_bounds", "pass": compact_pass, "c_lp": c_lp})
    fixtures["absorption_time_by_seed"] = absorption_times

    # temperedness of the radius along the first path
    ts, series, temp_ok = dg.radius_temperedness(
        tau, ensembles[0][0], spec, c_cal, horizon, t_max=50.0, stride=2.0
    )
    checks.append({"name": "radius_temperedness",
                   "pass": bool(temp_ok and series[-1] <= 1e-6 * series[0]),
                   "decay": float(series[-1] / series[0])})
    write_csv(manifest.add(out / "radius_temperedness.csv"), ["t", "series"], zip(ts, series))

    # Chebyshev on every snapshot
    ch = dg.chebyshev_report(all_runs, cfg.M_schedule())
    checks.append(ch)

    # truncation tails, per seed fixture
    eta = cfg["tolerances.eta"]
    tails_pass = True
    M_star = {}
    tail_rows = []
    for (path, runs), seed in zip(ensembles, pull_seeds):
        tt = dg.truncation_tail_report(runs, spec, cfg.M_schedule(), eta)
        tails_pass = tails_pass and tt["pass"]
        if tt["max_abs_utilde"] > 0:  # zero dynamics makes the scale bound vacuous
            tails_pass = tails_pass and (
                tt["M_star"] is not None and tt["M_star"] <= 10.0 * tt["max_abs_utilde"]
            )
        M_star[seed] = tt["M_star"]
        tail_rows.extend((seed, M, s) for M, s in zip(tt["M_schedule"], tt["sup_tail"]))
    checks.append({"name": "truncation_tails", "pass": tails_pass, "eta": eta})
    fixtures["M_star_by_seed"] = M_star
    write_csv(manifest.add(out / "tail_vs_M.csv"), ["seed", "M", "sup_tail"], tail_rows)

    # bi-spatial attractor convergence per seed
    bis_pass = True
    defect_rows = []
    final_defects = {}
    for (path, runs), seed in zip(ensembles, pull_seeds):
        ap = dg.attractor_from_runs(runs, tau, seed, spec.p)
        bi = dg.bispatial_equality_check(ap, spec.p, tolerance=cfg["tolerances.defect"])
        rho_c = dg.absorbing_radius(tau, path, spec, 1.0, horizon, kind="rho")
        c_rho = dg.calibrate_rho_constant(runs, rho_c)
        rho = dg.absorbing_radius(tau, path, spec, c_rho, horizon, kind="rho")
        cc = dg.containment_check(ap, rho.radius)
        bis_pass = bis_pass and bi["pass"] and cc["pass"]
        final_defects[seed] = {"l2": bi["final_defect_l2"], "lp": bi["final_defect_lp"]}
        defect_rows.extend(
            (seed, t, d2, dp)
            for t, d2, dp in zip(bi["schedule"][1:], bi["defects_l2"], bi["defects_lp"])
        )
    checks.append({"name": "bispatial_equality", "pass": bis_pass})
    fixtures["final_defect_by_seed"] = final_defects
    write_csv(manifest.add(out / "defect_vs_t.csv"),
              ["seed", "t", "defect_l2", "defect_lp"], defect_rows)

    return checks, fixtures


def cmd_verify(cfg, out, args, manifest):
    checks, fixtures = _verify_checks(cfg, out, manifest, args.threads)
    all_pass = all(c["pass"] for c in checks)
    report = {
        "config_hash": cfg.config_hash,
        "tool_version": __version__,
        "seed": cfg.seed,
        "checks": checks,
        "fixtures": fixtures,
        "pass": all_pass,
    }
    path = manifest.add(out / "report.json")
    write_json(path, report)
    for c in checks:
        manifest.summary[c["name"]] = c["pass"]
    if not all_pass:
        print(f"verification FAILED; see {path}", file=sys.stderr)
        return 1
    return 0


def cmd_attractor(cfg, out, args, manifest):
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    tau = cfg["experiment.tau"]
    path = WienerPath(seed=cfg.seed, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(tau, [path], fam, spec, solver, cfg.t_schedule())
    ap = dg.attractor_from_runs(runs, tau, cfg.seed, spec.p)
    bi = dg.bispatial_equality_check(ap, spec.p, tolerance=cfg["tolerances.defect"])
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
        "cauchy_defect_l2": ap.cauchy_defect_l2,
        "cauchy_defect_lp": ap.cauchy_defect_lp,
        "bispatial": bi,
    }
    path_json = manifest.add(out / "attractor.json")
    write_json(path_json, report)
    manifest.summary["bispatial_equality"] = bi["pass"]
    if not bi["pass"]:
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
    args = build_parser().parse_args(argv)
    values = read_config(args.config) if args.config else {}
    if args.seed is not None:
        values["seed"] = args.seed
    cfg = resolve(values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(cfg, args.threads)
    try:
        status = COMMANDS[args.command](cfg, out, args, manifest)
    except BlowUpError as exc:
        manifest.error = f"blow-up: {exc}"
        print(manifest.error, file=sys.stderr)
        status = 2
    manifest.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
