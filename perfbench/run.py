"""Benchmark harness for fhnrds: four workloads, one command.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Every operation is one `fhnrds` subcommand, run by `child.py` in a fresh
interpreter started from this process, so the module caches start empty as
in a user's run.  A run repeats whole rounds of its workload's operation
until `--seconds` have passed (at least one round), checks every output
(see checks.py) and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (setup_s, run_s, peak_rss_mb); with
`--trace 1` one more round runs under the span recorder (spans.py) and the
metrics are the per-layer ones.  Without `--workload` every workload runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # children still running then are killed: a run ends within 180 s

VERIFY = """\
solver.dt = 0.002
experiment.seed_count = 2
experiment.energy_seed_count = 4
schedules.t = 2,7,12,17,18
schedules.M = 1e-3,0.01,0.1,0.25,0.5,1,2,4,8
"""

PULLBACK_2D = """\
grid.dim = 2
grid.n = 64
solver.dt = 0.002
schedules.t = 4,9,14
family.sample_count = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: str


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-1d", "verify", 1, VERIFY),
        Workload("verify-1d-2workers", "verify", 2, VERIFY),
        Workload("pullback-2d", "pullback", 1, PULLBACK_2D),
        Workload("noise-long", "noise", 1, "experiment.horizon = 2000\n"),
    )
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's BLAS pool would add threads beyond the workload's --threads
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def spawn(args, log, deadline):
    """Run child.py; returns (start stamp, exit code, peak RSS in MB).

    The peak RSS comes from wait4 on the child, which covers the child and
    every process it waited for.
    """
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage.ru_maxrss / 1024.0


def operation(w, cfg_path, seed, out, deadline, trace=None):
    """One fhnrds subcommand; returns a dict of its measurements."""
    out.mkdir(parents=True)
    result = out.parent / f"{out.name}.result.json"
    argv = [w.command, "--config", str(cfg_path), "--seed", str(seed),
            "--out", str(out), "--threads", str(w.threads)]
    extra = ["--trace", str(trace)] if trace else []
    start, code, rss = spawn(["--result", str(result), *extra, "--", *argv],
                             out.parent / f"{out.name}.log", deadline)
    if code != 0 or not result.exists():
        return {"ok": False, "error": f"{w.name}: child exited {code}, see {out.parent / out.name}.log"}
    r = json.loads(result.read_text())
    if r["status"] != 0:
        return {"ok": False, "error": f"{w.name}: fhnrds {w.command} returned {r['status']}"}
    return {"ok": True, "setup_s": r["setup_end"] - start, "run_s": r["run_s"], "peak_rss_mb": rss}


def setup_probe(cfg_path, seed, work, i, deadline):
    result = work / f"setup{i}.json"
    start, code, _ = spawn(["--result", str(result), "--setup-only", "--",
                            "noise", "--config", str(cfg_path), "--seed", str(seed)],
                           work / f"setup{i}.log", deadline)
    if code != 0:
        raise SystemExit(f"set-up failed, see {work / f'setup{i}.log'}")
    return json.loads(result.read_text())["setup_end"] - start


def check(w, out, cfg, reference):
    import checks

    try:
        if w.command == "verify":
            errors = checks.check_verify(out, cfg)
            if reference is not None:
                errors += checks.check_identical(out, reference)
            return errors
        if w.command == "pullback":
            return checks.check_pullback(out, cfg)
        return checks.check_noise(out, cfg)
    except (OSError, KeyError, IndexError, ValueError) as exc:  # missing or malformed outputs
        return [f"{w.name}: outputs of {out} unreadable: {exc!r}"]


def one_worker_output(w, seed):
    """Where a checked 1-worker output of this source tree, config and seed is kept.

    verify-1d stores its output there, and verify-1d-2workers compares with
    it when an earlier run in the same checkout made it.  It is not made
    when missing: that 1-worker operation would add about 20 s to a run.
    """
    h = hashlib.sha256(f"{w.command}\n{w.config}\n{seed}\n".encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return OUT / "threads1" / h.hexdigest()


def run_workload(w, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "workload.cfg"
    cfg_path.write_text(w.config)
    from fhnrds.config import load_config, resolve

    cfg = resolve({**dict(load_config(cfg_path).values), "seed": seed})
    errors = []
    setups = []
    attempted = failed = 0

    def attempt(name, reference=None, **kw):
        nonlocal attempted, failed
        out = work / name
        op = operation(w, cfg_path, seed, out, deadline, **kw)
        attempted += 1
        errs = [op["error"]] if not op["ok"] else check(w, out, cfg, reference)
        if errs:
            failed += 1
            errors.extend(errs)
            return None
        return op

    stored = one_worker_output(w, seed) if w.command == "verify" else None
    reference = stored if w.threads > 1 and stored.is_dir() else None

    rounds = []
    t_end = time.perf_counter() + seconds
    while True:
        op = attempt(f"round{attempted}", reference)
        if op:
            rounds.append(op)
            if w.threads == 1 and stored and not stored.is_dir():
                shutil.copytree(work / f"round{attempted - 1}", stored)
        if time.perf_counter() >= t_end:
            break
    while len(setups) + len(rounds) < 3:
        setups.append(setup_probe(cfg_path, seed, work, len(setups), deadline))

    metrics = {}
    if rounds:
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    if trace and rounds:
        import spans

        op = attempt("traced", reference, trace=work / "spans.csv")
        metrics = {}
        if op:
            recorded, counts = spans.read_trace(work / "spans.csv")
            layer = spans.layer_metrics(recorded, counts, w.threads, op["run_s"],
                                        statistics.median(r["run_s"] for r in rounds))
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {"correct": not errors and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fhnrds" / "__init__.py").is_file():
        print(f"no fhnrds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = [args.workload] if args.workload else list(WORKLOADS)
    print("machine " + json.dumps(machine(), sort_keys=True))
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        results[name] = res
        shown = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}: {shown}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
