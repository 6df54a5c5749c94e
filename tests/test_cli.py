import gc
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from fhnrds import cli, config, diagnostics, model, noise
from fhnrds.config import ConfigError, DEFAULTS, default_config, load_config, parse_config_text
from fhnrds.model import BlowUpError, StructureViolation
from fhnrds.noise import GridAlignmentError, RunError, step_index

SMALL = """
# small domain for fast runs
grid.n = 64
grid.half_width = 8.0
"""

ZERO_DYNAMICS = SMALL + """
noise.enabled = false
forcing.g.amplitude = 0.0
forcing.h.amplitude = 0.0
family.base_radius = 0.0
experiment.seed_count = 2
experiment.energy_seed_count = 2
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nmodel.mass = 2\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("seed 1\n")


def test_parse_rejects_duplicate_and_bad_value():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("grid.n = many\n")
    # a string override of default_config goes through the same parse
    with pytest.raises(ConfigError, match="^bad value for 'grid.n': "):
        default_config(**{"grid.n": "many"})
    # a misspelt flag is rejected, not read as false
    with pytest.raises(ConfigError, match="line 2: bad value for 'noise.enabled'"):
        parse_config_text("seed = 1\nnoise.enabled = ture\n")
    for word, flag in (("1", True), ("TRUE", True), ("Yes", True),
                       ("0", False), ("false", False), ("NO", False)):
        assert parse_config_text(f"noise.enabled = {word}\n") == {"noise.enabled": flag}


@pytest.mark.parametrize("line", [
    "model.alpha2 = 0.5",  # structure condition 3.2
    "model.f.sign = nan",  # structure condition 3.1 with a NaN margin
    "model.alpha3 = 1",  # retired: 3.3 follows from 3.1 and needs no constant
    "noise.enabled = ture",  # not a flag
    "model.lambda = -1",  # coefficient positivity
    "grid.dim = 3",
    "family.gamma_fraction = 0.6",  # 2 gamma >= delta: not tempered
])
def test_cli_invalid_config_exit_2(tmp_path, capsys, line):
    cfgp = write_cfg(tmp_path, SMALL + line + "\n")
    out = tmp_path / "bad"
    assert cli.main(["noise", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert manifest["config_hash"] is None and manifest["artifacts"] == []
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_cli_verify_too_few_pullback_runs_exit_2(tmp_path, capsys):
    # 2 seeds x 1 schedule entry x 2 samples = 4 runs, below the 20 that
    # `calibrate_constant` fits on; the other subcommands fit nothing
    text = SMALL + "schedules.t = 8\nexperiment.seed_count = 2\nexperiment.energy_seed_count = 2\n"
    cfgp = write_cfg(tmp_path, text)
    out = tmp_path / "few"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.endswith(" = 2 x 1 x 2 = 4\n"), err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert cli.main(["pullback", "--config", cfgp, "--out", str(tmp_path / "pull")]) == 0


@pytest.mark.parametrize("command, line", [
    ("verify", "schedules.M = 2,1"),  # not increasing
    ("verify", "schedules.M = 0,1"),  # the superlevel set of M = 0 is the domain
    ("verify", "schedules.t = -2,4"),
    ("pullback", "schedules.t = -2,4"),
    ("attractor", "schedules.t = -2,4"),
    ("pullback", "schedules.t = 2,2,4"),  # each t = 2 run would be written twice
    ("verify", "schedules.t = 2,4,8,16,2"),
])
def test_cli_bad_schedule_exit_2_before_any_step(tmp_path, capsys, monkeypatch, command, line):
    def no_step(*args, **kwargs):
        raise AssertionError("a bad schedule reached the solver")

    monkeypatch.setattr(cli, "solve_batch", no_step)
    monkeypatch.setattr(diagnostics, "phi_batch", no_step)
    cfgp = write_cfg(tmp_path, SMALL + line + "\n")
    out = tmp_path / "bad"
    assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: schedules.") and err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command, line", [
    ("verify", "experiment.horizon = 40.0005"),
    ("attractor", "experiment.tau = 0.0005"),
    ("simulate", "experiment.tau = 1e-4"),
    ("pullback", "schedules.t = 2,4.0005"),
    ("noise", "schedules.t = 2,4.0005"),  # noise reads no schedule, but resolves the config
    # on-grid config times, but verify's temperedness series steps by 2.0 = 62.5 dt
    pytest.param("verify", "solver.dt = 0.032\nschedules.t = 4,8,16,32\nexperiment.seed_count = 5\n"
                 "experiment.energy_seed_count = 2", id="verify-solver.dt = 0.032"),
])
def test_cli_off_grid_config_time_exit_2_before_any_step(tmp_path, capsys, monkeypatch, command, line):
    def no_step(*args, **kwargs):
        raise AssertionError("an off-grid time reached the solver")

    monkeypatch.setattr(cli, "solve", no_step)
    monkeypatch.setattr(cli, "solve_batch", no_step)
    monkeypatch.setattr(diagnostics, "phi_batch", no_step)
    cfgp = write_cfg(tmp_path, SMALL + line + "\n")
    out = tmp_path / "bad"
    assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    dt = parse_config_text(SMALL + line).get("solver.dt", DEFAULTS["solver.dt"][1])
    assert err.startswith(f"invalid config: {key}: time ") and f"dt={dt}" in err, err
    assert err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command, key, line, argv", [
    # verify would step its energy phase and then fail in solve_batch
    ("verify", "solver.snapshot_stride", "solver.snapshot_stride = 15", []),
    # verify would take no snapshot and pass an empty Chebyshev verdict
    ("verify", "solver.snapshot_stride", "solver.snapshot_stride = 0", []),
    ("verify", "solver.snapshot_stride", "solver.snapshot_stride = -10", []),
    ("noise", "experiment.horizon", "experiment.horizon = 0", []),
    ("noise", "experiment.horizon", "experiment.horizon = -5", []),
    # the noise hash keys on uint64 seeds
    ("noise", "seed", "", ["--seed", "-1"]),
    ("noise", "seed", "", ["--seed", str(2**64)]),
    # a flag, not a config key: solve_batch would reject it after set-up
    ("simulate", "--duration", "", ["--duration", "-1"]),
    # verify would run as one worker and its manifest record the count given
    ("verify", "--threads", "", ["--threads", "0"]),
    ("verify", "--threads", "", ["--threads", "-2"]),
    # non-finite numbers: an internal error, output computed from NaN, or a
    # NaN reported as a blow-up
    ("noise", "model.lambda", "model.lambda = nan", []),
    ("pullback", "family.base_radius", "family.base_radius = nan", []),
    ("pullback", "noise.h1.width", "noise.h1.width = nan", []),
    ("pullback", "model.alpha", "model.alpha = nan", []),
    ("pullback", "solver.dt", "solver.dt = inf", []),
    ("verify", "experiment.horizon", "experiment.horizon = inf", []),
    ("pullback", "schedules.t", "schedules.t = 2,nan", []),
], ids=["stride-15", "stride-0", "stride-minus-10", "horizon-0", "horizon-minus-5", "seed-minus-1",
        "seed-2**64", "duration-minus-1", "threads-0", "threads-minus-2", "lambda-nan",
        "base-radius-nan", "h1-width-nan", "alpha-nan", "dt-inf", "horizon-inf", "schedule-nan"])
def test_cli_out_of_range_config_exit_2_before_any_step(tmp_path, capsys, monkeypatch, command, key,
                                                        line, argv):
    def no_step(*args, **kwargs):
        raise AssertionError("an out-of-range config reached the solver")

    monkeypatch.setattr(cli, "solve", no_step)
    monkeypatch.setattr(cli, "solve_batch", no_step)
    monkeypatch.setattr(diagnostics, "phi_batch", no_step)
    monkeypatch.setattr(noise.OuProcess, "read", no_step)
    cfgp = write_cfg(tmp_path, SMALL + line + "\n")
    out = tmp_path / "bad"
    assert cli.main([command, "--config", cfgp, "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: {key} ") and err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_config_seed_bound_counts_every_run_seed():
    # verify runs seeds seed, ..., seed + max(seed counts) - 1, 20 by default
    assert default_config(seed=2**64 - 20).seed == 2**64 - 20
    with pytest.raises(ConfigError, match=r"^seed .*\(last 18446744073709551616\)"):
        default_config(seed=2**64 - 19)


@pytest.mark.parametrize("count", [0, -1])
def test_cli_verify_without_energy_seeds_exit_2_before_any_step(tmp_path, capsys, monkeypatch, count):
    # the energy inequality needs at least one trajectory
    def no_step(*args, **kwargs):
        raise AssertionError("a config without energy seeds reached the solver")

    monkeypatch.setattr(cli, "solve_batch", no_step)
    monkeypatch.setattr(diagnostics, "phi_batch", no_step)
    cfgp = write_cfg(tmp_path, SMALL + f"experiment.energy_seed_count = {count}\n")
    out = tmp_path / "none"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: experiment.energy_seed_count ") and err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("error, kind", [
    (BlowUpError(1.5, 3.0e9, (42, 8.0)), "blow-up"),
    (GridAlignmentError("time 0.1 is not a multiple of dt=0.003"), "off-grid time"),
    (diagnostics.CalibrationError("no finite constant below cap (required 2.000e+06)"), "calibration"),
])
def test_cli_run_error_exit_2_with_its_kind(tmp_path, capsys, monkeypatch, error, kind, threads):
    # the energy phase raises the error, in the parent or in a worker
    # process; main maps the one base class to exit 2 and names the kind
    def raising(*args, **kwargs):
        raise error

    assert isinstance(error, RunError)
    monkeypatch.setattr(cli, "solve_batch", raising)
    cfgp = write_cfg(tmp_path, SMALL + "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n")
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out), "--threads", threads]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == f"{kind}: {error}"
    assert capsys.readouterr().err == manifest["error"] + "\n"


def test_cli_calibration_error_exit_2(tmp_path, capsys, monkeypatch):
    # no constant is below a negative cap
    monkeypatch.setattr(diagnostics, "CALIBRATION_CAP", -1.0)
    cfgp = write_cfg(tmp_path, SMALL + "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n")
    out = tmp_path / "cal"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("calibration: no finite constant below cap") and err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_cli_internal_error_leaves_manifest_and_reraises(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "solve", broken)
    out = tmp_path / "bug"
    with pytest.raises(ZeroDivisionError, match="injected"):
        cli.main(["simulate", "--config", write_cfg(tmp_path, SMALL), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "internal: ZeroDivisionError: injected"
    assert manifest["config_hash"] is not None and manifest["artifacts"] == []


# g grows backward in time, so its history integral does not converge
UNCONVERGED = SMALL + """
forcing.g.kind = exp
forcing.g.a = -2
"""


@pytest.mark.parametrize("command", ["simulate", "pullback", "verify", "attractor"])
def test_cli_unconverged_forcing_exit_2(tmp_path, capsys, command):
    cfgp = write_cfg(tmp_path, UNCONVERGED)
    out = tmp_path / command
    assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: forcing history quadrature not converged "), err
    assert err.count("\n") == 1, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == err.strip()
    assert manifest["config_hash"] is None and manifest["artifacts"] == []
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_cli_noise_skips_the_forcing_history(tmp_path, monkeypatch):
    # noise reads no forcing: it never runs the quadrature, and its outputs
    # do not depend on g
    calls = []
    real = config.validate_forcing

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(config, "validate_forcing", counting)
    outputs = {}
    for name, text in (("default", SMALL), ("unconverged", UNCONVERGED)):
        out = tmp_path / name
        cfgp = write_cfg(tmp_path, text, name + ".cfg")
        assert cli.main(["noise", "--config", cfgp, "--out", str(out)]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("ou_series.csv", "ou_temperedness.csv")]
    assert calls == []
    assert outputs["unconverged"] == outputs["default"]
    # the counter sees the guard of a subcommand that integrates the forcing
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, SMALL), "--out",
                     str(tmp_path / "sim"), "--duration", "0.1"]) == 0
    assert len(calls) == 1


def test_minimal_config_gets_canonical_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "seed = 9\n"))
    assert cfg.seed == 9
    assert cfg["model.lambda"] == 1.0
    assert cfg["model.p"] == 4.0
    assert cfg["grid.n"] == 1024
    assert cfg["grid.half_width"] == 32.0
    assert cfg["solver.dt"] == 1e-3
    spec = cfg.model_spec()
    assert spec.nonlin.sign == -1.0


def test_config_rejects_p_two(tmp_path):
    with pytest.raises(ValueError, match="p must exceed 2"):
        load_config(write_cfg(tmp_path, "model.p = 2\n"))


def test_config_rejects_wrong_nonlinearity_sign(tmp_path):
    with pytest.raises(StructureViolation):
        load_config(write_cfg(tmp_path, SMALL + "model.f.sign = 1.0\n"))


def test_config_hash_stable_and_seed_sensitive():
    a = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    b = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    c = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "seed": 1})
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_cli_noise_and_simulate(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL)
    out = tmp_path / "noise_out"
    assert cli.main(["noise", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "ou_series.csv").exists()
    assert (out / "ou_temperedness.csv").exists()
    out2 = tmp_path / "sim_out"
    assert cli.main(
        ["simulate", "--config", cfgp, "--out", str(out2), "--duration", "1.0"]
    ) == 0
    header = (out2 / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,u_l2sq,v_l2sq")


def test_cli_rerun_writes_new_files_and_leaves_hard_links_their_old_bytes(tmp_path):
    # outputs are unlinked and created anew, not truncated in place: a hard
    # link to an old output keeps its bytes after a rerun into the same --out
    cfgp = write_cfg(tmp_path, SMALL)
    out = tmp_path / "noise_out"
    assert cli.main(["noise", "--config", cfgp, "--out", str(out), "--seed", "1"]) == 0
    old = {}
    for name in ("ou_series.csv", "manifest.json"):
        old[name] = (out / name).read_bytes()
        (tmp_path / name).hardlink_to(out / name)
    assert cli.main(["noise", "--config", cfgp, "--out", str(out), "--seed", "2"]) == 0
    for name, data in old.items():
        assert (tmp_path / name).read_bytes() == data, name
        assert (out / name).read_bytes() != data, name


def test_cli_simulate_starts_at_experiment_tau(tmp_path):
    # the initial state is placed at tau, where the run starts
    cfgp = write_cfg(tmp_path, SMALL + "experiment.tau = 1.0\n")
    out = tmp_path / "tau1"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out), "--duration", "0.1"]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == 1.0 and float(rows[-1].split(",")[0]) == 1.1


def test_cli_seed_override(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out), "--seed", "5",
                     "--duration", "0.5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_cli_pullback_csv_schema(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL + "schedules.t = 2,4\nfamily.sample_count = 2\n")
    out = tmp_path / "pb"
    assert cli.main(["pullback", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "pullback.csv").read_text().splitlines()
    assert lines[0] == ("t_elapsed,sample_id,seed,u_l2sq,v_l2sq,u_lp_p,"
                       "dist_to_prev_t_l2,dist_to_prev_t_lp")
    assert len(lines) == 5  # header + 2 t-values x 2 samples


def test_cli_simulate_blowup_exit_2(tmp_path):
    cfgp = write_cfg(
        tmp_path,
        SMALL + "forcing.g.kind = constant\nforcing.g.c = 1.0\nforcing.g.amplitude = 1e6\n",
    )
    out = tmp_path / "blow"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
    assert json.loads((out / "manifest.json").read_text())["error"].startswith("blow-up: ")


def test_cli_off_grid_time_exit_2(tmp_path, capsys):
    # 8.0, the default simulate duration, and 4.0, the energy horizon of
    # verify, are not multiples of dt = 0.003; the config's own times are.
    # simulate fails in its run; verify checks its fixed times with the config
    # and names solver.dt, the key that moved them off the grid
    cfgp = write_cfg(tmp_path, SMALL + "solver.dt = 0.003\nschedules.t = 3,6,9,12,15\n"
                     "experiment.horizon = 30\nexperiment.seed_count = 2\n"
                     "experiment.energy_seed_count = 2\n")
    for argv, kind in ((["simulate"], "off-grid time"),
                       (["verify", "--threads", "2"], "invalid config: solver.dt")):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--config", cfgp, "--out", str(out)]) == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error.startswith(f"{kind}: time ") and "dt=0.003" in error
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err


def test_cli_verify_blowup_in_worker_exit_2(tmp_path):
    # a coarse step blows up the pullback runs, here inside worker processes
    cfgp = write_cfg(tmp_path, SMALL + "solver.dt = 0.1\nexperiment.seed_count = 2\n"
                     "experiment.energy_seed_count = 2\n")
    out = tmp_path / "blow2"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out), "--threads", "2"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith("blow-up: ")
    assert "report.json" not in {Path(p).name for p in manifest["artifacts"]}
    # the error names the run that blew up: the pullback runs of horizon 32
    # start first and blow up before the shorter runs join their batch
    member = re.search(r"in the run of seed (\d+), horizon t=(\S+)$", manifest["error"])
    assert member and int(member[1]) in (42, 43) and float(member[2]) == 32.0


# a worker raises an exception whose class cannot be rebuilt from its
# pickled message; the parent must still get it and exit, not wait forever
WORKER_RAISES = """
import sys
from fhnrds import cli

class TwoArgError(Exception):
    def __init__(self, where, why):
        super().__init__(f"{where}: {why}")

def broken(*args, **kwargs):
    raise TwoArgError("energy phase", "injected failure")

cli.solve_batch = broken
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_worker_exception_reaches_parent(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL + "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER_RAISES, "verify", "--config", cfgp,
         "--out", str(tmp_path / "out"), "--threads", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("verify --threads 2 hung on a worker exception")
    assert proc.returncode == 1
    assert "WorkerError: TwoArgError in a worker process: energy phase: injected failure" in err
    # a bug still leaves a manifest, which names it
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"] == ("internal: WorkerError: TwoArgError in a worker process: "
                                 "energy phase: injected failure")


def test_cli_resolves_config_once(tmp_path, monkeypatch):
    resolved = []
    real = config.resolve

    def counting(values):
        resolved.append(dict(values))
        return real(values)

    monkeypatch.setattr(config, "resolve", counting)
    monkeypatch.setattr(cli, "resolve", counting)
    cfgp = write_cfg(tmp_path, SMALL)
    assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o"),
                     "--seed", "5", "--duration", "0.1"]) == 0
    assert len(resolved) == 1 and resolved[0]["seed"] == 5
    resolved.clear()
    assert cli.main(["simulate", "--out", str(tmp_path / "d"), "--duration", "0.1"]) == 0
    assert resolved == [{}]


def _pass_fields(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "pass":
                yield v
            yield from _pass_fields(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _pass_fields(v)


def test_verify_report_pass_fields_are_json_booleans(tmp_path):
    cfgp = write_cfg(tmp_path, ZERO_DYNAMICS)
    out = tmp_path / "verify_bool"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    found = list(_pass_fields(report))
    assert len(found) == len(report["checks"]) + 1
    assert all(type(v) is bool for v in found), found
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(type(v) is bool for v in manifest["checks"].values())


def test_cli_verify_zero_dynamics_all_trivial(tmp_path):
    cfgp = write_cfg(tmp_path, ZERO_DYNAMICS)
    out = tmp_path / "verify0"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]
    assert report["fixtures"]["c_cal_degenerate"]
    assert all(c["pass"] for c in report["checks"])


def test_cli_verify_noise_off_passes_compact_interval_bounds(tmp_path):
    # with h1 = h2 = 0 the records still carry the OU path, and so does the
    # envelope that c_cal is fitted on; radii that took z = 0 instead were
    # smaller than that envelope, and the L2 half of compact_interval_bounds
    # failed at this seed
    cfgp = write_cfg(tmp_path, SMALL + "noise.enabled = false\nexperiment.seed_count = 2\n"
                     "experiment.energy_seed_count = 2\n")
    out = tmp_path / "off"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out), "--seed", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {c["name"]: c["pass"] for c in report["checks"]}["compact_interval_bounds"] is True
    assert report["pass"] is True


def test_threads_default_to_the_cpus_of_the_process(tmp_path, monkeypatch):
    # without --threads, the worker count is the size of the affinity mask,
    # and the manifest records the count the run resolved
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert cli.main(["noise", "--out", str(tmp_path / "n")]) == 0
    assert json.loads((tmp_path / "n" / "manifest.json").read_text())["threads"] == 3
    assert cli.main(["noise", "--out", str(tmp_path / "n1"), "--threads", "1"]) == 0
    assert json.loads((tmp_path / "n1" / "manifest.json").read_text())["threads"] == 1


def test_threads_default_to_the_cpu_count_without_an_affinity_mask(tmp_path, monkeypatch):
    # os.sched_getaffinity is Linux's alone: elsewhere (macOS) the default
    # worker count is os.cpu_count(), and the run still writes its manifest
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.main(["noise", "--out", str(tmp_path / "n")]) == 0
    assert json.loads((tmp_path / "n" / "manifest.json").read_text())["threads"] == os.cpu_count()


def test_manifest_references_every_artifact(tmp_path):
    cfgp = write_cfg(tmp_path, ZERO_DYNAMICS)
    out = tmp_path / "verify1"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {Path(p).name for p in manifest["artifacts"]}
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == present
    assert manifest["config_hash"] == load_config(cfgp).config_hash


def test_attractor_reports_the_verify_verdict_of_its_seed(tmp_path):
    # attractor --seed s reports the bi-spatial verdict, final defects and
    # defect table that verify gives seed s, its first pullback seed
    cfgp = write_cfg(tmp_path, SMALL + "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n")
    seed = 7
    att, ver = tmp_path / "att", tmp_path / "ver"
    assert cli.main(["attractor", "--config", cfgp, "--out", str(att), "--seed", str(seed)]) == 0
    assert cli.main(["verify", "--config", cfgp, "--out", str(ver), "--seed", str(seed)]) in (0, 1)
    attractor = json.loads((att / "attractor.json").read_text())
    report = json.loads((ver / "report.json").read_text())
    entry = next(c for c in report["checks"] if c["name"] == "bispatial_equality")
    assert attractor["bispatial"] == entry == {"name": "bispatial_equality", "pass": True}
    final = report["fixtures"]["final_defect_by_seed"]
    assert attractor["fixtures"] == {"final_defect_by_seed": {str(seed): final[str(seed)]}}
    header, *rows = (ver / "defect_vs_t.csv").read_text().splitlines()
    assert (att / "defect_vs_t.csv").read_text().splitlines() == [
        header, *(row for row in rows if row.startswith(f"{seed},"))]
    manifest = json.loads((att / "manifest.json").read_text())
    assert manifest["checks"] == {"bispatial_equality": True}


def test_cli_attractor_writes_snapshots(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL + "family.sample_count = 2\n")
    out = tmp_path / "att"
    assert cli.main(["attractor", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "attractor.json").read_text())
    assert report["points"] == 2
    assert (out / "attractor_u_000.txt").exists()
    assert (out / "attractor_v_001.txt").exists()


def test_attractor_json_has_no_bare_nan(tmp_path):
    # one schedule entry leaves the Cauchy defects undefined; strict JSON
    # has no NaN, so they are written as null
    cfgp = write_cfg(tmp_path, SMALL + "schedules.t = 2\n")
    out = tmp_path / "att1"
    assert cli.main(["attractor", "--config", cfgp, "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"bare {name} in attractor.json")

    report = json.loads((out / "attractor.json").read_text(), parse_constant=reject)
    assert report["fixtures"] == {"final_defect_by_seed": {"42": {"l2": None, "lp": None}}}
    assert report["bispatial"] == {"name": "bispatial_equality", "pass": False,
                                   "flagged": "degenerate schedule"}


# perfbench/spans.py wraps fhnrds functions by their module attributes for
# `perfbench/run.py --trace 1`; each one it names must still be there, and
# still take the arguments its wrapper passes
TRACER_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install()
from fhnrds import cli
status = [cli.main([cmd, "--config", sys.argv[2], "--out", sys.argv[3] + "/" + cmd])
          for cmd in ("noise", "pullback")]
print(json.dumps({"status": status, "counts": tracer.counts,
                  "spans": sorted({s[3] for s in tracer.spans})}))
"""


def test_benchmark_tracer_installs(tmp_path):
    root = Path(cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cfgp = write_cfg(tmp_path, SMALL + "experiment.horizon = 20.0\n")
    proc = subprocess.run([sys.executable, "-c", TRACER_RUN, str(root / "perfbench"), cfgp,
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == [0, 0], proc.stderr
    assert result["counts"]["noise.ou_blocks"] > 0, result["counts"]
    assert {"noise.ou_fill", "noise.ou_values"} <= set(result["spans"])


def test_cli_import_leaves_scipy_unloaded():
    root = Path(cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = ("import sys, fhnrds.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_horizon_long_layers_bound_their_scratch(tmp_path):
    # the noise-long config: 2 M steps of forcing history, and 2 M OU steps
    # on each side of 0.  `resolve` does not walk the horizon; the forcing
    # guard holds one array of the history samples; `noise` holds the OU
    # blocks of one piece and the scratch of one fill, which do not grow with
    # the horizon (four times noise-long's) or with 1/dt (dt = 1e-4, where
    # the block length B is ten times noise-long's)
    tracemalloc.start()
    try:
        cfg = config.resolve({"experiment.horizon": 2000.0})
        resolve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        config.check_forcing(cfg)
        guard_peak = tracemalloc.get_traced_memory()[1]
        noise_peaks = {}
        for dt, horizon in ((1e-3, 2000.0), (1e-3, 8000.0), (1e-4, 200.0)):
            run = config.resolve({"solver.dt": dt, "experiment.horizon": horizon})
            args = cli.build_parser().parse_args(["noise", "--out", str(tmp_path)])
            tracemalloc.reset_peak()
            assert cli.cmd_noise(run, tmp_path, args, cli.Manifest(run, 1), None) == 0
            noise_peaks[dt, horizon] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = step_index(2000.0, cfg["solver.dt"]) + 1
    assert resolve_peak <= 2**20, resolve_peak
    assert guard_peak <= 1.5 * 8 * samples, guard_peak
    assert noise_peaks[1e-3, 2000.0] <= 4 * 2**20, noise_peaks
    assert noise_peaks[1e-3, 8000.0] <= 4 * 2**20, noise_peaks
    assert noise_peaks[1e-4, 200.0] <= 14 * 2**20, noise_peaks


class CountedFills(list):
    on = True


def count_ou_fills(monkeypatch):
    """The (seed, component, block) of each block filled from here on, in
    order, while the returned list's `on` is true; its `reads` hold the same
    per `OuProcess.read`, and its `block_lengths` the B of each filling process."""
    filled = CountedFills()
    filled.reads, filled.block_lengths = [], set()
    real_read, real_fill = noise.OuProcess.read, noise.OuProcess._compute_blocks

    def counting_read(proc, spans):
        filled.reads.append([])
        return real_read(proc, spans)

    def counting_fill(proc, ms):
        if filled.on:
            blocks = [(proc.seed.seed, proc.seed.component, m) for m in ms]
            filled.extend(blocks)
            filled.reads[-1].extend(blocks)
            filled.block_lengths.add(proc.B)
        return real_fill(proc, ms)

    monkeypatch.setattr(noise.OuProcess, "read", counting_read)
    monkeypatch.setattr(noise.OuProcess, "_compute_blocks", counting_fill)
    return filled


def test_cli_verify_radii_fill_each_history_block_once(tmp_path, monkeypatch):
    # one-pair pieces and a 16-block history (horizon 300): between the fit
    # of c_cal and the temperedness series, verify fills each block of each
    # seed's history once for both its absorbing and its rho radius
    monkeypatch.setattr(noise, "_SOLVE_VALUES", 1)
    filled = count_ou_fills(monkeypatch)
    filled.on = False
    real_calibrate, real_tempered = diagnostics.calibrate_constant, diagnostics.radius_temperedness

    def calibrate(*args):
        result = real_calibrate(*args)
        filled.on = True
        return result

    def tempered(*args):
        filled.on = False
        return real_tempered(*args)

    monkeypatch.setattr(diagnostics, "calibrate_constant", calibrate)
    monkeypatch.setattr(diagnostics, "radius_temperedness", tempered)
    cfgp = write_cfg(tmp_path, SMALL + "experiment.horizon = 300\nschedules.t = 2,4\n"
                     "experiment.seed_count = 5\nexperiment.energy_seed_count = 2\n")
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v")]) in (0, 1)
    assert len(filled) == len(set(filled)), filled
    history = range(-step_index(300.0, 1e-3) // noise.OuProcess(42, 1, 1.0, 1e-3).B, 1)
    assert sorted(filled) == [(s, c, m) for s in range(42, 47) for c in (1, 2) for m in history]


def test_pullback_ensemble_fills_each_ou_block_once(monkeypatch):
    # one-pair pieces (B = 5,000 at rate 4) and a span over 4 blocks: the solve
    # converts each run's initial pair with the z values it reads anyway, so
    # the span of each seed is read once
    monkeypatch.setattr(noise, "_SOLVE_VALUES", 1)
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "model.lambda": 4.0,
                            "model.sigma": 4.0, "family.gamma_fraction": 0.1})
    spec, solver = cfg.model_spec(), cfg.solver_spec()
    filled = count_ou_fills(monkeypatch)
    paths = [noise.WienerPath(seed=s, dt=solver.dt) for s in (3, 4)]
    diagnostics.run_pullback_ensemble(0.0, paths, cfg.family_spec(spec.delta), spec, solver, [4.0, 12.0])
    assert filled.block_lengths == {5000}
    assert sorted(filled) == [(s, c, m) for s in (3, 4) for c in (1, 2) for m in range(-3, 1)]


def workload_config(monkeypatch, name):
    """The config text of the perfbench/run.py workload `name`."""
    root = Path(cli.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclass looks itself up there
    spec.loader.exec_module(bench)
    return bench.WORKLOADS[name].config


def test_cli_verify_1d_fills_each_read_span_once(tmp_path, monkeypatch):
    # the verify-1d workload of perfbench/run.py: each read fills the blocks
    # of its spans once and shares none with another read.  One block per
    # energy run and component (8), two per pullback seed and component (8),
    # three per radius history (12) and six per temperedness series (12),
    # all in this process at --threads 1
    cfgp = write_cfg(tmp_path, workload_config(monkeypatch, "verify-1d"))
    filled = count_ou_fills(monkeypatch)
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--threads", "1"]) == 0
    assert all(len(read) == len(set(read)) for read in filled.reads), filled.reads
    assert sorted(map(len, filled.reads)) == [1] * 8 + [2] * 4 + [3] * 4 + [6] * 2, filled.reads
    assert len(filled) == 40


def test_cli_main_drops_the_ou_processes_of_its_run(tmp_path, monkeypatch):
    # each read makes its own OU process and nothing keeps one, so two runs
    # in one process (--threads 1) leave none alive
    live, made = weakref.WeakSet(), []
    real_init = noise.OuProcess.__init__

    def tracked_init(proc, *args):
        real_init(proc, *args)
        live.add(proc)
        made.append((proc.seed.seed, proc.seed.component))

    monkeypatch.setattr(noise.OuProcess, "__init__", tracked_init)
    cfgp = write_cfg(tmp_path, SMALL + "experiment.seed_count = 2\nexperiment.energy_seed_count = 2\n")
    for out in ("v1", "v2"):
        assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / out), "--threads", "1"]) in (0, 1)
        gc.collect()
        assert len(live) == 0, out
    assert set(made) == {(42, 1), (42, 2), (43, 1), (43, 2)}


def test_cli_verify_1d_integrates_the_forcing_history_once(tmp_path, monkeypatch):
    # the forcing term of the radii depends on tau alone, not on the seed or
    # its shift: the config guard integrates it and cmd_verify reuses it.
    # l2sq_at evaluates all record times of a trajectory at once: 2 calls per
    # energy_records, which the fit of c_noise and the energy verdict each run
    # on the 4 energy runs (16), 2 per pullback run in calibrate_constant (20
    # runs, 40) and 2 for the one-piece quadrature, 58 in all, in this
    # process at --threads 1
    cfgp = write_cfg(tmp_path, workload_config(monkeypatch, "verify-1d"))
    calls = {"validate_forcing": 0, "l2sq_at": 0}
    real_validate, real_l2sq = model.validate_forcing, model.Forcing.l2sq_at

    def validate(*args):
        calls["validate_forcing"] += 1
        return real_validate(*args)

    def l2sq(*args):
        calls["l2sq_at"] += 1
        return real_l2sq(*args)

    for module in (model, config, cli, diagnostics):
        if hasattr(module, "validate_forcing"):
            monkeypatch.setattr(module, "validate_forcing", validate)
    monkeypatch.setattr(model.Forcing, "l2sq_at", l2sq)
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--threads", "1"]) == 0
    assert calls["validate_forcing"] == 1 and calls["l2sq_at"] <= 58, calls


def test_defaults_table_is_typed():
    scalar = {k: v for k, v in DEFAULTS.items() if not k.startswith("schedules.")}
    for key, (parser, default) in scalar.items():
        # every scalar default survives a round-trip through its own parser
        assert parser(str(default)) == default
