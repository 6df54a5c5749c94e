import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fhnrds import cli, config
from fhnrds.config import ConfigError, DEFAULTS, default_config, load_config, parse_config_text
from fhnrds.model import StructureViolation

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


def test_manifest_references_every_artifact(tmp_path):
    cfgp = write_cfg(tmp_path, ZERO_DYNAMICS)
    out = tmp_path / "verify1"
    assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {Path(p).name for p in manifest["artifacts"]}
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == present
    assert manifest["config_hash"] == load_config(cfgp).config_hash


def test_cli_attractor_writes_snapshots(tmp_path):
    cfgp = write_cfg(tmp_path, SMALL + "family.sample_count = 2\n")
    out = tmp_path / "att"
    assert cli.main(["attractor", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "attractor.json").read_text())
    assert report["points"] == 2
    assert (out / "attractor_u_000.txt").exists()
    assert (out / "attractor_v_001.txt").exists()


def test_defaults_table_is_typed():
    scalar = {k: v for k, v in DEFAULTS.items() if not k.startswith("schedules.")}
    for key, (parser, default) in scalar.items():
        # every scalar default survives a round-trip through its own parser
        assert parser(str(default)) == default
