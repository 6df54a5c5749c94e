"""Each output check passes on a real output and fails on a corrupted copy.

Real outputs come from one operation of the verify-1d, pullback-2d and
noise-long workloads at the default seed (about 40 s on 2 cores).  Run with

    python3 -m pytest perfbench/tests
"""

import csv
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fhnrds.config import load_config, resolve  # noqa: E402

SEED = 42


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: (output dir, resolved config)} from one real operation each."""
    base = tmp_path_factory.mktemp("real")
    made = {}
    for name in ("verify-1d", "pullback-2d", "noise-long"):
        w = run.WORKLOADS[name]
        cfg_path = base / f"{name}.cfg"
        cfg_path.write_text(w.config)
        op = run.operation(w, cfg_path, SEED, base / name, time.perf_counter() + 170.0)
        assert op["ok"], op
        cfg = resolve({**dict(load_config(cfg_path).values), "seed": SEED})
        made[name] = (base / name, cfg)
    return made


def corrupt(src, dst, name, edit):
    """Copy an output directory and apply `edit` to the rows of one CSV."""
    shutil.copytree(src, dst)
    with open(dst / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(dst / name, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return dst


def scale(row, key, factor):
    row[key] = repr(float(float(row[key]) * factor))


def test_passed_reads_both_encodings():
    assert checks.passed(True) and checks.passed(1)
    for value in (False, 0, 2, "true", None, 1.0):
        assert not checks.passed(value)


def test_verify_checks_pass_on_real_output(outputs):
    out, cfg = outputs["verify-1d"]
    assert checks.check_verify(out, cfg) == []
    assert checks.check_identical(out, out) == []


def test_report_check_catches_failed_check(outputs, tmp_path):
    out, _ = outputs["verify-1d"]
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    report = json.loads((bad / "report.json").read_text())
    report["checks"][0]["pass"] = 0
    (bad / "report.json").write_text(json.dumps(report))
    assert checks.check_report(bad)


def test_energy_check_catches_one_perturbed_value(outputs, tmp_path):
    out, cfg = outputs["verify-1d"]
    bad = corrupt(out, tmp_path / "bad", "energy_records.csv",
                  lambda rows: scale(rows[len(rows) // 2], "E", 1.0 + 1e-6))
    assert checks.check_energy_records(bad, cfg)


def test_first_defect_check_catches_one_perturbed_value(outputs, tmp_path):
    out, cfg = outputs["verify-1d"]

    def perturb(rows):
        mine = [r for r in rows if r["seed"] == rows[-1]["seed"]]
        scale(min(mine, key=lambda r: float(r["t"])), "defect_lp", 1.0 + 1e-6)

    bad = corrupt(out, tmp_path / "bad", "defect_vs_t.csv", perturb)
    assert checks.check_first_defect(bad, cfg)


def test_defect_check_catches_a_non_decreasing_sequence(outputs, tmp_path):
    out, _ = outputs["verify-1d"]

    def flatten(rows):
        mine = [r for r in rows if r["seed"] == rows[0]["seed"]]
        mine[-1]["defect_l2"] = mine[-2]["defect_l2"]

    bad = corrupt(out, tmp_path / "bad", "defect_vs_t.csv", flatten)
    assert checks.check_defects(bad)


def test_defect_check_catches_a_slow_decay(outputs, tmp_path):
    out, _ = outputs["verify-1d"]

    def slow(rows):
        mine = [r for r in rows if r["seed"] == rows[0]["seed"]]
        first = float(mine[0]["defect_lp"])
        for i, r in enumerate(mine):
            r["defect_lp"] = repr(first * 0.5**i)

    bad = corrupt(out, tmp_path / "bad", "defect_vs_t.csv", slow)
    assert checks.check_defects(bad)


def test_tail_check_catches_an_increase(outputs, tmp_path):
    out, _ = outputs["verify-1d"]
    bad = corrupt(out, tmp_path / "bad", "tail_vs_M.csv",
                  lambda rows: rows[-1].update(sup_tail=repr(2.0 * float(rows[0]["sup_tail"]) + 1.0)))
    assert checks.check_tails(bad)


def test_radius_check_catches_a_series_that_does_not_decay(outputs, tmp_path):
    out, _ = outputs["verify-1d"]
    bad = corrupt(out, tmp_path / "bad", "radius_temperedness.csv",
                  lambda rows: [scale(r, "series", np.exp(0.5 * float(r["t"]))) for r in rows])
    assert checks.check_radius_temperedness(bad, 1.0)


def test_identity_check_catches_one_changed_byte(outputs, tmp_path):
    out, _ = outputs["verify-1d"]
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    data = bytearray((bad / "report.json").read_bytes())
    i = data.index(b".")
    data[i + 3] = ord("0") if data[i + 3] != ord("0") else ord("1")
    (bad / "report.json").write_bytes(bytes(data))
    assert checks.check_identical(bad, out)
    missing = tmp_path / "missing"
    shutil.copytree(out, missing)
    (missing / "tail_vs_M.csv").unlink()
    assert checks.check_identical(missing, out)


def test_pullback_checks_pass_on_real_output(outputs):
    out, cfg = outputs["pullback-2d"]
    assert checks.check_pullback(out, cfg) == []


def test_pullback_check_catches_a_rising_distance(outputs, tmp_path):
    out, cfg = outputs["pullback-2d"]

    def rise(rows):
        last = max(rows, key=lambda r: float(r["t_elapsed"]))
        last["dist_to_prev_t_lp"] = repr(10.0 * float(last["dist_to_prev_t_lp"]) + 1.0)

    bad = corrupt(out, tmp_path / "bad", "pullback.csv", rise)
    assert checks.check_pullback(bad, cfg)


def test_pullback_check_catches_a_perturbed_norm(outputs, tmp_path):
    out, cfg = outputs["pullback-2d"]
    bad = corrupt(out, tmp_path / "bad", "pullback.csv",
                  lambda rows: scale(rows[0], "u_lp_p", 1.0 + 1e-6))
    assert checks.check_pullback(bad, cfg)


def test_pullback_check_catches_a_non_finite_norm(outputs, tmp_path):
    out, cfg = outputs["pullback-2d"]
    bad = corrupt(out, tmp_path / "bad", "pullback.csv",
                  lambda rows: rows[-1].update(v_l2sq="nan"))
    assert checks.check_pullback(bad, cfg)


def test_noise_checks_pass_on_real_output(outputs):
    out, cfg = outputs["noise-long"]
    assert checks.check_noise(out, cfg) == []


def test_noise_check_catches_a_scaled_variance(outputs, tmp_path):
    out, cfg = outputs["noise-long"]
    bad = corrupt(out, tmp_path / "bad", "ou_series.csv",
                  lambda rows: [scale(r, "z2", np.sqrt(1.2)) for r in rows])
    assert checks.check_ou_series(bad, cfg)


def test_noise_check_catches_a_wrong_correlation(outputs, tmp_path):
    out, cfg = outputs["noise-long"]

    def shuffle(rows):
        z = [r["z1"] for r in rows]
        np.random.default_rng(0).shuffle(z)
        for r, v in zip(rows, z):
            r["z1"] = v

    bad = corrupt(out, tmp_path / "bad", "ou_series.csv", shuffle)
    assert checks.check_ou_series(bad, cfg)


def test_noise_check_catches_a_series_that_does_not_decay(outputs, tmp_path):
    out, _ = outputs["noise-long"]
    bad = corrupt(out, tmp_path / "bad", "ou_temperedness.csv",
                  lambda rows: rows[-1].update(series=rows[0]["series"]))
    assert checks.check_ou_temperedness(bad)


def test_layer_metrics_self_time_and_phases():
    # a pullback ensemble (1) holding one solve (2) with one implicit solve (3),
    # and a root-level energy solve (4) in another thread
    recorded = [
        (1, 0, 1, "diagnostics.run_pullback_ensemble", 0.0, 10.0),
        (2, 1, 1, "model.solve", 1.0, 9.0),
        (3, 2, 1, "model.implicit_solve", 2.0, 5.0),
        (4, 0, 2, "model.solve", 4.0, 12.0),
    ]
    m = spans.layer_metrics(recorded, {"model.imex_steps": 2}, 2, 30.0, 29.0)
    assert m["model.step_us"] == pytest.approx((5.0 + 8.0) / 2 * 1e6)
    assert m["diagnostics.ensemble_s"] == pytest.approx(2.0)
    assert m["cli.pullback_phase_s"] == pytest.approx(10.0)
    assert m["cli.energy_phase_s"] == pytest.approx(8.0)
    assert m["cli.worker_busy_ratio"] == pytest.approx(8.0 / 20.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert set(m) == {name for name, _ in spans.PER_LAYER}
