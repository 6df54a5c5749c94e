"""Acceptance gate: one test and one PASS/FAIL line per criterion.

Criteria 3 and 5-10 read the report of one canonical `fhnrds verify` run,
made once per session (conftest `canonical_verify`), so they check the
pipeline users run, not a copy of it.  Criteria 3 and 9 add probes that the
checks can fail: criterion 3 re-solves one energy seed and corrupts it,
criterion 9 perturbs the archived defects and runs a deterministic case.
Criterion 10 runs `verify --threads 3` once more and byte-compares its
files with the session run.  The PASS/FAIL lines are repeated in the
terminal summary.

Regression fixtures (absorption times, tail thresholds, final defects) live
in tests/fixtures/acceptance.json and are never written implicitly: a
missing file or key fails criteria 5, 8 and 9 unless regeneration is
requested with FHNRDS_REGENERATE_FIXTURES=1, which rewrites the keys those
criteria check with the values computed by the run.

The schedule-valued fixtures (absorption times, M*) must reproduce exactly.
The final Cauchy defects must reproduce to DEFECT_TOL (absolute): bitwise
agreement is promised across run splits and thread counts on one
installation, not across numpy/BLAS/LAPACK builds.
"""

import copy
import dataclasses
import filecmp
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.linalg import expm

from fhnrds import cli, diagnostics as dg
from fhnrds.cocycle import FamilySpec
from fhnrds.fields import Grid, ScalarField, bump_field
from fhnrds.model import (
    FhnState, Forcing, ModelSpec, Nonlinearity, SolverSpec, solve,
)
from fhnrds.noise import NoiseSeed, OuProcess, WienerPath, wiener_increment

from cocycle_law import cocycle_check

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "acceptance.json"


def check(rep, name):
    """The check called `name` in a verify report."""
    return next(c for c in rep["checks"] if c["name"] == name)


# final_defect_by_seed holds ||x(32) - x(16)|| between pullback states of
# norm ~1.5 that agree to ~1e-8, so the rounding of the solve, which differs
# between numpy/BLAS/LAPACK builds, reaches the defect amplified ~1e8-fold
# in relative terms.  Recomputed on a second installation, all 20 archived
# defects moved by at most 1.06e-16 (2.7e-10 to 1.9e-8 relative).  1e-12 is
# ~1e4 x that drift and ~2000 x below the smallest archived defect
# (2.03e-9), so a relative change of 1e-3 in any defect still fails.
DEFECT_TOL = 1e-12


def _leaves(tree, prefix=()):
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], prefix + (key,))
    else:
        yield prefix, tree


def _leaf_diff(stored, got):
    if stored == got:
        return 0.0
    if all(isinstance(x, (int, float)) and not isinstance(x, bool)
           for x in (stored, got)):
        diff = abs(got - stored)
        if not math.isnan(diff):
            return diff
    return math.inf


def archived_fixture(key, value):
    """The archived fixture `key`, or None if the file or key is missing.

    With FHNRDS_REGENERATE_FIXTURES=1 the key is first rewritten with
    `value`, the value computed by this run.
    """
    data = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}
    if os.environ.get("FHNRDS_REGENERATE_FIXTURES") == "1":
        data[key] = value
        FIXTURE_PATH.parent.mkdir(exist_ok=True)
        FIXTURE_PATH.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    return data.get(key)


def compare_fixture(stored, got, tol=0.0):
    """(ok, verdict): every leaf of `got` within `tol` of the archived leaf.

    tol=0 demands equal values; the key sets must agree in any case.
    """
    if stored is None:
        return False, "fixture missing"
    stored, got = dict(_leaves(stored)), dict(_leaves(got))
    if stored.keys() != got.keys():
        return False, "fixture differs (key sets differ)"
    worst = max((_leaf_diff(stored[k], got[k]) for k in stored), default=0.0)
    if worst == 0.0:
        return True, "fixture matched"
    if worst <= tol:
        return True, f"fixture matched to {tol:g} (max |Δ| = {worst:.2e})"
    return False, f"fixture differs (max |Δ| = {worst:.2e})"


def test_fixture_missing_fails_unless_regenerated(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "FIXTURE_PATH", tmp_path / "f.json")
    monkeypatch.delenv("FHNRDS_REGENERATE_FIXTURES", raising=False)
    value = {"42": {"l2": 2.0e-9, "lp": None}}
    assert not compare_fixture(archived_fixture("k", value), value)[0]  # no file
    monkeypatch.setenv("FHNRDS_REGENERATE_FIXTURES", "1")
    assert archived_fixture("k", value) == value
    monkeypatch.delenv("FHNRDS_REGENERATE_FIXTURES")
    assert compare_fixture(archived_fixture("k", value), value) == (True, "fixture matched")
    assert archived_fixture("other", value) is None  # file exists, key missing
    near = {"42": {"l2": 2.0e-9 + 5e-13, "lp": None}}
    assert compare_fixture(value, near, DEFECT_TOL)[0]
    assert not compare_fixture(value, near)[0]  # tol=0 is exact
    assert not compare_fixture(value, {"42": {"l2": 2.0e-9, "lp": 0.0}}, DEFECT_TOL)[0]
    assert not compare_fixture(value, {"43": value["42"]}, DEFECT_TOL)[0]
    assert not compare_fixture(value, {"42": {"l2": math.nan, "lp": None}}, DEFECT_TOL)[0]


def test_criterion_1_ou_stationarity(report):
    ok = True
    details = []
    for i, rate in enumerate((0.5, 1.0, 2.0)):
        dt = 0.25 / rate
        proc = OuProcess(seed=100 + i, component=1, rate=rate, dt=dt)
        z = proc.values(0, 100_000 * 16, 16)  # decorrelated samples
        target = 1.0 / (2.0 * rate)
        rel = abs(z.var() / target - 1.0)
        ks = stats.kstest(z, "norm", args=(0.0, np.sqrt(target)))
        ok = ok and rel < 0.05 and ks.pvalue > 0.01
        details.append(f"r={rate}: var_rel={rel:.3f} ks_p={ks.pvalue:.3f}")
    report(1, "ou stationarity", ok, "; ".join(details))


def test_criterion_2_shift_and_cocycle_laws(spec, solver, report):
    path = WienerPath(seed=0, dt=solver.dt)
    shift_ok = path.shift(0.5).shift(0.25) == path.shift(0.75)
    stream = NoiseSeed(path.seed, 1)
    shift_ok = shift_ok and np.array_equal(
        wiener_increment(stream, path.shift(1.0).offset + np.arange(-10, 10), solver.dt),
        wiener_increment(stream, path.offset + np.arange(-10 + 1000, 10 + 1000), solver.dt),
    )
    u0 = bump_field(spec.grid, amplitude=0.5, width=6.0)
    v0 = bump_field(spec.grid, center=3.0, amplitude=0.5, width=6.0)
    worst = 0.0
    for t, s in [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0)]:
        worst = max(worst, cocycle_check(t, s, 0.0, path, u0, v0, spec, solver))
    report(2, "shift/cocycle laws", shift_ok and worst <= 1e-10,
           f"max discrepancy {worst:.2e}")


def test_criterion_3_energy_inequality(cfg, spec, solver, canonical_verify, report):
    _, rep = canonical_verify
    energy = check(rep, "energy_inequality")
    c_noise = rep["fixtures"]["c_noise"]
    tol = (cfg["tolerances.energy_abs"], cfg["tolerances.energy_rel"])
    # detector sensitivity: energy seed cfg.seed, re-solved, passes with the
    # report's c_noise, and one corrupted sample of it must flip the verdict
    tau = cfg["experiment.tau"]
    traj = solve(spec, solver, WienerPath(seed=cfg.seed, dt=solver.dt), tau, tau + 4.0,
                 cli._standard_init(spec))
    E = traj.energy.copy()
    E[len(E) // 2] += 1.0
    corrupted = dataclasses.replace(traj, energy=E)
    caught = (dg.verify_energy_inequality([traj], spec, c_noise, *tol).passed
              and not dg.verify_energy_inequality([corrupted], spec, c_noise, *tol).passed)
    report(3, "energy inequality", energy["pass"] and caught,
           f"{energy['seeds']} seeds, worst margin {energy['worst_margin']:.2e}, "
           f"corruption caught={caught}")


def test_criterion_4_linear_subproblem_order(report):
    grid = Grid(dim=1, half_width=1.0, n=4, boundary="periodic")
    zero = ScalarField.zeros(grid)
    spec = ModelSpec(1.0, 1.0, 1.0, 1.0, 1e-6, 1.0, 1.0,
                     Nonlinearity(4.0, sign=0.0), zero, zero,
                     Forcing.zero(grid), Forcing.zero(grid), grid)
    exact = expm(np.array([[-1.0, -1.0], [1.0, -1.0]])) @ np.array([0.7, -0.3])
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        init = FhnState(0.0, ScalarField(grid, np.full(4, 0.7)),
                        ScalarField(grid, np.full(4, -0.3)))
        traj = solve(spec, SolverSpec(dt=dt),
                     WienerPath(seed=0, dt=dt), 0.0, 1.0, init)
        got = np.array([traj.final.u.values[0], traj.final.v.values[0]])
        errs.append(float(np.abs(got - exact).max()))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    report(4, "linear-subproblem order", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_5_absorption(canonical_verify, report):
    _, rep = canonical_verify
    fixtures = rep["fixtures"]
    absorption = check(rep, "absorption")
    tempered = check(rep, "radius_temperedness")
    times = fixtures["absorption_time_by_seed"]
    fixture_ok, verdict = compare_fixture(
        archived_fixture("absorption_time_by_seed", times), times)
    ok = absorption["pass"] and tempered["pass"] and not fixtures["c_cal_degenerate"]
    report(5, "absorption", ok and fixture_ok,
           f"c_cal={fixtures['c_cal']:.6g}, decay={tempered['decay']:.2e}, {verdict}")


def test_criterion_6_compact_interval_bounds(canonical_verify, report):
    compact = check(canonical_verify[1], "compact_interval_bounds")
    report(6, "compact-interval bounds", compact["pass"], f"c_lp={compact['c_lp']:.6g}")


def test_criterion_7_chebyshev(canonical_verify, report):
    cheb = check(canonical_verify[1], "chebyshev_measure_bound")
    report(7, "chebyshev measure bound", cheb["pass"] and cheb["checked"] > 0,
           f"{cheb['checked']} checks, {len(cheb['violations'])} violations")


def test_criterion_8_truncation_tails(canonical_verify, report):
    _, rep = canonical_verify
    tails = check(rep, "truncation_tails")
    m_star = rep["fixtures"]["M_star_by_seed"]
    fixture_ok, verdict = compare_fixture(archived_fixture("m_star_by_seed", m_star), m_star)
    report(8, "truncation tails", tails["pass"] and fixture_ok,
           f"eta={tails['eta']}, {verdict}")


def test_criterion_9_bispatial_attractor(spec, solver, canonical_verify, report):
    _, rep = canonical_verify
    bispatial = check(rep, "bispatial_equality")
    defects = rep["fixtures"]["final_defect_by_seed"]
    worst = max(max(d.values()) for d in defects.values())
    # deterministic degenerate case: no noise, no forcing, attractor {(0,0)}
    grid = spec.grid
    zero = ScalarField.zeros(grid)
    det = ModelSpec(spec.lam, spec.alpha, spec.beta, spec.sigma,
                    spec.alpha1, spec.alpha2, spec.alpha3, Nonlinearity(spec.p),
                    zero, zero, Forcing.zero(grid), Forcing.zero(grid), grid)
    fam = FamilySpec(base_radius=1.0, growth_rate=0.0, sample_count=2, delta=det.delta)
    path = WienerPath(seed=0, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(0.0, [path], fam, det, solver, [16.0, 32.0])
    ap = dg.attractor_from_runs(runs, det.p)
    zero_norm = max(
        np.sqrt(dg.l2_sq(u.values, grid) + dg.l2_sq(v.values, grid)) for u, v in ap.points
    )
    det_ok = ap.defects_l2[-1] <= 1e-6 and ap.defects_lp[-1] <= 1e-6 and zero_norm <= 1e-6
    stored = archived_fixture("final_defect_by_seed", defects)
    fixture_ok, verdict = compare_fixture(stored, defects, DEFECT_TOL)
    # tolerance sensitivity: scaling any one archived defect by (1 + 1e-3)
    # must be rejected against this run's defects
    caught = stored is not None
    for seed in stored or {}:
        for norm in stored[seed]:
            perturbed = copy.deepcopy(stored)
            perturbed[seed][norm] *= 1.0 + 1e-3
            caught = caught and not compare_fixture(perturbed, defects, DEFECT_TOL)[0]
    report(9, "bi-spatial attractor", bispatial["pass"] and det_ok and fixture_ok and caught,
           f"worst stochastic defect {worst:.2e}, deterministic defect "
           f"{ap.defects_l2[-1]:.2e}, {verdict}, 1e-3 perturbation caught={caught}")


def test_criterion_10_reproducibility(canonical_verify, tmp_path, report):
    out1, _ = canonical_verify
    out3 = tmp_path / "threads3"
    assert cli.main(["verify", "--out", str(out3), "--threads", "3"]) != 2
    files = ["report.json", "energy_records.csv", "radius_temperedness.csv",
             "tail_vs_M.csv", "defect_vs_t.csv"]
    same = all(filecmp.cmp(out1 / f, out3 / f, shallow=False) for f in files)
    report(10, "reproducibility", same,
           f"{len(files)} files byte-compared across thread counts")
