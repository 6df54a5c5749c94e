import dataclasses

import numpy as np
import pytest

from fhnrds import diagnostics as dg
from fhnrds import model, noise
from fhnrds.config import default_config
from fhnrds.fields import Grid, ScalarField, bump_field, l2_sq, superlevel_measure
from fhnrds.model import FhnState, solve, validate_forcing
from fhnrds.noise import WienerPath


@pytest.fixture(scope="module")
def small():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    return cfg, spec, cfg.solver_spec(), cfg.family_spec(spec.delta)


@pytest.fixture(scope="module")
def small_traj(small):
    cfg, spec, solver, _ = small
    path = WienerPath(seed=5, dt=solver.dt)
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=1.0, width=4.0),
        bump_field(spec.grid, center=2.0, amplitude=1.0, width=4.0),
    )
    return solve(spec, solver, path, 0.0, 4.0, init)


@pytest.fixture(scope="module")
def small_runs(small):
    cfg, spec, solver, fam = small
    path = WienerPath(seed=5, dt=solver.dt)
    (runs,) = dg.run_pullback_ensemble(
        0.0, [path], fam, spec, solver, [2.0, 4.0, 8.0], snapshot_stride=1000
    )
    return path, runs


def zero_spec_and_traj():
    cfg = default_config(
        **{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false",
           "forcing.g.amplitude": 0.0, "forcing.h.amplitude": 0.0}
    )
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    init = FhnState(0.0, ScalarField.zeros(spec.grid), ScalarField.zeros(spec.grid))
    traj = solve(spec, solver, WienerPath(seed=0, dt=solver.dt), 0.0, 2.0, init)
    return cfg, spec, solver, traj


# the tolerances of the default config
TOL = (1e-8, 1e-2)


def sliced(traj, sl):
    """The trajectory with every recorded series sliced by `sl`."""
    series = ("t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2", "energy")
    return dataclasses.replace(traj, **{name: getattr(traj, name)[sl] for name in series})


def test_energy_inequality_zero_dynamics_trivial():
    _, spec, _, traj = zero_spec_and_traj()
    assert dg.verify_energy_inequality([traj], spec, 0.0, *TOL).passed
    E, dissipation, forcing, noise = dg.energy_records(traj, spec)
    assert np.all(E == 0.0) and np.all(forcing == 0.0)


def test_energy_inequality_decay_without_noise(small):
    cfg = default_config(
        **{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false",
           "forcing.g.amplitude": 0.0, "forcing.h.amplitude": 0.0}
    )
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=1.0, width=4.0), ScalarField.zeros(spec.grid)
    )
    traj = solve(spec, solver, WienerPath(seed=0, dt=solver.dt), 0.0, 2.0, init)
    c = dg.calibrate_noise_constant([traj], spec)
    assert c >= dg.CALIBRATION_FLOOR
    assert dg.verify_energy_inequality([traj], spec, c, *TOL).passed


def test_energy_inequality_detects_corruption(small, small_traj):
    _, spec, _, _ = small
    c = dg.calibrate_noise_constant([small_traj], spec)
    assert dg.verify_energy_inequality([small_traj], spec, c, *TOL).passed
    E = small_traj.energy.copy()
    k = len(E) // 2
    E[k] += 1.0
    corrupted = dataclasses.replace(small_traj, energy=E)
    check = dg.verify_energy_inequality([small_traj, corrupted], spec, c, *TOL)
    assert not check.passed and check.details["worst_margin"] > 0.0
    # the interval ending at the corrupted sample is the first that fails
    assert dg.verify_energy_inequality([sliced(corrupted, slice(k))], spec, c, *TOL).passed
    assert not dg.verify_energy_inequality([sliced(corrupted, slice(k + 1))], spec, c, *TOL).passed


def test_energy_pass_invariant_under_subsampling(small, monkeypatch):
    """Checking every step vs every k steps (k*dt <= 0.01) never flips PASS."""
    cfg, spec, solver, _ = small
    monkeypatch.setattr(model, "RECORD_STRIDE", 1)
    path = WienerPath(seed=5, dt=solver.dt)
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=1.0, width=4.0),
        bump_field(spec.grid, center=2.0, amplitude=1.0, width=4.0),
    )
    fine = solve(spec, solver, path, 0.0, 2.0, init)
    assert len(fine.t) == 2001  # a record at every step
    c = dg.calibrate_noise_constant([fine], spec)
    assert dg.verify_energy_inequality([fine], spec, c, *TOL).passed
    for stride in (2, 5, 10):
        sub = sliced(fine, slice(None, None, stride))
        assert dg.verify_energy_inequality([sub], spec, c, *TOL).passed


def test_calibrate_constant_needs_ensemble(small, small_traj):
    _, spec, _, _ = small
    with pytest.raises(ValueError):
        dg.calibrate_constant([small_traj], spec, 0.0)


def test_calibrate_constant_zero_runs_degenerate():
    _, spec, _, traj = zero_spec_and_traj()
    c, degenerate = dg.calibrate_constant([traj] * 20, spec, 0.0)
    assert degenerate
    assert c == dg.CALIBRATION_FLOOR


def test_calibrate_constant_reproducible(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    trajs = [r.traj for r in runs] * 4
    a, _ = dg.calibrate_constant(trajs, spec, 0.0)
    b, _ = dg.calibrate_constant(trajs, spec, 0.0)
    assert a == b and a > 0


def test_absorbing_radius_closed_forms():
    cfg = default_config(
        **{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false",
           "forcing.g.amplitude": 0.0, "forcing.h.amplitude": 0.0}
    )
    spec = cfg.model_spec()
    path = WienerPath(seed=1, dt=1e-3)
    # forcing off, z = 0: only the constant term survives.  The closed forms
    # are those of absorbing_radius given z; ou_history reads the OU path
    # whatever h1 and h2, as the records the constant is fitted on do
    zero = (np.zeros(40001), np.zeros(40001))
    forcing = validate_forcing(spec, 0.0, 40.0, path.dt)
    R = dg.absorbing_radius(spec, 2.5, forcing, zero, path.dt)
    assert R.radius == pytest.approx(2.5)
    assert R.forcing_quad == 0.0 and R.ou_quad == 0.0
    # |g|^2 = 1 constantly, h off, z = 0: R = c (1 + 1/delta)
    from fhnrds.model import Forcing, ModelSpec

    grid = spec.grid
    unit = ScalarField(grid, np.full(grid.shape, 1.0 / np.sqrt(2 * grid.half_width)))
    assert l2_sq(unit.values, grid) == pytest.approx(1.0)
    spec2 = ModelSpec(
        spec.lam, spec.alpha, spec.beta, spec.sigma,
        spec.alpha1, spec.alpha2, spec.nonlin,
        spec.h1, spec.h2, Forcing(unit, "constant", c=1.0), spec.h, grid,
    )
    forcing2 = validate_forcing(spec2, 0.0, 40.0, path.dt)
    R2 = dg.absorbing_radius(spec2, 2.5, forcing2, zero, path.dt)
    assert R2.radius == pytest.approx(2.5 * (1.0 + 1.0 / spec.delta), rel=1e-3)
    assert R2.converged


def test_ou_history_is_the_recorded_path_whatever_the_couplings(small):
    # the radii integrate OU moments that h1 and h2 do not weight, and
    # calibrate_constant fits its envelope on records that carry the OU path:
    # zero couplings must read the same path, or the radii undercut the envelope
    _, spec, solver, _ = small
    off = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false"}).model_spec()
    assert l2_sq(off.h1.values, off.grid) == l2_sq(off.h2.values, off.grid) == 0.0
    path = WienerPath(seed=3, dt=solver.dt)
    z_on, z_off = dg.ou_history(path, spec, 2.0), dg.ou_history(path, off, 2.0)
    init = FhnState(-2.0, ScalarField.zeros(off.grid), ScalarField.zeros(off.grid))
    traj = solve(off, solver, path.shift(-2.0), -2.0, 0.0, init)
    for on_c, off_c, recorded in zip(z_on, z_off, (traj.z1, traj.z2)):
        assert np.array_equal(on_c, off_c)
        assert np.array_equal(off_c[:: model.RECORD_STRIDE], recorded)
    assert np.any(z_off[0] != 0.0) and np.any(z_off[1] != 0.0)


def test_absorbing_radius_monotone_in_constant(small, small_runs):
    _, spec, _, _ = small
    path, _ = small_runs
    z = dg.ou_history(path, spec, 40.0)
    forcing = validate_forcing(spec, 0.0, 40.0, path.dt)
    r1 = dg.absorbing_radius(spec, 1.0, forcing, z, path.dt)
    r2 = dg.absorbing_radius(spec, 2.0, forcing, z, path.dt)
    assert r1.forcing_quad >= 0 and r1.ou_quad >= 0 and r1.constant_term >= 0
    assert r2.radius > r1.radius
    with pytest.raises(ValueError):
        dg.absorbing_radius(spec, 1.0, forcing, z, path.dt, kind="bogus")


def test_radius_temperedness_fills_each_ou_block_once(small, monkeypatch):
    # one-block pieces, and a window read twice is filled twice: the 26
    # shifted histories fill each block of their union once, and the series
    # is bitwise the one of 26 separate reads
    _, spec, solver, _ = small
    path = WienerPath(seed=11, dt=solver.dt)
    monkeypatch.setattr(noise, "_SOLVE_VALUES", 1)
    filled, pieces = [], set()
    real_fill = noise.OuProcess._compute_blocks

    def counting_fill(proc, ms):
        filled.extend((proc.seed.component, m) for m in ms)
        pieces.add(proc.piece_blocks)
        return real_fill(proc, ms)

    monkeypatch.setattr(noise.OuProcess, "_compute_blocks", counting_fill)
    forcing = validate_forcing(spec, 0.0, 40.0, path.dt)
    check = dg.radius_temperedness(path, spec, 1.5, forcing, 40.0)
    assert filled and len(filled) == len(set(filled))
    assert pieces == {1}
    ts, series = zip(*check.table[2])
    for t, value in zip(ts, series):
        shifted = path.shift(-t)
        r = dg.absorbing_radius(spec, 1.5, forcing, dg.ou_history(shifted, spec, 40.0), shifted.dt)
        assert value == np.exp(-spec.delta * t) * r.radius, t


def test_measure_bound_random_fields():
    """Chebyshev: meas(|f| >= M) * M^2 <= |f|^2, the bound chebyshev_report checks."""
    g = Grid(n=128, half_width=16.0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.standard_normal(128) * rng.uniform(0.1, 3.0)
        for M in (0.5, 1.0, 2.0):
            meas = superlevel_measure(ScalarField(g, v), M)
            assert meas * M * M <= l2_sq(v, g), (meas, M)


def tails(check):
    """(M_star, sup tails) of the one seed of a truncation-tails check."""
    (M_star,) = check.fixtures["M_star_by_seed"].values()
    return M_star, [row[2] for row in check.table[2]]


def test_truncation_tail_report_properties(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    big = 1e30
    check = dg.truncation_tail_report([runs], spec, [0.25, 0.5, 1.0, 2.0], eta=big)
    M_star, sup_tail = tails(check)
    assert M_star == 0.25  # everything is below an enormous eta
    assert np.all(np.diff(sup_tail) <= 0.0)
    # M above the global max has an exactly zero tail
    top = 2.0 * max(float(np.max(np.abs(r.u_tilde.values))) for r in runs) + 1.0
    check2 = dg.truncation_tail_report([runs], spec, [top], eta=1e-3)
    assert tails(check2)[1] == [0.0]
    with pytest.raises(ValueError):
        dg.truncation_tail_report([runs], spec, [1.0, 0.5], eta=1e-3)


def test_truncation_tails_scale_bound_vacuous_at_smallest_M(small):
    # every tail is 0, so M_star is the smallest M: nothing nearer the scale
    # of u~ = 0.02 was tried, and the bound M_star <= 10 max|u~| does not apply
    _, spec, _, _ = small
    u = bump_field(spec.grid, amplitude=0.02, width=4.0)
    run = dg.PullbackRun(2.0, 0, 1, None, u, ScalarField.zeros(spec.grid))
    check = dg.truncation_tail_report([[run]], spec, [0.25, 0.5, 1.0], eta=1e-3)
    assert tails(check) == (0.25, [0.0, 0.0, 0.0])
    assert check.passed


def test_truncation_tails_scale_bound_fails_on_coarse_schedule(small):
    # the tail at M = 1e-3 exceeds eta, so M_star = 1.0 > 10 max|u~| = 0.5
    _, spec, _, _ = small
    u = bump_field(spec.grid, amplitude=0.05, width=4.0)
    run = dg.PullbackRun(2.0, 0, 1, None, u, ScalarField.zeros(spec.grid))
    check = dg.truncation_tail_report([[run]], spec, [1e-3, 1.0], eta=1e-30)
    M_star, sup_tail = tails(check)
    assert M_star == 1.0 and sup_tail[1] <= sup_tail[0]
    assert not check.passed


def test_attractor_single_entry_schedule_flagged(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    only8 = [r for r in runs if r.t == 8.0]
    ap = dg.attractor_from_runs(only8, spec.p)
    assert ap.schedule == [8.0] and ap.defects_l2 == [] and ap.defects_lp == []
    assert dg.bispatial_equality_check(ap, np.inf) is False
    check = dg.bispatial_report([only8], [np.inf], spec, np.inf)
    assert not check.passed and check.details == {"flagged": "degenerate schedule"}
    assert check.fixtures == {"final_defect_by_seed": {5: {"l2": None, "lp": None}}}
    assert check.table[2] == []


def test_attractor_matrices_symmetric(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    ap = dg.attractor_from_runs(runs, spec.p)
    assert len(ap.points) > 0
    np.testing.assert_array_equal(ap.pairwise_l2, ap.pairwise_l2.T)
    assert np.all(np.diag(ap.pairwise_l2) == 0.0)
    np.testing.assert_array_equal(ap.pairwise_lp, ap.pairwise_lp.T)


def test_bispatial_injected_failure(small):
    """Lp defects rising while L2 defects fall must fail, at any tolerance."""
    _, spec, _, _ = small
    grid = spec.grid
    # disjoint supports: wide moderate block, zero, then a tall narrow spike,
    # so the L2 gaps shrink while the L4 gap between the last pair grows
    shapes = [(2.0, slice(0, 32)), (0.0, slice(0, 0)), (8.0, slice(40, 41))]
    runs = []
    for (amp, sl), t in zip(shapes, [2.0, 4.0, 8.0]):
        vals = np.zeros(grid.shape)
        vals[sl] = amp
        runs.append(dg.PullbackRun(t, 0, 1, None, ScalarField(grid, vals),
                                   ScalarField.zeros(grid)))
    ap = dg.attractor_from_runs(runs, spec.p)
    assert ap.defects_l2[1] < ap.defects_l2[0] and ap.defects_lp[1] > 1.5 * ap.defects_lp[0]
    assert not dg.bispatial_equality_check(ap, 1e-3)
    assert not dg.bispatial_equality_check(ap, np.inf)
    # the rising Lp step is what fails: the L2 sequence alone passes
    assert dg.bispatial_equality_check(dataclasses.replace(ap, defects_lp=ap.defects_l2), np.inf)
    check = dg.bispatial_report([runs], [np.inf], spec, np.inf)
    assert not check.passed and check.details == {}
    assert [row[:2] for row in check.table[2]] == [(1, 4.0), (1, 8.0)]


def radius(value):
    """An absorbing radius with `value` as both its radius and its constant."""
    return dg.AbsorbingSetSpec(value, 1.0, 0.0, 0.0, True)


def test_absorption_report_zero_family():
    cfg = default_config(
        **{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false",
           "forcing.g.amplitude": 0.0, "forcing.h.amplitude": 0.0,
           "family.base_radius": 0.0}
    )
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    path = WienerPath(seed=0, dt=solver.dt)
    ensembles = dg.run_pullback_ensemble(0.0, [path], fam, spec, solver, [2.0])
    check = dg.absorption_report(ensembles, [radius(1e-6)], [2.0])
    assert check.passed and check.fixtures["absorption_time_by_seed"] == {0: 2.0}


def test_compact_interval_sup_dominates_endpoint(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    endpoint = max(r.terminal_l2sq for r in runs)
    assert dg.compact_interval_report([runs], [radius(np.inf)], np.inf, 0.0).passed
    # a radius just below the largest terminal value fails: the window sup
    # reaches the endpoint
    below = radius(endpoint * (1.0 - 1e-9))
    assert not dg.compact_interval_report([runs], [below], np.inf, 0.0).passed


def test_containment_check(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    ap = dg.attractor_from_runs(runs, spec.p)
    assert dg.containment_check(ap, rho=np.inf)
    assert not dg.containment_check(ap, rho=0.0)


def verdicts_at(small, small_runs, scale):
    """Verdicts on the small runs, each given its constant fitted on the same
    runs times `scale`: the energy inequality with c_noise, absorption with
    c_cal, the compact-interval Lp bound with c_lp, containment with rho."""
    _, spec, _, _ = small
    path, runs = small_runs
    trajs = [r.traj for r in runs]
    c_noise = dg.calibrate_noise_constant(trajs, spec)
    c_cal, _ = dg.calibrate_constant(trajs * 4, spec, 0.0)
    z = dg.ou_history(path, spec, 40.0)
    forcing = validate_forcing(spec, 0.0, 40.0, path.dt)
    R = dg.absorbing_radius(spec, c_cal, forcing, z, path.dt)
    c_lp = dg.calibrate_lp_constant(runs, 0.0, R)
    rho = dg.absorbing_radius(spec, 1.0, forcing, z, path.dt, kind="rho")
    c_rho = dg.calibrate_rho_constant(runs, rho)
    scaled_R = dg.absorbing_radius(spec, scale * c_cal, forcing, z, path.dt)
    ap = dg.attractor_from_runs(runs, spec.p)
    return {
        "energy": dg.verify_energy_inequality(trajs, spec, scale * c_noise, *TOL).passed,
        "absorption": dg.absorption_report([runs], [scaled_R], [2.0, 4.0, 8.0]).passed,
        "compact_interval": dg.compact_interval_report([runs], [R], scale * c_lp, 0.0).passed,
        "containment": dg.containment_check(ap, scale * c_rho * rho.unit_radius),
    }


def test_verdicts_fail_with_their_constant_scaled_down(small, small_runs):
    # the constants are arguments of the verdicts, apart from the runs they
    # verify; a constant fitted elsewhere (held out) that comes out half the
    # in-sample one must make each verdict fail
    assert verdicts_at(small, small_runs, 1.0) == dict.fromkeys(
        ("energy", "absorption", "compact_interval", "containment"), True)
    assert not any(verdicts_at(small, small_runs, 0.5).values())
