import dataclasses

import numpy as np
import pytest

from fhnrds import diagnostics as dg
from fhnrds.config import default_config
from fhnrds.fields import Grid, ScalarField, bump_field, l2_sq
from fhnrds.model import FhnState, solve
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


def test_energy_inequality_zero_dynamics_trivial():
    _, spec, _, traj = zero_spec_and_traj()
    rep = dg.verify_energy_inequality(traj, spec, c_noise=0.0)
    assert rep["pass"]
    E, dissipation, rhs = dg.energy_records(traj, spec, 0.0)
    assert np.all(E == 0.0) and np.all(rhs == 0.0)


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
    assert dg.verify_energy_inequality(traj, spec, c)["pass"]


def test_energy_inequality_detects_corruption(small, small_traj):
    _, spec, _, _ = small
    c = dg.calibrate_noise_constant([small_traj], spec)
    assert dg.verify_energy_inequality(small_traj, spec, c)["pass"]
    E = small_traj.energy.copy()
    k = len(E) // 2
    E[k] += 1.0
    corrupted = dataclasses.replace(small_traj, energy=E)
    rep = dg.verify_energy_inequality(corrupted, spec, c)
    assert not rep["pass"]
    assert rep["witness"] == pytest.approx(small_traj.t[k - 1])


def test_energy_pass_invariant_under_subsampling(small):
    """Checking every step vs every k steps (k*dt <= 0.01) never flips PASS."""
    cfg, spec, solver, _ = small
    path = WienerPath(seed=5, dt=solver.dt)
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=1.0, width=4.0),
        bump_field(spec.grid, center=2.0, amplitude=1.0, width=4.0),
    )
    fine = solve(spec, solver, path, 0.0, 2.0, init, record_stride=1)
    c = dg.calibrate_noise_constant([fine], spec)
    assert dg.verify_energy_inequality(fine, spec, c)["pass"]
    for stride in (2, 5, 10):
        sub = dataclasses.replace(
            fine,
            t=fine.t[::stride], u_l2sq=fine.u_l2sq[::stride],
            v_l2sq=fine.v_l2sq[::stride], u_lp_p=fine.u_lp_p[::stride],
            utilde_lp_p=fine.utilde_lp_p[::stride], z1=fine.z1[::stride],
            z2=fine.z2[::stride], g_l2sq=fine.g_l2sq[::stride],
            h_l2sq=fine.h_l2sq[::stride], energy=fine.energy[::stride],
        )
        assert dg.verify_energy_inequality(sub, spec, c)["pass"]


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
    # forcing off, noise off: only the constant term survives
    R = dg.absorbing_radius(0.0, path, spec, 2.5, horizon=40.0)
    assert R.radius == pytest.approx(2.5)
    assert R.forcing_quad == 0.0 and R.ou_quad == 0.0
    # |g|^2 = 1 constantly, h off, noise off: R = c (1 + 1/delta)
    from fhnrds.model import Forcing, ModelSpec

    grid = spec.grid
    unit = ScalarField(grid, np.full(grid.shape, 1.0 / np.sqrt(2 * grid.half_width)))
    assert l2_sq(unit.values, grid) == pytest.approx(1.0)
    spec2 = ModelSpec(
        spec.lam, spec.alpha, spec.beta, spec.sigma, spec.p,
        spec.alpha1, spec.alpha2, spec.alpha3, spec.nonlin,
        spec.h1, spec.h2, Forcing(unit, "constant", c=1.0), spec.h,
        spec.psi1, spec.psi2, spec.psi3, grid,
    )
    R2 = dg.absorbing_radius(0.0, path, spec2, 2.5, horizon=40.0)
    assert R2.radius == pytest.approx(2.5 * (1.0 + 1.0 / spec.delta), rel=1e-3)
    assert R2.converged


def test_absorbing_radius_monotone_in_constant(small, small_runs):
    _, spec, _, _ = small
    path, _ = small_runs
    r1 = dg.absorbing_radius(0.0, path, spec, 1.0, horizon=40.0)
    r2 = dg.absorbing_radius(0.0, path, spec, 2.0, horizon=40.0)
    assert r1.forcing_quad >= 0 and r1.ou_quad >= 0 and r1.constant_term >= 0
    assert r2.radius > r1.radius
    with pytest.raises(ValueError):
        dg.absorbing_radius(0.0, path, spec, 1.0, horizon=40.0, kind="bogus")


def test_measure_bound_arithmetic():
    g = Grid(n=8, half_width=4.0)
    f = ScalarField(g, np.zeros(8))
    meas, bound, ok = dg.measure_bound(f, 2.0, 4.0)
    assert bound == 1.0 and meas == 0.0 and ok
    with pytest.raises(ValueError):
        dg.measure_bound(f, 0.0, 4.0)


def test_measure_bound_random_fields():
    g = Grid(n=128, half_width=16.0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.standard_normal(128) * rng.uniform(0.1, 3.0)
        f = ScalarField(g, v)
        R = l2_sq(v, g)
        for M in (0.5, 1.0, 2.0):
            meas, bound, ok = dg.measure_bound(f, M, R)
            assert ok, (meas, bound)


def test_truncation_tail_report_properties(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    big = 1e30
    rep = dg.truncation_tail_report(runs, spec, [0.25, 0.5, 1.0, 2.0], eta=big)
    assert rep["M_star"] == 0.25  # everything is below an enormous eta
    assert rep["monotone_in_M"]
    # M above the global max has an exactly zero tail
    top = 2.0 * rep["max_abs_utilde"] + 1.0
    rep2 = dg.truncation_tail_report(runs, spec, [top], eta=1e-3)
    assert rep2["sup_tail"][0] == 0.0
    with pytest.raises(ValueError):
        dg.truncation_tail_report(runs, spec, [1.0, 0.5], eta=1e-3)


def test_attractor_single_entry_schedule_flagged(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    only8 = [r for r in runs if r.t == 8.0]
    ap = dg.attractor_from_runs(only8, 0.0, 5, spec.p)
    assert ap.defect_flagged
    assert np.isnan(ap.cauchy_defect_l2)
    bi = dg.bispatial_equality_check(ap, spec.p)
    assert not bi["pass"]


def test_attractor_matrices_symmetric(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    ap = dg.attractor_from_runs(runs, 0.0, 5, spec.p)
    assert len(ap.points) > 0
    np.testing.assert_array_equal(ap.pairwise_l2, ap.pairwise_l2.T)
    assert np.all(np.diag(ap.pairwise_l2) == 0.0)
    np.testing.assert_array_equal(ap.pairwise_lp, ap.pairwise_lp.T)


def test_bispatial_injected_failure(small):
    """Lp defects rising while L2 defects fall must fail with the pair named."""
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
    ap = dg.AttractorApprox(0.0, 1, [(runs[-1].u_tilde, runs[-1].v_tilde)], [(8.0, 0)],
                            np.zeros((1, 1)), np.zeros((1, 1)), 0.0, 0.0, False, runs)
    bi = dg.bispatial_equality_check(ap, spec.p)
    assert not bi["pass"]
    assert any(o["norm"] == "lp" for o in bi["offending_pairs"])


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
    (runs,) = dg.run_pullback_ensemble(0.0, [path], fam, spec, solver, [2.0])
    rep = dg.absorption_report(runs, radius=1e-6, fam=fam, t_schedule=[2.0])
    assert rep["pass"] and rep["absorption_time"] == 2.0


def test_compact_interval_sup_dominates_endpoint(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    rep = dg.compact_interval_report(runs, spec, radius_l2=np.inf, radius_lp=np.inf, tau=0.0)
    endpoint = max(r.terminal_l2sq for r in runs)
    assert rep["sup_l2sq"] >= endpoint


def test_containment_check(small, small_runs):
    _, spec, _, _ = small
    _, runs = small_runs
    ap = dg.attractor_from_runs(runs, 0.0, 5, spec.p)
    assert dg.containment_check(ap, rho=np.inf)["pass"]
    assert not dg.containment_check(ap, rho=0.0)["pass"]
