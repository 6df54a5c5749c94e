import dataclasses

import numpy as np
import pytest
from scipy.stats import qmc

from fhnrds.cocycle import (
    CocycleInput,
    FamilySpec,
    _scrambled_halton,
    phi,
    phi_batch,
    pullback,
    sample_family,
    to_tilde,
)
from fhnrds.config import default_config
from fhnrds.fields import ScalarField, bump_field, l2_sq
from fhnrds.model import FhnState, Trajectory, solve, solve_batch
from fhnrds.noise import OuProcess, WienerPath

from cocycle_law import cocycle_check


@pytest.fixture(scope="module")
def small():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    return cfg, spec, cfg.solver_spec(), cfg.family_spec(spec.delta)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(base_radius=1.0, growth_rate=0.6, sample_count=2, delta=1.0)
    with pytest.raises(ValueError):
        FamilySpec(-1.0, 0.1, 2, 1.0)
    fam = FamilySpec(2.0, 0.25, 3, 1.0)
    assert fam.radius(4.0) == pytest.approx(2.0 * np.e)


def test_scrambled_halton_is_scipys_bitwise():
    seeds = list(range(50)) + [2**32 - 1, 2**32, 2**32 + 7, 2**40 + 3, 2**63 - 1]
    for seed in seeds:
        for n in (1, 2, 3, 5, 8):
            want = qmc.Halton(d=5, scramble=True, seed=seed).random(n)
            assert np.array_equal(_scrambled_halton(n, seed), want), (seed, n)


def test_family_decay_bound():
    fam = FamilySpec(1.0, 0.4, 1, 1.0)
    t = np.linspace(0, 100, 51)
    series = np.exp(-fam.delta * t) * fam.radius(t) ** 2
    assert np.all(np.diff(series) <= 0)
    assert series[-1] < 1e-8


def test_phi_batch_rows_are_solves_from_the_untransformed_pair(small):
    # the solve converts each (u0~, v0~) with z at the row's own first step:
    # every row, through phi_batch and through solve_batch(tilde=True), is
    # bitwise the solve from (u0~ - h1 z1, v0~ - h2 z2), z read afresh
    _, spec, solver, _ = small
    dt, grid = solver.dt, spec.grid
    a, b = WienerPath(seed=3, dt=dt), WienerPath(seed=4, dt=dt, offset=700)
    inputs = [
        CocycleInput(1.5, -1.5, a.shift(-1.5), bump_field(grid, amplitude=0.8, width=3.0),
                     bump_field(grid, center=1.0, amplitude=0.4)),
        CocycleInput(1.0, -1.0, b.shift(-1.0), bump_field(grid, center=-2.0, amplitude=-0.6),
                     bump_field(grid, center=2.0, amplitude=0.3, width=2.0)),
        CocycleInput(0.537, -0.537, a.shift(-0.537), bump_field(grid, amplitude=0.2, width=5.0),
                     ScalarField.zeros(grid)),
    ]
    members = [(inp.path, FhnState(inp.tau, inp.u0_tilde, inp.v0_tilde)) for inp in inputs]
    batch = solve_batch(spec, solver, members, 0.0, snapshot_stride=20, tilde=True)
    for inp, ((u_t, v_t), traj), row in zip(inputs, phi_batch(inputs, spec, solver, 20), batch):
        j = inp.path.offset
        z1 = OuProcess(inp.path.seed, 1, spec.lam, dt).values(j, j)[0]
        z2 = OuProcess(inp.path.seed, 2, spec.sigma, dt).values(j, j)[0]
        init = FhnState(inp.tau, ScalarField(grid, inp.u0_tilde.values - spec.h1.values * z1),
                        ScalarField(grid, inp.v0_tilde.values - spec.h2.values * z2))
        alone = solve(spec, solver, inp.path, inp.tau, 0.0, init, snapshot_stride=20)
        for got in (traj, row):
            assert got.final.t == alone.final.t
            assert np.array_equal(got.final.u.values, alone.final.u.values)
            assert np.array_equal(got.final.v.values, alone.final.v.values)
            for field in dataclasses.fields(Trajectory):
                if field.name not in ("final", "snapshots"):
                    assert np.array_equal(getattr(got, field.name), getattr(alone, field.name)), field.name
            assert [t for t, _ in got.snapshots] == [t for t, _ in alone.snapshots]
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(got.snapshots, alone.snapshots))
        want_u, want_v = to_tilde(alone.final, spec, alone.z1[-1], alone.z2[-1])
        assert np.array_equal(u_t.values, want_u.values) and np.array_equal(v_t.values, want_v.values)


def test_phi_time_zero_is_identity(small):
    cfg, spec, solver, fam = small
    u0 = bump_field(spec.grid, amplitude=0.5, width=4.0)
    v0 = bump_field(spec.grid, center=2.0, amplitude=0.5, width=4.0)
    path = WienerPath(seed=1, dt=solver.dt)
    (u, v), _ = phi(CocycleInput(0.0, 0.0, path, u0, v0), spec, solver)
    np.testing.assert_allclose(u.values, u0.values, atol=1e-13)
    np.testing.assert_allclose(v.values, v0.values, atol=1e-13)


def test_cocycle_input_rejects_negative_time(small):
    cfg, spec, solver, fam = small
    z = ScalarField.zeros(spec.grid)
    with pytest.raises(ValueError):
        CocycleInput(-1.0, 0.0, WienerPath(seed=1, dt=solver.dt), z, z)


def test_cocycle_law_degenerate_pairs(small):
    cfg, spec, solver, fam = small
    u0 = bump_field(spec.grid, amplitude=0.5, width=4.0)
    v0 = ScalarField.zeros(spec.grid)
    path = WienerPath(seed=2, dt=solver.dt)
    assert cocycle_check(0.0, 0.5, 0.0, path, u0, v0, spec, solver) == 0.0
    assert cocycle_check(0.5, 0.0, 0.0, path, u0, v0, spec, solver) == 0.0


def test_cocycle_law_small_grid(small):
    cfg, spec, solver, fam = small
    u0 = bump_field(spec.grid, amplitude=0.5, width=4.0)
    v0 = bump_field(spec.grid, center=-2.0, amplitude=0.3, width=4.0)
    path = WienerPath(seed=2, dt=solver.dt)
    assert cocycle_check(0.5, 0.5, 0.25, path, u0, v0, spec, solver) <= 1e-10


def test_pullback_matches_shifted_phi(small):
    cfg, spec, solver, fam = small
    u0 = bump_field(spec.grid, amplitude=0.5, width=4.0)
    v0 = ScalarField.zeros(spec.grid)
    path = WienerPath(seed=3, dt=solver.dt)
    (u_a, v_a), _ = pullback(1.0, 0.0, path, u0, v0, spec, solver)
    (u_b, v_b), _ = phi(CocycleInput(1.0, -1.0, path.shift(-1.0), u0, v0), spec, solver)
    np.testing.assert_array_equal(u_a.values, u_b.values)
    np.testing.assert_array_equal(v_a.values, v_b.values)


def test_pullback_contraction(small):
    """Two distinct initial states end close together after a long pullback."""
    cfg, spec, solver, fam = small
    path = WienerPath(seed=4, dt=solver.dt)
    a = bump_field(spec.grid, amplitude=1.0, width=4.0)
    b = bump_field(spec.grid, center=3.0, amplitude=0.5, width=3.0)
    z = ScalarField.zeros(spec.grid)
    (ua, va), _ = pullback(8.0, 0.0, path, a, z, spec, solver)
    (ub, vb), _ = pullback(8.0, 0.0, path, b, z, spec, solver)
    gap = np.sqrt(l2_sq(ua.values - ub.values, spec.grid) + l2_sq(va.values - vb.values, spec.grid))
    assert gap < 1e-4


def test_sample_family_norms_and_determinism(small):
    cfg, spec, solver, _ = small
    fam = FamilySpec(base_radius=2.0, growth_rate=0.25, sample_count=5, delta=1.0)
    samples = sample_family(fam, 0.0, 4.0, spec.grid, seed=7)
    assert len(samples) == 5
    radius = fam.radius(4.0)
    for i, (u, v) in enumerate(samples):
        r = np.sqrt(l2_sq(u.values, spec.grid) + l2_sq(v.values, spec.grid))
        assert r == pytest.approx(radius * (i + 1) / 5, rel=1e-10)
    again = sample_family(fam, 0.0, 4.0, spec.grid, seed=7)
    for (u, v), (u2, v2) in zip(samples, again):
        np.testing.assert_array_equal(u.values, u2.values)


def test_sample_family_degenerate_cases(small):
    cfg, spec, solver, _ = small
    zero_fam = FamilySpec(0.0, 0.1, 3, 1.0)
    for u, v in sample_family(zero_fam, 0.0, 10.0, spec.grid):
        assert np.all(u.values == 0.0) and np.all(v.values == 0.0)
    flat = FamilySpec(1.0, 0.0, 2, 1.0)
    a = sample_family(flat, 0.0, 1.0, spec.grid, seed=1)
    b = sample_family(flat, 0.0, 16.0, spec.grid, seed=1)
    for (u, _), (u2, _) in zip(a, b):
        np.testing.assert_array_equal(u.values, u2.values)
