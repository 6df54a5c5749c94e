import numpy as np
import pytest
from scipy.stats import qmc

from fhnrds.cocycle import (
    CocycleInput,
    FamilySpec,
    _scrambled_halton,
    phi,
    pullback,
    sample_family,
)
from fhnrds.config import default_config
from fhnrds.fields import ScalarField, bump_field, l2_sq
from fhnrds.noise import WienerPath

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
