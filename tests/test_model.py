import dataclasses
import pickle

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.lapack import dpttrs

from fhnrds import diagnostics as dg
from fhnrds.cocycle import pullback
from fhnrds.config import default_config
from fhnrds.fields import Grid, ScalarField, bump_field, l2_sq, lp_p
from fhnrds.model import (
    BlowUpError,
    FhnState,
    Forcing,
    ModelSpec,
    Nonlinearity,
    SolverSpec,
    StructureViolation,
    _implicit_operator,
    from_tilde,
    solve,
    solve_batch,
    to_tilde,
    validate_forcing,
    validate_structure,
    young_shift_constant,
)
from fhnrds.noise import WienerPath, get_ou, step_index


def linear_spec(grid, lam=1.0, alpha=1.0, beta=1.0, sigma=1.0):
    zero = ScalarField.zeros(grid)
    return ModelSpec(
        lam, alpha, beta, sigma, 4.0, 1e-6, 1.0, 1.0,
        Nonlinearity(4.0, sign=0.0), zero, zero,
        Forcing.zero(grid), Forcing.zero(grid), zero, zero, zero, grid,
    )


def test_young_shift_constant_tight():
    for p in (3.0, 4.0, 6.0):
        c = young_shift_constant(p)
        s = np.linspace(-3, 3, 20001)
        lhs = s  # unit shift phi = 1
        bound = 0.5 * np.abs(s) ** p + c
        assert np.all(lhs <= bound + 1e-12)
        assert np.min(bound - lhs) < 1e-6  # the constant is not slack


def test_nonlinearity_power_fast_path():
    f = Nonlinearity(4.0)
    s = np.linspace(-2, 2, 101)
    np.testing.assert_allclose(f(s), -np.abs(s) ** 2 * s, rtol=1e-13)
    g = Nonlinearity(3.5, eps=0.1, sign=-1.0)
    np.testing.assert_allclose(g(s), -np.abs(s) ** 1.5 * s + 0.1 * s, rtol=1e-13)
    with pytest.raises(ValueError):
        Nonlinearity(2.0)


def test_forcing_kinds():
    grid = Grid(n=16, half_width=2.0)
    prof = ScalarField(grid, np.ones(16))
    assert Forcing(prof, "constant", c=2.0).factor(5.0) == 2.0
    assert Forcing(prof, "exp", a=0.5).factor(2.0) == pytest.approx(np.e)
    assert Forcing(prof, "sin", a=1.0, c=0.5).factor(np.pi / 2) == pytest.approx(1.5)
    z = Forcing.zero(grid)
    assert z.l2sq_at(3.0) == 0.0
    with pytest.raises(ValueError):
        Forcing(prof, "sawtooth")


def test_model_spec_validation():
    grid = Grid(n=16, half_width=2.0)
    with pytest.raises(ValueError):
        linear_spec(grid, lam=-1.0)


def test_validate_structure_canonical_passes():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    validate_structure(cfg.model_spec())


def test_validate_structure_rejects_wrong_sign():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    bad = ModelSpec(
        spec.lam, spec.alpha, spec.beta, spec.sigma, spec.p,
        spec.alpha1, spec.alpha2, spec.alpha3,
        Nonlinearity(spec.p, sign=+1.0), spec.h1, spec.h2,
        spec.g, spec.h, spec.psi1, spec.psi2, spec.psi3, spec.grid,
    )
    with pytest.raises(StructureViolation) as exc:
        validate_structure(bad)
    assert exc.value.witness is not None


def test_validate_forcing_convergence_flag():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    total, converged = validate_forcing(cfg.model_spec(), 0.0, 40.0)
    assert converged and total > 0.0
    # forcing that keeps growing backward in time has no convergent history
    grid = Grid(n=64, half_width=8.0)
    spec = cfg.model_spec()
    grow = Forcing(bump_field(grid, amplitude=0.25, width=8.0), "exp", a=-2.0)
    bad = ModelSpec(
        spec.lam, spec.alpha, spec.beta, spec.sigma, spec.p,
        spec.alpha1, spec.alpha2, spec.alpha3, spec.nonlin,
        spec.h1, spec.h2, grow, spec.h,
        spec.psi1, spec.psi2, spec.psi3, grid,
    )
    total, converged = validate_forcing(bad, 0.0, 40.0)
    assert not converged


def test_solve_one_step_advances_time_one_dt():
    grid = Grid(n=16, half_width=2.0)
    spec = linear_spec(grid)
    solver = SolverSpec(dt=1e-2, grid=grid)
    st = FhnState(0.5, ScalarField.zeros(grid), ScalarField.zeros(grid))
    traj = solve(spec, solver, WienerPath(seed=0, dt=1e-2), 0.5, 0.51, st)
    assert traj.final.t == pytest.approx(0.51)
    assert len(traj.t) == 2


def reference_solve(spec, solver, path, tau0, tau1, init, record_stride=10):
    """The IMEX loop of `solve` written with allocating expressions.

    Same scheme and operation order as `solve`, without its batch buffers,
    its cubic fold or its in-place solve.  Returns the final u and v, the
    records, and a snapshot of u at every record.
    """
    dt = solver.dt
    k0 = step_index(tau0, dt)
    nsteps = step_index(tau1, dt) - k0
    z1s = get_ou(path.seed, 1, spec.lam, dt).values(path.offset, path.offset + nsteps)
    z2s = get_ou(path.seed, 2, spec.sigma, dt).values(path.offset, path.offset + nsteps)
    grid = init.grid
    op = _implicit_operator(grid, spec.lam, dt)
    if op._mode == "tridiagonal":
        def implicit(rhs):
            return dpttrs(op._d, op._e, rhs)[0]
    else:
        def implicit(rhs):
            return op._lu.solve(rhs.ravel()).reshape(grid.shape)
    h1, h2 = spec.h1.values, spec.h2.values
    gprof, hprof = spec.g.profile.values, spec.h.profile.values
    alpha, beta = spec.alpha, spec.beta
    ev = np.exp(-spec.sigma * dt)
    gain = (1.0 - ev) / spec.sigma
    rec = {k: [] for k in ("t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p",
                           "z1", "z2", "g_l2sq", "h_l2sq")}
    snapshots = []

    def record(u, v, n):
        tn = (k0 + n) * dt
        for key, value in (
            ("t", tn), ("u_l2sq", l2_sq(u, grid)), ("v_l2sq", l2_sq(v, grid)),
            ("u_lp_p", lp_p(u, grid, spec.p)), ("utilde_lp_p", lp_p(u + h1 * z1s[n], grid, spec.p)),
            ("z1", z1s[n]), ("z2", z2s[n]),
            ("g_l2sq", spec.g.l2sq_at(tn)), ("h_l2sq", spec.h.l2sq_at(tn)),
        ):
            rec[key].append(value)
        snapshots.append((tn, u.copy()))

    u, v = init.u.values.copy(), init.v.values.copy()
    record(u, v, 0)
    for n in range(nsteps):
        tn = (k0 + n) * dt
        z1n, z2n = z1s[n], z2s[n]
        gf, hf = spec.g.factor(tn), spec.h.factor(tn)
        f_val = spec.nonlin(u + h1 * z1n)
        rhs = u + dt * (f_val + gf * gprof - alpha * v + spec.lap_h1 * z1n - (alpha * z2n) * h2)
        u_new = implicit(rhs)
        v = ev * v + gain * (beta * u + hf * hprof + (beta * z1n) * h1)
        u = u_new
        if (n + 1) % record_stride == 0 or n + 1 == nsteps:
            record(u, v, n + 1)
    rec = {k: np.asarray(vv) for k, vv in rec.items()}
    rec["energy"] = alpha * rec["v_l2sq"] + beta * rec["u_l2sq"]
    return u, v, rec, snapshots


SMALL_GRID = {"grid.n": 64, "grid.half_width": 8.0}


@pytest.mark.parametrize(
    "overrides, generic, t1",
    [
        ({}, False, 0.4),  # tridiagonal path, cubic fold
        ({"grid.boundary": "neumann0"}, False, 0.4),
        ({}, True, 0.4),  # generic nonlinearity branch
        ({"grid.boundary": "periodic"}, False, 0.4),  # sparse path
        ({"grid.dim": 2, "grid.n": 16}, False, 0.1),  # sparse path in 2-D
    ],
    ids=["dirichlet0-cubic", "neumann0", "generic-f", "periodic", "2d"],
)
def test_solve_bitwise_matches_reference(overrides, generic, t1):
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec = cfg.model_spec()
    if generic:
        shift = bump_field(spec.grid, amplitude=0.1, width=2.0)
        spec = dataclasses.replace(spec, p=3.0, nonlin=Nonlinearity(3.0, shift=shift, eps=0.1))
    solver = cfg.solver_spec()
    path = WienerPath(seed=23, dt=solver.dt).shift(-0.5)
    init = FhnState(0.0, bump_field(spec.grid, amplitude=1.5, width=3.0),
                    bump_field(spec.grid, center=1.0, amplitude=0.5))
    traj = solve(spec, solver, path, 0.0, t1, init, snapshot_stride=10)
    u, v, rec, snapshots = reference_solve(spec, solver, path, 0.0, t1, init)
    assert np.array_equal(traj.final.u.values, u)
    assert np.array_equal(traj.final.v.values, v)
    for key, expected in rec.items():
        assert np.array_equal(getattr(traj, key), expected), key
    assert len(traj.snapshots) == len(snapshots)
    for (t, snap), (t_ref, snap_ref) in zip(traj.snapshots, snapshots):
        assert t == t_ref and np.array_equal(snap, snap_ref)


TRAJECTORY_ARRAYS = ("t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2",
                     "g_l2sq", "h_l2sq", "energy")


def assert_same_trajectory(got, expected):
    assert np.array_equal(got.final.u.values, expected.final.u.values)
    assert np.array_equal(got.final.v.values, expected.final.v.values)
    assert got.final.t == expected.final.t and got.final_z == expected.final_z
    for key in TRAJECTORY_ARRAYS:
        assert np.array_equal(getattr(got, key), getattr(expected, key)), key
    assert len(got.snapshots) == len(expected.snapshots)
    for (t, snap), (t_ref, snap_ref) in zip(got.snapshots, expected.snapshots):
        assert t == t_ref and np.array_equal(snap, snap_ref)


@pytest.mark.parametrize(
    "overrides, generic, t1",
    [
        ({}, False, 0.4),
        ({"grid.boundary": "neumann0"}, False, 0.4),
        ({}, True, 0.4),
        ({"grid.boundary": "periodic"}, False, 0.4),
        ({"grid.dim": 2, "grid.n": 16}, False, 0.1),
    ],
    ids=["dirichlet0-cubic", "neumann0", "generic-f", "periodic", "2d"],
)
def test_solve_batch_rows_match_single_solves(overrides, generic, t1):
    # staggered starts (off the record stride too), two seeds, two runs
    # sharing one z series, and a run of zero steps
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec = cfg.model_spec()
    if generic:
        shift = bump_field(spec.grid, amplitude=0.1, width=2.0)
        spec = dataclasses.replace(spec, p=3.0, nonlin=Nonlinearity(3.0, shift=shift, eps=0.1))
    solver = cfg.solver_spec()
    dt = solver.dt
    a = WienerPath(seed=23, dt=dt)
    b = WienerPath(seed=29, dt=dt)

    def state(t, amp, center):
        return FhnState(t, bump_field(spec.grid, amplitude=amp, width=3.0),
                        bump_field(spec.grid, center=center, amplitude=0.5))

    members = [
        (a.shift(-0.5), state(0.0, 1.5, 1.0)),
        (b.shift(0.2), state(0.037, -1.0, 0.0)),
        (a.shift(-0.45), state(0.05, 0.7, -1.0)),
        (b, state(0.0, 1.2, 2.0)),
        (a, state(t1, 0.3, 0.0)),
    ]
    trajs = solve_batch(spec, solver, members, t1, snapshot_stride=20)
    assert len(trajs) == len(members)
    for (path, init), traj in zip(members, trajs):
        alone = solve(spec, solver, path, init.t, t1, init, snapshot_stride=20)
        assert_same_trajectory(traj, alone)


def test_pullback_ensemble_matches_pullback_per_run():
    cfg = default_config(**SMALL_GRID)
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    fam = cfg.family_spec(spec.delta)
    paths = [WienerPath(seed=s, dt=solver.dt) for s in (3, 4)]
    schedule = [0.5, 0.25, 1.0]
    ensembles = dg.run_pullback_ensemble(0.0, paths, fam, spec, solver, schedule,
                                         snapshot_stride=100)
    assert len(ensembles) == len(paths)
    for path, runs in zip(paths, ensembles):
        assert [(r.t, r.sample_id) for r in runs] == [
            (t, sid) for t in sorted(schedule) for sid in range(fam.sample_count)
        ]
        for r in runs:
            u0, v0 = dg.sample_family(fam, 0.0, r.t, spec.grid)[r.sample_id]
            (u_t, v_t), traj = pullback(r.t, 0.0, path, u0, v0, spec, solver,
                                        snapshot_stride=100)
            assert r.seed == path.seed
            assert np.array_equal(r.u_tilde.values, u_t.values)
            assert np.array_equal(r.v_tilde.values, v_t.values)
            assert_same_trajectory(r.traj, traj)


def test_linear_decay_matches_matrix_exponential():
    grid = Grid(dim=1, half_width=1.0, n=4, boundary="periodic")
    spec = linear_spec(grid)
    A = np.array([[-1.0, -1.0], [1.0, -1.0]])
    exact = expm(A) @ np.array([0.7, -0.3])
    solver = SolverSpec(dt=1e-4, grid=grid)
    init = FhnState(
        0.0, ScalarField(grid, np.full(4, 0.7)), ScalarField(grid, np.full(4, -0.3))
    )
    traj = solve(spec, solver, WienerPath(seed=0, dt=1e-4), 0.0, 1.0, init)
    got = np.array([traj.final.u.values[0], traj.final.v.values[0]])
    np.testing.assert_allclose(got, exact, atol=5e-5)


def test_nonlinear_decay_monotone_without_noise():
    cfg = default_config(
        **{"grid.n": 64, "grid.half_width": 8.0, "noise.enabled": "false",
           "forcing.g.amplitude": 0.0, "forcing.h.amplitude": 0.0}
    )
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=2.0, width=4.0),
        bump_field(spec.grid, amplitude=1.0, width=4.0),
    )
    traj = solve(spec, solver, WienerPath(seed=0, dt=solver.dt), 0.0, 4.0, init)
    assert np.all(np.diff(traj.energy) <= 1e-12)
    assert traj.energy[-1] < 1e-3 * traj.energy[0]


def test_run_splitting_bitwise():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    path = WienerPath(seed=17, dt=solver.dt)
    init = FhnState(0.0, bump_field(spec.grid, amplitude=1.0), ScalarField.zeros(spec.grid))
    whole = solve(spec, solver, path, 0.0, 2.0, init)
    first = solve(spec, solver, path, 0.0, 1.0, init)
    second = solve(spec, solver, path.shift(1.0), 1.0, 2.0, first.final)
    np.testing.assert_array_equal(whole.final.u.values, second.final.u.values)
    np.testing.assert_array_equal(whole.final.v.values, second.final.v.values)


def test_tilde_roundtrip():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    u = bump_field(spec.grid, amplitude=1.0)
    v = bump_field(spec.grid, center=1.0, amplitude=0.5)
    st = from_tilde(u, v, spec, 0.37, -0.81, t=0.0)
    u2, v2 = to_tilde(st, spec, 0.37, -0.81)
    np.testing.assert_allclose(u2.values, u.values, atol=1e-14)
    np.testing.assert_allclose(v2.values, v.values, atol=1e-14)


def test_blow_up_detected():
    # a coarse step makes the explicit cubic term violently unstable
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "solver.dt": 0.1})
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    init = FhnState(
        0.0, bump_field(spec.grid, amplitude=10.0, width=4.0), ScalarField.zeros(spec.grid)
    )
    with pytest.raises(BlowUpError) as exc:
        solve(spec, solver, WienerPath(seed=0, dt=solver.dt), 0.0, 8.0, init)
    assert exc.value.t > 0.0


def test_blow_up_error_pickles():
    # worker processes of `cli --threads` send it back pickled
    exc = pickle.loads(pickle.dumps(BlowUpError(1.5, 3.0e9, (7, 16.0))))
    assert isinstance(exc, BlowUpError)
    assert (exc.t, exc.max_u, exc.member) == (1.5, 3.0e9, (7, 16.0))
    assert str(exc) == str(BlowUpError(1.5, 3.0e9, (7, 16.0)))
    assert "seed 7, horizon t=16.0" in str(exc)


def test_blow_up_names_the_member():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "solver.dt": 0.1})
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    calm = FhnState(0.0, ScalarField.zeros(spec.grid), ScalarField.zeros(spec.grid))
    wild = FhnState(0.0, bump_field(spec.grid, amplitude=10.0, width=4.0),
                    ScalarField.zeros(spec.grid))
    path = WienerPath(seed=0, dt=solver.dt)
    members = [(path, calm), (WienerPath(seed=5, dt=solver.dt), wild)]
    with pytest.raises(BlowUpError) as exc:
        solve_batch(spec, solver, members, 8.0)
    assert exc.value.member == (5, 8.0)


def test_trajectory_records_transformed_norms():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    solver = cfg.solver_spec()
    path = WienerPath(seed=3, dt=solver.dt)
    init = FhnState(0.0, bump_field(spec.grid, amplitude=1.0), ScalarField.zeros(spec.grid))
    traj = solve(spec, solver, path, 0.0, 0.5, init, snapshot_stride=100)
    assert traj.t[0] == 0.0 and traj.t[-1] == 0.5
    assert traj.u_l2sq[0] == pytest.approx(l2_sq(init.u.values, spec.grid))
    # energy = alpha |v|^2 + beta |u|^2
    np.testing.assert_allclose(
        traj.energy, spec.alpha * traj.v_l2sq + spec.beta * traj.u_l2sq, rtol=1e-13
    )
    assert len(traj.snapshots) == 6
    with pytest.raises(ValueError):
        solve(spec, solver, path, 0.0, 0.5, init, record_stride=10, snapshot_stride=15)
