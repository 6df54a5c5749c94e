import dataclasses
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from fhnrds import diagnostics as dg
from fhnrds.cocycle import FamilySpec, pullback
from fhnrds.config import ConfigError, check_forcing, default_config
from fhnrds.fields import Grid, ScalarField, bump_field, l2_sq, laplacian_values, lp_p
from fhnrds.model import (
    BlowUpError,
    FhnState,
    Forcing,
    ModelSpec,
    Nonlinearity,
    SolverSpec,
    StructureViolation,
    _HISTORY_CHUNK,
    _ImplicitOperator,
    history_quadrature,
    solve,
    solve_batch,
    validate_forcing,
    validate_structure,
)
from fhnrds.noise import (
    NoiseSeed,
    OuProcess,
    WienerPath,
    step_index,
    temperedness_probe,
    wiener_increment,
)


def linear_spec(grid, lam=1.0, alpha=1.0, beta=1.0, sigma=1.0):
    zero = ScalarField.zeros(grid)
    return ModelSpec(
        lam, alpha, beta, sigma, 1e-6, 1.0,
        Nonlinearity(4.0, sign=0.0), zero, zero,
        Forcing.zero(grid), Forcing.zero(grid), grid,
    )


def test_nonlinearity_power_fast_path():
    f = Nonlinearity(4.0)
    s = np.linspace(-2, 2, 101)
    np.testing.assert_allclose(f(s), -np.abs(s) ** 2 * s, rtol=1e-13)
    g = Nonlinearity(3.5, sign=-1.0)
    np.testing.assert_allclose(g(s), -np.abs(s) ** 1.5 * s, rtol=1e-13)
    # in place into `out`: bitwise the allocating call and sign * (|s|**(p-2) * s);
    # p = 2.5 takes numpy's fast path for the exponent 0.5
    for p in (4.0, 3.0, 2.5):
        for sign in (-1.0, 1.0):
            h = Nonlinearity(p, sign=sign)
            out = np.empty_like(s)
            assert h(s, out=out) is out
            assert np.array_equal(out, h(s)), (p, sign)
            power = (s * s) * s if p == 4 else np.abs(s) ** (p - 2.0) * s
            assert np.array_equal(out, sign * power), (p, sign)
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


def test_forcing_l2sq_at_record_times_matches_each_time_bitwise():
    # energy_records and calibrate_constant evaluate |g|^2 on the record
    # times of a trajectory at once: the array has the shape of t for every
    # kind, and each entry is bitwise the value at that one time, the one a
    # solve recorded per record
    grid = Grid(n=64, half_width=8.0)
    prof = bump_field(grid, amplitude=0.25, width=8.0)
    for dt in (1e-3, 2e-3):
        t = np.array([k * dt for k in range(-40000, 40001, 10)])
        for kind, a, c in (("sin", 1.0, 0.0), ("sin", 0.7, 1.5), ("exp", 0.05, 1.0), ("constant", 0.0, 0.8)):
            f = Forcing(prof, kind, a, c)
            got = f.l2sq_at(t)
            assert got.shape == t.shape, kind
            assert np.array_equal(got, np.array([f.l2sq_at(tn) for tn in t.tolist()])), (kind, dt)


def test_forcing_factor_over_a_stride_is_each_steps_call_bitwise():
    # solve_batch evaluates each forcing factor once per record stride, at
    # the times k*dt of the stride's steps, where each step called it alone
    grid = Grid(n=16, half_width=2.0)
    prof = ScalarField(grid, np.ones(16))
    for kind, a, c in (("constant", 0.0, 0.8), ("exp", 0.05, 1.0), ("exp", -2.0, 1.0),
                       ("sin", 1.0, 0.0), ("sin", 0.7, 1.5)):
        f = Forcing(prof, kind, a, c)
        for dt in (1e-3, 2e-3):
            for kb in range(-40000, 40000, 70):
                times = np.arange(kb, kb + 10) * dt
                got = np.broadcast_to(f.factor(times), times.shape).tolist()
                want = [f.factor(k * dt) for k in range(kb, kb + 10)]
                assert np.array_equal(np.array(got).view(np.uint64),
                                      np.array(want, dtype=float).view(np.uint64)), (kind, dt, kb)


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: SolverSpec(dt=NAN), "dt must be positive"),
    (lambda: FamilySpec(NAN, NAN, 2, 1.0), "base_radius"),
    (lambda: FamilySpec(1.0, NAN, 2, 1.0), "growth_rate"),
    (lambda: FamilySpec(1.0, 0.1, 2, NAN), "not tempered"),
    (lambda: Grid(half_width=NAN), "half_width must be positive"),
    (lambda: Nonlinearity(NAN), "growth exponent"),
    (lambda: WienerPath(0, NAN), "dt must be positive"),
    (lambda: wiener_increment(NoiseSeed(0, 1), 0, dt=NAN), "dt must be positive"),
    (lambda: temperedness_probe(np.zeros(3), np.ones(3), NAN, 2.0, 1.0), "must be positive"),
    (lambda: temperedness_probe(np.zeros(3), np.ones(3), 1.0, 2.0, NAN), "must be positive"),
    (lambda: OuProcess(0, 1, NAN, 1e-3), "rate must be positive"),
    (lambda: OuProcess(0, 1, 1.0, NAN), "dt must be positive"),
    (lambda: OuProcess(0, 1, 1.0, -1e-3), "dt must be positive"),
], ids=["SolverSpec.dt", "FamilySpec.base_radius", "FamilySpec.growth_rate", "FamilySpec.delta",
        "Grid.half_width", "Nonlinearity.p", "WienerPath.dt", "wiener_increment.dt",
        "temperedness_probe.delta", "temperedness_probe.horizon", "OuProcess.rate", "OuProcess.dt",
        "OuProcess.dt-negative"])
def test_positivity_checks_reject_nan(build, message):
    # each check is written `not x > 0`, which NaN fails, where `x <= 0` passes it
    with pytest.raises(ValueError, match=message):
        build()


def test_model_spec_validation():
    grid = Grid(n=16, half_width=2.0)
    with pytest.raises(ValueError):
        linear_spec(grid, lam=-1.0)


def test_validate_structure_canonical_passes():
    for p in (4.0, 3.0):
        cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0, "model.p": p})
        margins = validate_structure(cfg.model_spec())
        # c = -1 against alpha1 = 0.0625 and alpha2 = 1
        assert margins == {"3.1": -0.9375, "3.2": 0.0}


@pytest.mark.parametrize("p", [4.0, 3.0])
@pytest.mark.parametrize(
    "key, value, condition, margin",
    [("model.f.sign", 1.0, "3.1", 1.0625), ("model.alpha2", 0.5, "3.2", 0.5)],
    ids=["sign", "alpha2"],
)
def test_validate_structure_rejects_wrong_sign(key, value, condition, margin, p):
    # resolving a config runs validate_structure.  3.1 and 3.2 can fail;
    # 3.3 cannot, since df/ds = c (p-1)|s|^(p-2) <= 0 for every c that
    # passes 3.1, and sign +1 fails 3.1 first
    with pytest.raises(StructureViolation) as exc:
        default_config(**{"grid.n": 64, "grid.half_width": 8.0, "model.p": p, key: value})
    assert exc.value.condition == condition
    assert exc.value.margin == margin  # c + alpha1 = 1 + 0.0625, |c| - alpha2 = 1 - 0.5


ALPHA1, ALPHA2 = 0.0625, 1.0  # the defaults of model.alpha1 and model.alpha2


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("c", [
    -ALPHA1, -ALPHA2, np.nextafter(-ALPHA1, 0.0), np.nextafter(-ALPHA2, -np.inf), -0.5, -2.0, 0.0, 1.0,
], ids=["-alpha1", "-alpha2", "ulp-past-alpha1", "ulp-past-alpha2", "-0.5", "-2", "0", "1"])
def test_structure_conditions_are_exact_in_the_coefficient(c, p):
    # f(s) = c|s|^(p-2) s: resolve accepts exactly c <= -alpha1 and |c| <= alpha2
    values = {"grid.n": 64, "grid.half_width": 8.0, "model.p": p, "model.f.sign": c}
    if not (c <= -ALPHA1 and abs(c) <= ALPHA2):
        with pytest.raises(StructureViolation) as exc:
            default_config(**values)
        condition, margin = ("3.1", c + ALPHA1) if c > -ALPHA1 else ("3.2", abs(c) - ALPHA2)
        assert (exc.value.condition, exc.value.margin) == (condition, margin)
        assert margin > 0.0
        return
    f = default_config(**values).model_spec().nonlin
    mags = np.geomspace(1e-6, 1e6, 601)
    s = np.concatenate((-mags[::-1], mags))
    fs, abs_s = f(s), np.abs(s)
    # 3.1 and 3.2 hold pointwise up to the rounding of the powers
    assert np.all(fs * s + ALPHA1 * abs_s**p <= 1e-13 * abs_s**p)
    assert np.all(np.abs(fs) - ALPHA2 * abs_s ** (p - 1.0) <= 1e-13 * abs_s ** (p - 1.0))
    # f is nonincreasing, so f' <= 0 and 3.3 holds for every alpha3 > 0
    assert np.all(np.diff(fs) <= 0.0)


def test_validate_forcing_convergence_flag():
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    dt = cfg["solver.dt"]
    total, converged = validate_forcing(spec, 0.0, 40.0, dt)
    assert converged and total > 0.0
    # the absorbing radius takes its forcing term from this quadrature
    path = WienerPath(seed=3, dt=1e-3)
    for tau in (0.0, -10.0):
        forcing = validate_forcing(spec, tau, 40.0, path.dt)
        R = dg.absorbing_radius(spec, 1.0, forcing, dg.ou_history(path, spec, 40.0), path.dt)
        assert R.forcing_quad == validate_forcing(spec, tau, 40.0, path.dt)[0]
        assert R.converged
    # forcing that keeps growing backward in time has no convergent history
    grid = Grid(n=64, half_width=8.0)
    grow = Forcing(bump_field(grid, amplitude=0.25, width=8.0), "exp", a=-2.0)
    bad = dataclasses.replace(spec, g=grow)
    total, converged = validate_forcing(bad, 0.0, 40.0, dt)
    assert not converged
    R = dg.absorbing_radius(bad, 1.0, (total, converged), dg.ou_history(path, bad, 40.0), dt)
    assert not R.converged
    # loading such a config does not walk the history; `check_forcing`,
    # which cli.main runs for the subcommands that integrate the forcing, does
    unconverged = default_config(**{"grid.n": 64, "grid.half_width": 8.0,
                                    "forcing.g.kind": "exp", "forcing.g.a": -2.0})
    with pytest.raises(ConfigError, match="not converged"):
        check_forcing(unconverged)
    check_forcing(cfg)


def test_validate_forcing_is_the_one_shot_quadrature():
    # over several pieces of the fill, value and flag are bitwise the
    # quadrature of the whole-window expression
    cfg = default_config(**{"grid.n": 64, "grid.half_width": 8.0})
    spec = cfg.model_spec()
    grid = spec.grid
    prof = bump_field(grid, amplitude=0.25, width=8.0)
    dt, horizon = 1e-3, 100.0
    n = int(round(horizon / dt))
    assert n + 1 > 3 * _HISTORY_CHUNK
    for kind, a, c in (("sin", 0.7, 1.5), ("constant", 0.0, 0.8), ("exp", 0.05, 1.0)):
        fs = dataclasses.replace(spec, g=Forcing(prof, kind, a, c), h=Forcing(prof, "sin", 1.3, 0.2))
        for tau in (0.0, -7.25):
            s = tau - horizon + np.arange(n + 1) * dt
            w = np.exp(fs.delta * (s - tau))
            gf = np.broadcast_to(np.asarray(fs.g.factor(s), dtype=float), s.shape)
            hf = np.broadcast_to(np.asarray(fs.h.factor(s), dtype=float), s.shape)
            one_shot = history_quadrature(
                w * (gf * gf * fs.g.profile_l2sq + hf * hf * fs.h.profile_l2sq), dt
            )
            assert validate_forcing(fs, tau, horizon, dt) == one_shot, (kind, tau)


def test_solve_one_step_advances_time_one_dt():
    grid = Grid(n=16, half_width=2.0)
    spec = linear_spec(grid)
    solver = SolverSpec(dt=1e-2)
    st = FhnState(0.5, ScalarField.zeros(grid), ScalarField.zeros(grid))
    traj = solve(spec, solver, WienerPath(seed=0, dt=1e-2), 0.5, 0.51, st)
    assert traj.final.t == pytest.approx(0.51)
    assert len(traj.t) == 2


def reference_solve(spec, solver, path, tau0, tau1, init, record_stride=10):
    """The IMEX loop of `solve` written with allocating expressions.

    Same scheme and operation order as `solve`, without its batch buffers;
    the implicit solve is the operator's, on a batch of one.  Returns the
    final u and v, the records, and a snapshot of u at every record.
    """
    dt = solver.dt
    k0 = step_index(tau0, dt)
    nsteps = step_index(tau1, dt) - k0
    z1s = OuProcess(path.seed, 1, spec.lam, dt).values(path.offset, path.offset + nsteps)
    z2s = OuProcess(path.seed, 2, spec.sigma, dt).values(path.offset, path.offset + nsteps)
    grid = init.grid
    op = _ImplicitOperator(grid, spec.lam, dt)
    lap_h1 = laplacian_values(spec.h1.values, grid)

    def implicit(rhs):
        return op.solve(rhs[None].copy())[0]
    h1, h2 = spec.h1.values, spec.h2.values
    gprof, hprof = spec.g.profile.values, spec.h.profile.values
    alpha, beta = spec.alpha, spec.beta
    ev = np.exp(-spec.sigma * dt)
    gain = (1.0 - ev) / spec.sigma
    rec = {k: [] for k in ("t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2")}
    snapshots = []

    def record(u, v, n):
        tn = (k0 + n) * dt
        for key, value in (
            ("t", tn), ("u_l2sq", l2_sq(u, grid)), ("v_l2sq", l2_sq(v, grid)),
            ("u_lp_p", lp_p(u, grid, spec.p)), ("utilde_lp_p", lp_p(u + h1 * z1s[n], grid, spec.p)),
            ("z1", z1s[n]), ("z2", z2s[n]),
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
        rhs = u + dt * (f_val + gf * gprof - alpha * v + lap_h1 * z1n - (alpha * z2n) * h2)
        u_new = implicit(rhs)
        v = ev * v + gain * (beta * u + hf * hprof + (beta * z1n) * h1)
        u = u_new
        if (n + 1) % record_stride == 0 or n + 1 == nsteps:
            record(u, v, n + 1)
    rec = {k: np.asarray(vv) for k, vv in rec.items()}
    rec["energy"] = alpha * rec["v_l2sq"] + beta * rec["u_l2sq"]
    return u, v, rec, snapshots


SMALL_GRID = {"grid.n": 64, "grid.half_width": 8.0}

# (config overrides, end time): one case per implicit-solve branch and per
# branch of `Nonlinearity.__call__`
SOLVE_CASES = pytest.mark.parametrize(
    "overrides, t1",
    [
        ({}, 0.4),  # tridiagonal path, cubic f
        ({"grid.boundary": "neumann0"}, 0.4),
        ({"model.p": 3.0}, 0.4),  # the `**=` branch of f
        ({"grid.boundary": "periodic"}, 0.4),  # Sherman-Morrison correction
        ({"grid.dim": 2, "grid.n": 16}, 0.1),  # eigenbasis path in 2-D
        ({"grid.dim": 2, "grid.n": 16, "grid.boundary": "neumann0"}, 0.1),
        ({"grid.dim": 2, "grid.n": 16, "grid.boundary": "periodic"}, 0.1),
        # the forcing factors of the other kinds, evaluated once per stride
        ({"forcing.g.kind": "exp", "forcing.g.a": 0.5, "forcing.g.c": 1.0}, 0.4),
        ({"forcing.h.kind": "constant", "forcing.h.c": 0.8}, 0.4),
    ],
    ids=["dirichlet0-cubic", "neumann0", "p3", "periodic", "2d", "2d-neumann0",
         "2d-periodic", "g-exp", "h-constant"],
)


@SOLVE_CASES
def test_solve_bitwise_matches_reference(overrides, t1):
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec = cfg.model_spec()
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


# Residual bound of the implicit solve, relative to |rhs| in the 2-norm.
# 1-D grids solve by the LDL^T factor of an SPD tridiagonal matrix, which is
# backward stable to a few eps; the periodic Sherman-Morrison step adds one
# product whose denominator 1 + u^T w >= 1 does not cancel.  2-D grids solve
# X = Q (Q^T R Q / denom) Q^T with four (n, n) GEMMs.  A product with Q
# rounds with a normwise relative error of about sqrt(n) eps, because the
# rounding errors of a length-n dot product add up like a random walk
# (Higham & Mary, SIAM J. Sci. Comput. 41 (2019)); 1.6, 2.5 and 3.4 eps were
# measured at n = 32, 64 and 128.  `eigh` returns Q orthogonal to
# |Q^T Q - I| = 9-15 eps (n = 32-64), which costs twice that.  The two
# products before the division reach the residual through A A^-1 = I, the
# two after it through |A| <= 1 + dt*lam + 8*dt/h^2 = 2.29 (n = 64,
# h = 0.25), and the stencil adds its own rounding, (4*dim + 2) eps |A|:
# (2*8 + 2*15) + 2.29*2*8 + 10*2.29 = 106 eps = 2.4e-14 at n = 64, against
# an observed 2.0e-15.  1e-13 sits above the bound.  The worst-case bound
# puts n^1.5 in place of sqrt(n) and exceeds 1e-13, but no rounding pattern
# near it occurs for these matrices.  An operator built for another closure
# leaves a residual of at least 1.4e-3.
OPERATOR_RTOL = 1e-13


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", ["dirichlet0", "neumann0", "periodic"])
def test_implicit_operator_solves_the_stencil(boundary, dim):
    lam, dt = 1.0, 0.01
    for n in (32, 64):  # 64 is the grid of the pullback-2d benchmark
        grid = Grid(dim=dim, half_width=8.0, n=n, boundary=boundary)
        rhs = np.random.default_rng(11).standard_normal((3,) + grid.shape)
        op = _ImplicitOperator(grid, lam, dt)

        def residual(xb, rb):
            r = (1.0 + dt * lam) * xb - dt * laplacian_values(xb, grid) - rb
            return np.linalg.norm(r) / np.linalg.norm(rb)
        for xb, rb in zip(op.solve(rhs.copy()), rhs):
            assert residual(xb, rb) <= OPERATOR_RTOL, n
            # each row of the batch is bitwise that row solved alone
            assert np.array_equal(op.solve(rb[None].copy())[0], xb), n
        # the stencil of the grid's own closure tells the closures apart
        for other in {"dirichlet0", "neumann0", "periodic"} - {boundary}:
            wrong = _ImplicitOperator(dataclasses.replace(grid, boundary=other), lam, dt)
            for xb, rb in zip(wrong.solve(rhs.copy()), rhs):
                assert residual(xb, rb) > 1e8 * OPERATOR_RTOL, (n, other)


TRAJECTORY_ARRAYS = ("t", "u_l2sq", "v_l2sq", "u_lp_p", "utilde_lp_p", "z1", "z2", "energy")


def assert_same_trajectory(got, expected):
    assert np.array_equal(got.final.u.values, expected.final.u.values)
    assert np.array_equal(got.final.v.values, expected.final.v.values)
    assert got.final.t == expected.final.t
    for key in TRAJECTORY_ARRAYS:
        assert np.array_equal(getattr(got, key), getattr(expected, key)), key
    assert len(got.snapshots) == len(expected.snapshots)
    for (t, snap), (t_ref, snap_ref) in zip(got.snapshots, expected.snapshots):
        assert t == t_ref and np.array_equal(snap, snap_ref)


@SOLVE_CASES
def test_solve_batch_rows_match_single_solves(overrides, t1):
    # staggered starts (off the record stride too), two seeds, two runs
    # sharing one z series, and a run of zero steps
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec = cfg.model_spec()
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


def count_ou_reads(monkeypatch):
    """Count the OuProcess.values calls, one per z series and component."""
    calls = []
    real = OuProcess.values

    def counted(self, *args):
        calls.append(self.seed)
        return real(self, *args)
    monkeypatch.setattr(OuProcess, "values", counted)
    return calls


def batch_matches_solos(spec, solver, members, t1):
    trajs = solve_batch(spec, solver, members, t1, snapshot_stride=20)
    for (path, init), traj in zip(members, trajs):
        assert_same_trajectory(traj, solve(spec, solver, path, init.t, t1, init, snapshot_stride=20))


@SOLVE_CASES
def test_solve_batch_of_one_z_series_matches_single_solves(overrides, t1, monkeypatch):
    # the pullback runs of one seed: each path is shifted back by its start,
    # so every row reads one z series and the batch broadcasts its profile
    # rows without a gather; staggered starts (off the record stride too)
    # and two rows with one start
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec, solver = cfg.model_spec(), cfg.solver_spec()
    a = WienerPath(seed=23, dt=solver.dt)
    members = [
        (a.shift(-s), FhnState(-s, bump_field(spec.grid, amplitude=amp, width=3.0),
                               bump_field(spec.grid, center=amp, amplitude=0.5)))
        for s, amp in ((0.3, 1.5), (0.137, -1.0), (0.1, 0.7), (0.1, 0.2), (0.0, 1.2))
    ]
    reads = count_ou_reads(monkeypatch)
    solve_batch(spec, solver, members, t1)
    assert len(reads) == 2  # one series, two components
    batch_matches_solos(spec, solver, members, t1)


@SOLVE_CASES
def test_solve_batch_of_distinct_seeds_matches_single_solves(overrides, t1, monkeypatch):
    # one seed per row: the rows are their own z series in order and read
    # the first rows of the profile products without a gather
    cfg = default_config(**{**SMALL_GRID, **overrides})
    spec, solver = cfg.model_spec(), cfg.solver_spec()
    members = [
        (WienerPath(seed=seed, dt=solver.dt).shift(x), FhnState(t, bump_field(spec.grid, amplitude=amp),
                                                                 bump_field(spec.grid, amplitude=0.5)))
        for seed, x, t, amp in ((23, -0.5, 0.0, 1.5), (29, 0.2, 0.037, -1.0), (31, 0.0, 0.05, 0.7),
                                (37, 0.0, 0.05, 1.2))
    ]
    reads = count_ou_reads(monkeypatch)
    solve_batch(spec, solver, members, t1)
    assert len(reads) == 2 * len(members)
    batch_matches_solos(spec, solver, members, t1)


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
    solver = SolverSpec(dt=1e-4)
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


def edit_solves(monkeypatch, edit):
    """Let `edit(call, x)` change the solution x of each implicit solve, calls counted from 1."""
    real = _ImplicitOperator.solve
    calls = [0]

    def edited(self, rhs):
        x = real(self, rhs)
        calls[0] += 1
        edit(calls[0], x)
        return x
    monkeypatch.setattr(_ImplicitOperator, "solve", edited)


def two_runs(dt=1e-3):
    cfg = default_config(**{**SMALL_GRID, "solver.dt": dt})
    spec, solver = cfg.model_spec(), cfg.solver_spec()
    state = FhnState(0.0, bump_field(spec.grid), ScalarField.zeros(spec.grid))
    members = [(WienerPath(seed=5, dt=dt), state), (WienerPath(seed=9, dt=dt).shift(-1.0), state)]
    return spec, solver, members


def test_blow_up_guard_passes_values_at_the_threshold(monkeypatch):
    # every |x| = 1e8 after each solve: each row's sum of squares, 64e16, is far
    # above 1e16, and the exact scan finds no value past the threshold
    def at_threshold(call, x):
        x[...] = 1e8
        x[:, ::2] = -1e8
    edit_solves(monkeypatch, at_threshold)
    spec, solver, members = two_runs()
    trajs = solve_batch(spec, solver, members, 0.05)
    assert np.all(np.abs(trajs[1].final.u.values) == 1e8)
    # one ulp past the threshold raises at its own step, in its own row
    past = np.nextafter(1e8, np.inf)

    def one_past(call, x):
        at_threshold(call, x)
        if call == 7:
            x[1, 40] = -past
    edit_solves(monkeypatch, one_past)
    with pytest.raises(BlowUpError) as exc:
        solve_batch(spec, solver, members, 0.05)
    assert (exc.value.t, exc.value.max_u, exc.value.member) == (7 * solver.dt, past, (9, 0.05))


def test_blow_up_nan_cell_names_its_step_and_member(monkeypatch):
    # one NaN cell: the guard's sum is NaN and the exact scan reports the
    # step after the solve, a NaN max|u| and the member of the row
    def one_nan(call, x):
        if call == 23:
            x[0, 17] = np.nan
    edit_solves(monkeypatch, one_nan)
    spec, solver, members = two_runs()
    with pytest.raises(BlowUpError) as exc:
        solve_batch(spec, solver, members, 0.05)
    assert exc.value.t == 23 * solver.dt
    assert np.isnan(exc.value.max_u)
    assert exc.value.member == (5, 0.05)


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
        solve(spec, solver, path, 0.0, 0.5, init, snapshot_stride=15)
