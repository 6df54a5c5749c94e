"""The random dynamical system generated by the transformed system.

phi(t, tau, omega, (u0~, v0~)) converts the initial pair to untransformed
variables with the OU values at shift 0 of the supplied path, advances the
pathwise PDE from tau to tau + t, and converts back with the OU values at
shift t.  Pullback evaluation reuses phi with anchor tau - t and the path
shifted by -t, so the same noise realization serves every pullback horizon.
Evaluations that land at one time can be stepped together (`phi_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .fields import ScalarField, bump_field, l2_sq
from .model import FhnState, from_tilde, solve, solve_batch, to_tilde
from .noise import get_ou, step_index


@dataclass(frozen=True)
class CocycleInput:
    t: float
    tau: float
    path: object  # WienerPath
    u0_tilde: ScalarField
    v0_tilde: ScalarField

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("elapsed time must be nonnegative")


@dataclass(frozen=True)
class FamilySpec:
    """Tempered ball of initial data: radius(t) = base_radius * exp(gamma*t).

    Membership in the attracting class requires 2*gamma < delta; pass
    validate=False only to exercise the diagnostic failure path.
    """

    base_radius: float
    growth_rate: float
    sample_count: int
    delta: float
    validate: bool = True

    def __post_init__(self):
        if self.base_radius < 0 or self.sample_count < 1:
            raise ValueError("base_radius must be >= 0 and sample_count >= 1")
        if self.growth_rate < 0:
            raise ValueError("growth_rate must be nonnegative")
        if self.validate and 2.0 * self.growth_rate >= self.delta:
            raise ValueError(
                f"family is not tempered: 2*gamma = {2 * self.growth_rate} >= delta = {self.delta}"
            )

    @property
    def tempered(self):
        return 2.0 * self.growth_rate < self.delta

    def radius(self, t):
        return self.base_radius * np.exp(self.growth_rate * t)


def _untransformed(inp, spec, dt):
    """The initial pair of `inp` in (u, v), with the OU values at its shift 0."""
    ou1 = get_ou(inp.path.seed, 1, spec.lam, dt)
    ou2 = get_ou(inp.path.seed, 2, spec.sigma, dt)
    z1_0 = ou1.at_step(inp.path.offset)
    z2_0 = ou2.at_step(inp.path.offset)
    return from_tilde(inp.u0_tilde, inp.v0_tilde, spec, z1_0, z2_0, t=inp.tau)


def _transformed(traj, spec):
    z1_t, z2_t = traj.final_z
    return to_tilde(traj.final, spec, z1_t, z2_t)


def phi(inp, spec, solver, record_stride=10, snapshot_stride=None):
    """Evaluate the cocycle; returns ((u~, v~) at tau+t, trajectory)."""
    traj = solve(
        spec,
        solver,
        inp.path,
        inp.tau,
        inp.tau + inp.t,
        _untransformed(inp, spec, solver.dt),
        record_stride=record_stride,
        snapshot_stride=snapshot_stride,
    )
    return _transformed(traj, spec), traj


def phi_batch(inputs, spec, solver, record_stride=10, snapshot_stride=None):
    """`phi` of several inputs that land at one time, stepped as one batch.

    Each result is bitwise the one `phi` gives for its input alone.
    """
    if not inputs:
        return []
    dt = solver.dt
    tau1 = inputs[0].tau + inputs[0].t
    if any(step_index(inp.tau + inp.t, dt) != step_index(tau1, dt) for inp in inputs):
        raise ValueError("batched cocycle inputs must land at one time")
    members = [(inp.path, _untransformed(inp, spec, dt)) for inp in inputs]
    trajs = solve_batch(spec, solver, members, tau1, record_stride, snapshot_stride)
    return [(_transformed(traj, spec), traj) for traj in trajs]


def pullback(t, tau, path, u0_tilde, v0_tilde, spec, solver, **kw):
    """phi with anchor tau - t and path theta_{-t} omega, landing at tau."""
    inp = CocycleInput(t, tau - t, path.shift(-t), u0_tilde, v0_tilde)
    return phi(inp, spec, solver, **kw)


def cocycle_check(t, s, tau, path, u0_tilde, v0_tilde, spec, solver):
    """Max L2xL2 discrepancy of the composition law at (t, s)."""
    one, _ = phi(CocycleInput(t + s, tau, path, u0_tilde, v0_tilde), spec, solver)
    mid, _ = phi(CocycleInput(s, tau, path, u0_tilde, v0_tilde), spec, solver)
    two, _ = phi(CocycleInput(t, tau + s, path.shift(s), mid[0], mid[1]), spec, solver)
    grid = u0_tilde.grid
    du = one[0].values - two[0].values
    dv = one[1].values - two[1].values
    return float(np.sqrt(l2_sq(du, grid) + l2_sq(dv, grid)))


def sample_family(fam, tau, t, grid, seed=0):
    """Deterministic initial pairs inside the tempered ball at anchor tau - t.

    Directions come from a seeded Halton sequence (bump centers/widths and
    the u/v energy split); radii fill the ball so samples witness both the
    interior and the boundary.
    """
    radius = fam.radius(t)
    sampler = qmc.Halton(d=5, scramble=True, seed=seed)
    params = sampler.random(fam.sample_count)
    out = []
    L = grid.half_width
    for i, q in enumerate(params):
        cu = (q[0] - 0.5) * L
        cv = (q[1] - 0.5) * L
        wu = 1.0 + 6.0 * q[2]
        wv = 1.0 + 6.0 * q[3]
        u = bump_field(grid, center=cu, width=wu)
        v = bump_field(grid, center=cv, width=wv)
        theta = 0.5 * np.pi * q[4]
        r = radius * (i + 1) / fam.sample_count
        nu = np.sqrt(l2_sq(u.values, grid))
        nv = np.sqrt(l2_sq(v.values, grid))
        su = r * np.cos(theta) / nu if nu > 0 else 0.0
        sv = r * np.sin(theta) / nv if nv > 0 else 0.0
        out.append(
            (ScalarField(grid, su * u.values), ScalarField(grid, sv * v.values))
        )
    return out
