"""The random dynamical system generated by the transformed system.

phi(t, tau, omega, (u0~, v0~)) converts the initial pair to untransformed
variables with the OU values at shift 0 of the supplied path, advances the
pathwise PDE from tau to tau + t, and converts back with the OU values at
shift t.  Pullback evaluation reuses phi with anchor tau - t and the path
shifted by -t, so the same noise realization serves every pullback horizon.
Evaluations that land at one time can be stepped together (`phi_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, bump_field, l2_sq
# `solve` is imported for the per-layer tracer of perfbench/spans.py, which
# wraps it here and in `cli` as one object; the cocycle steps with `solve_batch`
from .model import FhnState, solve, solve_batch  # noqa: F401
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

    Membership in the attracting class requires 2*gamma < delta.
    """

    base_radius: float
    growth_rate: float
    sample_count: int
    delta: float

    def __post_init__(self):
        if self.base_radius < 0 or self.sample_count < 1:
            raise ValueError("base_radius must be >= 0 and sample_count >= 1")
        if self.growth_rate < 0:
            raise ValueError("growth_rate must be nonnegative")
        if 2.0 * self.growth_rate >= self.delta:
            raise ValueError(
                f"family is not tempered: 2*gamma = {2 * self.growth_rate} >= delta = {self.delta}"
            )

    def radius(self, t):
        return self.base_radius * np.exp(self.growth_rate * t)


def to_tilde(state, spec, z1, z2):
    """(u, v) -> (u + h1*z1, v + h2*z2)."""
    ut = ScalarField(state.grid, state.u.values + spec.h1.values * z1)
    vt = ScalarField(state.grid, state.v.values + spec.h2.values * z2)
    return ut, vt


def from_tilde(u_tilde, v_tilde, spec, z1, z2, t=0.0):
    u = ScalarField(u_tilde.grid, u_tilde.values - spec.h1.values * z1)
    v = ScalarField(v_tilde.grid, v_tilde.values - spec.h2.values * z2)
    return FhnState(t, u, v)


def _untransformed(inputs, spec, dt):
    """The initial pairs of `inputs` in (u, v), with the OU values at their shift 0.

    Each OU process of a seed is read once, from the earliest start step to
    the latest landing step of that seed's inputs: the span the solve reads
    next, so its blocks are filled in one pass.
    """
    spans = {}
    for inp in inputs:
        j0 = inp.path.offset
        j1 = j0 + step_index(inp.tau + inp.t, dt) - step_index(inp.tau, dt)
        lo, hi = spans.get(inp.path.seed, (j0, j1))
        spans[inp.path.seed] = (min(lo, j0), max(hi, j1))
    z = {}
    for seed, (lo, hi) in spans.items():
        z1 = get_ou(seed, 1, spec.lam, dt).values(lo, hi)
        z2 = get_ou(seed, 2, spec.sigma, dt).values(lo, hi)
        z[seed] = lo, z1, z2
    pairs = []
    for inp in inputs:
        lo, z1, z2 = z[inp.path.seed]
        j = inp.path.offset - lo
        pairs.append(from_tilde(inp.u0_tilde, inp.v0_tilde, spec, float(z1[j]), float(z2[j]), t=inp.tau))
    return pairs


def phi(inp, spec, solver, snapshot_stride=None):
    """Evaluate the cocycle; returns ((u~, v~) at tau+t, trajectory)."""
    return phi_batch([inp], spec, solver, snapshot_stride)[0]


def phi_batch(inputs, spec, solver, snapshot_stride=None):
    """`phi` of several inputs that land at one time, stepped as one batch.

    Each result is bitwise the one `phi` gives for its input alone.
    """
    if not inputs:
        return []
    dt = solver.dt
    tau1 = inputs[0].tau + inputs[0].t
    if any(step_index(inp.tau + inp.t, dt) != step_index(tau1, dt) for inp in inputs):
        raise ValueError("batched cocycle inputs must land at one time")
    members = [(inp.path, init) for inp, init in zip(inputs, _untransformed(inputs, spec, dt))]
    trajs = solve_batch(spec, solver, members, tau1, snapshot_stride=snapshot_stride)
    return [(to_tilde(traj.final, spec, *traj.final_z), traj) for traj in trajs]


def pullback(t, tau, path, u0_tilde, v0_tilde, spec, solver, **kw):
    """phi with anchor tau - t and path theta_{-t} omega, landing at tau."""
    inp = CocycleInput(t, tau - t, path.shift(-t), u0_tilde, v0_tilde)
    return phi(inp, spec, solver, **kw)


_HALTON_BASES = (2, 3, 5, 7, 11)  # one prime per coordinate of `sample_family`


def _scrambled_halton(n, seed):
    """The first n points of Owen's randomized Halton sequence (arXiv:1706.02808).

    Base b permutes each of its ceil(54/log2 b) - 1 digits, the ones with
    b**-k > 2**-54, by its own `rng.shuffle` of arange(b), drawn base by base
    from `default_rng(seed)`; a point sums perm[digit] * b**-k over the digits
    in order.  These are the draws and the sums of
    `scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)`, so the
    points are bitwise scipy's.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((n, len(_HALTON_BASES)))
    for col, b in zip(out.T, _HALTON_BASES):
        perms = []
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            perm = np.arange(b)
            rng.shuffle(perm)
            perms.append(perm)
        q = np.arange(n)
        b2r = 1.0 / b
        for perm in perms:
            col += perm[q % b] * b2r
            b2r /= b
            q //= b
    return out


def sample_family(fam, tau, t, grid, seed=0):
    """Deterministic initial pairs inside the tempered ball at anchor tau - t.

    Directions come from a seeded scrambled Halton sequence (bump
    centers/widths and the u/v energy split; `_scrambled_halton`, bitwise
    scipy's `qmc.Halton`); radii fill the ball so samples witness both the
    interior and the boundary.
    """
    radius = fam.radius(t)
    params = _scrambled_halton(fam.sample_count, seed)
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
