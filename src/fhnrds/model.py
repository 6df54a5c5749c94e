"""FitzHugh-Nagumo model data, structural validation, and time stepping.

The transformed pathwise system advanced here is

    du/dt + lambda*u - Lap(u) + alpha*v
        = f(x, u + h1*z1) + g(t,x) + Lap(h1)*z1 - alpha*h2*z2,
    dv/dt + sigma*v - beta*u = h(t,x) + beta*h1*z1,

with z1, z2 the scalar OU drivers.  The u-equation takes one IMEX step
(implicit in the linear-diffusive part, explicit in everything else); the
v-equation has no spatial operator and is advanced by the exact scalar
integrating factor with the source frozen at the step start.

All times are carried as integer multiples of dt so that splitting a run
in two reproduces the single run bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from .fields import Grid, ScalarField, l2_sq, laplacian_values, lp_p
from .noise import get_ou, step_index

BLOWUP_THRESHOLD = 1e8


class BlowUpError(RuntimeError):
    def __init__(self, t, max_u):
        super().__init__(f"solution blew up at t={t} (max|u|={max_u:.3e})")
        self.t = t
        self.max_u = max_u

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone; workers of
        # `cli --threads` send exceptions back pickled, and a multiprocessing
        # pool waits forever on one it cannot unpickle
        return (type(self), (self.t, self.max_u))


class StructureViolation(ValueError):
    def __init__(self, condition, witness, margin):
        super().__init__(
            f"nonlinearity condition {condition} violated at {witness} (margin {margin:.3e})"
        )
        self.condition = condition
        self.witness = witness
        self.margin = margin


def young_shift_constant(p):
    """Smallest c with phi*s <= (1/2)|s|^p + c*|phi|^(p/(p-1)).

    Obtained by maximizing s - s^p/2 for a unit shift (1-D optimization in
    closed form).
    """
    return (1.0 - 1.0 / p) * (2.0 / p) ** (1.0 / (p - 1.0))


class Nonlinearity:
    """Family f(x, s) = sign*|s|^(p-2) s (+ shift phi(x)) (+ eps*s).

    sign is -1 for the dissipative family; +1 exists so the structure
    validator's failure path can be exercised.
    """

    def __init__(self, p, shift=None, eps=0.0, sign=-1.0):
        if p <= 2:
            raise ValueError("growth exponent p must exceed 2")
        self.p = p
        self.shift = shift  # ScalarField or None
        self.eps = float(eps)
        self.sign = float(sign)

    def power_part(self, s):
        p = self.p
        out = (s * s) * s if p == 4 else np.abs(s) ** (p - 2.0) * s
        return self.sign * out

    def __call__(self, s):
        """Evaluate on an array aligned with the grid (x-dependence via shift)."""
        out = self.power_part(s)
        if self.eps:
            out = out + self.eps * s
        if self.shift is not None:
            out = out + self.shift.values
        return out


class Forcing:
    """Spatial profile times a closed-form time factor.

    kinds: "constant" (factor c), "exp" (exp(a*t)), "sin" (sin(a*t) + c).
    """

    def __init__(self, profile, kind="constant", a=0.0, c=1.0):
        if kind not in ("constant", "exp", "sin"):
            raise ValueError(f"unknown forcing kind {kind!r}")
        self.profile = profile
        self.kind = kind
        self.a = float(a)
        self.c = float(c)
        self.profile_l2sq = l2_sq(profile.values, profile.grid)

    @classmethod
    def zero(cls, grid):
        return cls(ScalarField.zeros(grid), "constant", 0.0, 0.0)

    def factor(self, t):
        if self.kind == "constant":
            return self.c
        if self.kind == "exp":
            return np.exp(self.a * t)
        return np.sin(self.a * t) + self.c

    def values_at(self, t):
        return self.factor(t) * self.profile.values

    def l2sq_at(self, t):
        f = self.factor(t)
        return f * f * self.profile_l2sq


@dataclass
class ModelSpec:
    lam: float
    alpha: float
    beta: float
    sigma: float
    p: float
    alpha1: float
    alpha2: float
    alpha3: float
    nonlin: Nonlinearity
    h1: ScalarField
    h2: ScalarField
    g: Forcing
    h: Forcing
    psi1: ScalarField
    psi2: ScalarField
    psi3: ScalarField
    grid: Grid
    _lap_h1: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lam", "alpha", "beta", "sigma", "alpha1", "alpha2", "alpha3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"coefficient {name} must be positive")
        if self.p <= 2:
            raise ValueError("growth exponent p must exceed 2")

    @property
    def delta(self):
        return min(self.lam, self.sigma)

    @property
    def lap_h1(self):
        if self._lap_h1 is None:
            self._lap_h1 = laplacian_values(self.h1.values, self.grid)
        return self._lap_h1


@dataclass
class FhnState:
    t: float
    u: ScalarField
    v: ScalarField

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must share one grid")

    @property
    def grid(self):
        return self.u.grid


def to_tilde(state, spec, z1, z2):
    """(u, v) -> (u + h1*z1, v + h2*z2)."""
    ut = ScalarField(state.grid, state.u.values + spec.h1.values * z1)
    vt = ScalarField(state.grid, state.v.values + spec.h2.values * z2)
    return ut, vt


def from_tilde(u_tilde, v_tilde, spec, z1, z2, t=0.0):
    u = ScalarField(u_tilde.grid, u_tilde.values - spec.h1.values * z1)
    v = ScalarField(v_tilde.grid, v_tilde.values - spec.h2.values * z2)
    return FhnState(t, u, v)


def _laplacian_matrix_1d(n, boundary):
    """1-D stencil matrix (unscaled by 1/h^2) for the chosen closure."""
    main = np.full(n, -2.0)
    if boundary == "neumann0":
        main[0] = -1.0
        main[-1] = -1.0
    off = np.ones(n - 1)
    m = diags([off, main, off], [-1, 0, 1], format="lil")
    if boundary == "periodic":
        m[0, n - 1] = 1.0
        m[n - 1, 0] = 1.0
    return m.tocsc()


class _ImplicitOperator:
    """Prefactored solver for (1 + dt*lam) I - dt*Lap on a grid."""

    def __init__(self, grid, lam, dt):
        n = grid.n
        d = dt / grid.spacing**2
        if grid.dim == 1 and grid.boundary in ("dirichlet0", "neumann0"):
            # SPD tridiagonal: banded Cholesky, factored once
            ab = np.zeros((2, n))
            ab[0, 1:] = -d
            ab[1, :] = 1.0 + dt * lam + 2.0 * d
            if grid.boundary == "neumann0":
                ab[1, 0] -= d
                ab[1, -1] -= d
            self._cb = cholesky_banded(ab, check_finite=False)
            (self._pbtrs,) = get_lapack_funcs(("pbtrs",), (self._cb,))
            self._mode = "banded"
        else:
            l1 = _laplacian_matrix_1d(n, grid.boundary)
            if grid.dim == 1:
                lap = l1
            else:
                eye = identity(n, format="csc")
                lap = kron(l1, eye) + kron(eye, l1)
            m = (1.0 + dt * lam) * identity(n**grid.dim, format="csc") - d * lap
            self._lu = splu(m.tocsc())
            self._mode = "sparse"
        self.shape = grid.shape

    def solve(self, rhs):
        """Solution of the system; the banded path overwrites `rhs` with it."""
        if self._mode == "banded":
            x, info = self._pbtrs(self._cb, rhs, lower=0, overwrite_b=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of pbtrs")
            return x
        return self._lu.solve(rhs.ravel()).reshape(self.shape)


_OPERATOR_CACHE = {}


def _implicit_operator(grid, lam, dt):
    key = (grid, float(lam), float(dt))
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        op = _ImplicitOperator(grid, lam, dt)
        _OPERATOR_CACHE[key] = op
    return op


@dataclass
class SolverSpec:
    dt: float
    grid: Grid

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class Trajectory:
    """Strided per-sample records of one solve, plus the terminal state."""

    t: np.ndarray
    u_l2sq: np.ndarray
    v_l2sq: np.ndarray
    u_lp_p: np.ndarray
    utilde_lp_p: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    g_l2sq: np.ndarray
    h_l2sq: np.ndarray
    energy: np.ndarray
    final: FhnState
    final_z: tuple
    snapshots: list  # (t, u values copy) at the snapshot stride
    dt_sample: float


def solve(spec, solver, path, tau0, tau1, init, record_stride=10, snapshot_stride=None):
    """Advance from tau0 to tau1 along `path`, recording norms every stride.

    z1, z2 at PDE time s are the OU drivers evaluated at the path step
    offset + (s - tau0)/dt, i.e. along theta_{s-tau0} of the given path.
    """
    dt = solver.dt
    if abs(path.dt - dt) > 1e-15:
        raise ValueError("noise path dt must equal the solver dt")
    k0 = step_index(tau0, dt)
    k1 = step_index(tau1, dt)
    if k1 < k0:
        raise ValueError("tau1 must be >= tau0")
    if step_index(init.t, dt) != k0:
        raise ValueError("init.t must equal tau0")
    nsteps = k1 - k0

    ou1 = get_ou(path.seed, 1, spec.lam, dt)
    ou2 = get_ou(path.seed, 2, spec.sigma, dt)
    z1s = ou1.values(path.offset, path.offset + nsteps)
    z2s = ou2.values(path.offset, path.offset + nsteps)

    grid = init.grid
    op = _implicit_operator(grid, spec.lam, dt)
    lap_h1 = spec.lap_h1
    h1 = spec.h1.values
    h2 = spec.h2.values
    gprof = spec.g.profile.values
    hprof = spec.h.profile.values
    nl = spec.nonlin
    alpha, beta = spec.alpha, spec.beta
    ev = np.exp(-spec.sigma * dt)
    gain = (1.0 - ev) / spec.sigma
    p = spec.p

    u = init.u.values.copy()
    v = init.v.values.copy()

    if snapshot_stride and snapshot_stride % record_stride != 0:
        raise ValueError("snapshot_stride must be a multiple of record_stride")
    rec_idx = list(range(0, nsteps + 1, record_stride))
    if rec_idx[-1] != nsteps:
        rec_idx.append(nsteps)
    rec_set = set(rec_idx)
    snap_set = set(range(0, nsteps + 1, snapshot_stride)) if snapshot_stride else set()

    rec = {k: [] for k in ("t", "u", "v", "up", "utp", "z1", "z2", "g", "h")}
    snapshots = []

    def _record(n, un, vn, z1n, z2n, tn):
        rec["t"].append(tn)
        rec["u"].append(l2_sq(un, grid))
        rec["v"].append(l2_sq(vn, grid))
        rec["up"].append(lp_p(un, grid, p))
        rec["utp"].append(lp_p(un + h1 * z1n, grid, p))
        rec["z1"].append(z1n)
        rec["z2"].append(z2n)
        rec["g"].append(spec.g.l2sq_at(tn))
        rec["h"].append(spec.h.l2sq_at(tn))
        if n in snap_set:
            snapshots.append((tn, un.copy()))

    # The loop below evaluates, into preallocated buffers and in the same
    # order of floating-point operations,
    #   rhs = u + dt*(f(u + h1*z1) + gf*G - alpha*v + Lap(h1)*z1 - (alpha*z2)*h2)
    #   v   = ev*v + gain*(beta*u + hf*H + (beta*z1)*h1)
    # so the result is bitwise that of the allocating expressions.  For the
    # canonical f(s) = -s^3, f + gf*G is computed as gf*G - s^3, which IEEE
    # defines as gf*G + (-s^3).
    cubic = nl.p == 4 and nl.sign == -1.0 and not nl.eps and nl.shift is None
    z1l = z1s.tolist()
    z2l = z2s.tolist()
    gfactor, hfactor = spec.g.factor, spec.h.factor
    shifted = np.empty_like(u)
    acc = np.empty_like(u)
    tmp = np.empty_like(u)
    rhs = np.empty_like(u)

    _record(0, u, v, z1l[0], z2l[0], k0 * dt)
    for n in range(nsteps):
        tn = (k0 + n) * dt
        z1n = z1l[n]
        z2n = z2l[n]
        np.multiply(h1, z1n, out=shifted)
        np.add(u, shifted, out=shifted)
        np.multiply(gprof, gfactor(tn), out=acc)
        if cubic:
            np.multiply(shifted, shifted, out=tmp)
            np.multiply(tmp, shifted, out=tmp)
            np.subtract(acc, tmp, out=acc)
        else:
            np.add(nl(shifted), acc, out=acc)
        np.multiply(v, alpha, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.multiply(lap_h1, z1n, out=tmp)
        np.add(acc, tmp, out=acc)
        np.multiply(h2, alpha * z2n, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.multiply(acc, dt, out=acc)
        np.add(u, acc, out=rhs)
        u_new = op.solve(rhs)
        mx = float(np.abs(u_new, out=tmp).max())
        if not mx <= BLOWUP_THRESHOLD:  # catches NaN as well
            raise BlowUpError((k0 + n + 1) * dt, mx)
        np.multiply(u, beta, out=acc)
        np.multiply(hprof, hfactor(tn), out=tmp)
        np.add(acc, tmp, out=acc)
        np.multiply(h1, beta * z1n, out=tmp)
        np.add(acc, tmp, out=acc)
        np.multiply(acc, gain, out=acc)
        np.multiply(v, ev, out=v)
        np.add(v, acc, out=v)
        # the old u is not needed any more: it becomes the next rhs buffer
        u, rhs = u_new, u
        if (n + 1) in rec_set:
            _record(n + 1, u, v, z1l[n + 1], z2l[n + 1], (k0 + n + 1) * dt)

    arr = {k: np.asarray(vv) for k, vv in rec.items()}
    energy = alpha * arr["v"] + beta * arr["u"]
    final = FhnState(k1 * dt, ScalarField(grid, u), ScalarField(grid, v))
    return Trajectory(
        t=arr["t"],
        u_l2sq=arr["u"],
        v_l2sq=arr["v"],
        u_lp_p=arr["up"],
        utilde_lp_p=arr["utp"],
        z1=arr["z1"],
        z2=arr["z2"],
        g_l2sq=arr["g"],
        h_l2sq=arr["h"],
        energy=energy,
        final=final,
        final_z=(float(z1s[-1]), float(z2s[-1])),
        snapshots=snapshots,
        dt_sample=record_stride * dt,
    )


def validate_structure(spec, sample_count=2000, tol=1e-8):
    """Check the nonlinearity growth/dissipativity/derivative conditions.

    Samples s over a symmetric log-spaced range up to 1e3 and all grid cells;
    raises StructureViolation with the offending condition and witness point
    on failure, otherwise returns the worst-case margins per condition.
    """
    if sample_count < 1000:
        raise ValueError("need at least 1000 samples")
    half = sample_count // 2
    mags = np.geomspace(1e-3, 1e3, half)
    s = np.concatenate((-mags[::-1], [0.0], mags))
    nl = spec.nonlin
    p = spec.p

    # the family's x-dependence is the additive shift; evaluate the
    # x-independent part once and broadcast
    base = nl.sign * np.abs(s) ** (p - 2.0) * s + nl.eps * s
    phi = nl.shift.values.ravel()[:, None] if nl.shift is not None else np.zeros((1, 1))
    fv = base[None, :] + phi

    def _psi(f):
        vals = f.values.ravel()[:, None]
        return vals if phi.shape[0] > 1 else np.min(vals, keepdims=True)

    psi1 = _psi(spec.psi1)
    psi2 = _psi(spec.psi2)
    scale = np.maximum(1.0, np.abs(s)[None, :] ** p)

    margins = {}

    def _witness(m, j_only=False):
        i, j = np.unravel_index(np.argmax(m), m.shape)
        x = spec.grid.coords().ravel()[i] if phi.shape[0] > 1 else None
        return {"x": x, "s": float(s[j])}

    def _check(cond, lhs, rhs):
        m = (lhs - rhs) / scale
        worst = float(np.max(m))
        margins[cond] = worst
        if worst > tol:
            raise StructureViolation(cond, _witness(m), worst)

    # dissipativity: f(x,s)*s <= -alpha1 |s|^p + psi1
    _check("3.1", fv * s[None, :], -spec.alpha1 * np.abs(s)[None, :] ** p + psi1)
    # growth: |f| <= alpha2 |s|^(p-1) + psi2
    _check("3.2", np.abs(fv), spec.alpha2 * np.abs(s)[None, :] ** (p - 1.0) + psi2)
    # df/ds <= alpha3 by central differences; shift drops out of the derivative
    ds = 1e-6 * np.maximum(1.0, np.abs(s))
    sp_, sm_ = s + ds, s - ds
    dfds = (
        (nl.sign * np.abs(sp_) ** (p - 2.0) * sp_ + nl.eps * sp_)
        - (nl.sign * np.abs(sm_) ** (p - 2.0) * sm_ + nl.eps * sm_)
    ) / (2.0 * ds)
    m33 = dfds - spec.alpha3
    margins["3.3"] = float(np.max(m33))
    if margins["3.3"] > tol * float(np.max(np.abs(s) ** (p - 2.0))):
        j = int(np.argmax(m33))
        raise StructureViolation("3.3", {"x": None, "s": float(s[j])}, margins["3.3"])
    # |df/dx| <= psi3; the x-derivative is the shift profile's gradient
    if nl.shift is not None:
        dphi = np.abs(np.gradient(nl.shift.values, spec.grid.spacing, axis=0))
        if spec.grid.dim == 2:
            dphi = dphi + np.abs(np.gradient(nl.shift.values, spec.grid.spacing, axis=1))
        m34 = dphi.ravel() - spec.psi3.values.ravel()
        margins["3.4"] = float(np.max(m34))
        if margins["3.4"] > tol:
            i = int(np.argmax(m34))
            raise StructureViolation(
                "3.4", {"x": float(spec.grid.coords().ravel()[i]), "s": None}, margins["3.4"]
            )
    else:
        margins["3.4"] = 0.0
    return margins


def validate_forcing(spec, tau, horizon, dt=None):
    """Quadrature of int_{tau-horizon}^tau e^{delta(s-tau)} (|g|^2+|h|^2) ds.

    Returns (value, converged); the flag is true when the oldest decade of
    the window contributes less than 1% of the total.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    dt = dt or 1e-3
    n = int(round(horizon / dt))
    s = tau - horizon + np.arange(n + 1) * dt
    w = np.exp(spec.delta * (s - tau))
    gf = np.broadcast_to(np.asarray(spec.g.factor(s), dtype=float), s.shape)
    hf = np.broadcast_to(np.asarray(spec.h.factor(s), dtype=float), s.shape)
    integrand = w * (gf * gf * spec.g.profile_l2sq + hf * hf * spec.h.profile_l2sq)
    total = float(trapezoid(integrand, dt))
    early = s <= tau - 0.9 * horizon
    early_part = float(trapezoid(integrand[early], dt)) if np.count_nonzero(early) > 1 else 0.0
    converged = total == 0.0 or early_part < 0.01 * total
    return total, converged


def trapezoid(y, dx):
    """Composite trapezoid rule for samples `y` at uniform spacing `dx`."""
    if len(y) < 2:
        return 0.0
    return dx * (np.sum(y) - 0.5 * (y[0] + y[-1]))
