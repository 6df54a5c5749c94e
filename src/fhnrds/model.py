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
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from .fields import Grid, ScalarField, l2_sq, laplacian_values, lp_p
from .noise import get_ou, step_index

BLOWUP_THRESHOLD = 1e8


class BlowUpError(RuntimeError):
    """A run left the finite range; `member` is its (seed, horizon)."""

    def __init__(self, t, max_u, member=None):
        where = "" if member is None else f" in the run of seed {member[0]}, horizon t={member[1]}"
        super().__init__(f"solution blew up at t={t} (max|u|={max_u:.3e}){where}")
        self.t = t
        self.max_u = max_u
        self.member = member

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone; workers of
        # `cli --threads` send exceptions back pickled
        return (type(self), (self.t, self.max_u, self.member))


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
            # SPD tridiagonal: LDL^T, factored once
            diag = np.full(n, 1.0 + dt * lam + 2.0 * d)
            if grid.boundary == "neumann0":
                diag[0] -= d
                diag[-1] -= d
            self._d, self._e, info = dpttrf(diag, np.full(n - 1, -d))
            if info != 0:
                raise ValueError(f"pttrf failed with info {info}")
            self._mode = "tridiagonal"
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
        """Overwrite `rhs`, one right-hand side per row, with the solutions.

        Each row is solved exactly as it would be alone: on the tridiagonal
        path rhs.T is a Fortran-ordered matrix with one column per row, and
        dpttrs treats its columns one by one; the sparse path calls SuperLU
        once per row.
        """
        if self._mode == "tridiagonal":
            x, info = dpttrs(self._d, self._e, rhs.T, overwrite_b=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of pttrs")
            if not np.may_share_memory(x, rhs):
                rhs[...] = x.T
            return rhs
        for row in rhs:
            row[...] = self._lu.solve(row.ravel()).reshape(self.shape)
        return rhs


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
    This is `solve_batch` with one member.
    """
    if step_index(init.t, solver.dt) != step_index(tau0, solver.dt):
        raise ValueError("init.t must equal tau0")
    return solve_batch(spec, solver, [(path, init)], tau1, record_stride, snapshot_stride)[0]


_RECORDS = ("t", "u", "v", "up", "utp", "z1", "z2", "g", "h")


def _row_norms(X, grid, p=None):
    """l2_sq (no p) or lp_p of every row of X, bitwise as those give it.

    For p = 4, lp_p is the l2_sq of the squares, which are taken here for
    all rows in one pass; l2_sq is one 1-D dot per row.
    """
    if p == 4:
        X = X * X
    elif p is not None:
        return [lp_p(x, grid, p) for x in X]
    cm = grid.cell_measure
    return [float(np.dot(x, x) * cm) for x in X.reshape(len(X), -1)]


def solve_batch(spec, solver, members, tau1, record_stride=10, snapshot_stride=None):
    """Advance several runs to tau1 as the rows of one (B, n) array.

    `members` is a list of (path, init) pairs; each run starts at init.t and
    is driven along its own path exactly as in `solve`.  A row joins the
    batch at its own start step, so runs of different length (a pullback
    schedule) land together at tau1, and records and snapshots are counted
    from each row's own start.  The arithmetic of a row does not depend on
    the batch: every operation is elementwise, the implicit solve treats
    each row alone, and the records are per-row dot products.  Each row is
    therefore bitwise the run `solve` gives on its own.  Returns one
    Trajectory per member, in order.
    """
    if not members:
        return []
    dt = solver.dt
    k1 = step_index(tau1, dt)
    if snapshot_stride and snapshot_stride % record_stride != 0:
        raise ValueError("snapshot_stride must be a multiple of record_stride")
    starts = []
    for path, init in members:
        if abs(path.dt - dt) > 1e-15:
            raise ValueError("noise path dt must equal the solver dt")
        starts.append(step_index(init.t, dt))
    if max(starts) > k1:
        raise ValueError("tau1 must be >= tau0")
    # rows in order of entry, so the active rows are always a prefix
    rows = sorted(range(len(members)), key=starts.__getitem__)
    k0 = [starts[i] for i in rows]
    kmin = k0[0]
    B = len(rows)

    # z at every absolute step for each (seed, path step - time step): the
    # pullback runs of one seed share one series, and OuProcess.values is
    # asked once for its whole span
    sources = {}  # key -> (series index, first step)
    group = []
    for b, i in enumerate(rows):
        path = members[i][0]
        key = (path.seed, path.offset - k0[b])
        group.append(sources.setdefault(key, (len(sources), k0[b]))[0])
    Z1 = np.zeros((k1 - kmin + 1, len(sources)))
    Z2 = np.zeros_like(Z1)
    for (seed, shift), (g, first) in sources.items():
        Z1[first - kmin :, g] = get_ou(seed, 1, spec.lam, dt).values(first + shift, k1 + shift)
        Z2[first - kmin :, g] = get_ou(seed, 2, spec.sigma, dt).values(first + shift, k1 + shift)

    grid = members[0][1].grid
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

    U = np.empty((B,) + grid.shape)
    R = np.empty_like(U)
    V = np.empty_like(U)
    shifted = np.empty_like(U)
    acc = np.empty_like(U)
    tmp = np.empty_like(U)
    force = np.empty(grid.shape)
    prod = np.empty((len(sources),) + grid.shape)
    group = np.array(group)
    zshape = (-1,) + (1,) * grid.dim

    recs = [{key: [] for key in _RECORDS} for _ in range(B)]
    snapshots = [[] for _ in range(B)]
    # the rows whose own step count is a multiple of the stride at step k
    # are by_phase[k % record_stride], in row order
    starts_arr = np.array(k0)
    by_phase = [np.flatnonzero(starts_arr % record_stride == r) for r in range(record_stride)]

    def record(due, k):
        j = k - kmin
        tn = k * dt
        u = U[due]
        z1 = Z1[j][group[due]]
        cols = zip(
            _row_norms(u, grid),
            _row_norms(V[due], grid),
            _row_norms(u, grid, p),
            _row_norms(u + h1 * z1.reshape(zshape), grid, p),
            z1.tolist(),
            Z2[j][group[due]].tolist(),
        )
        g_l2sq, h_l2sq = spec.g.l2sq_at(tn), spec.h.l2sq_at(tn)
        for b, values in zip(due.tolist(), cols):
            for key, value in zip(_RECORDS, (tn, *values, g_l2sq, h_l2sq)):
                recs[b][key].append(value)
            if snapshot_stride and (k - k0[b]) % snapshot_stride == 0:
                snapshots[b].append((tn, U[b].copy()))

    # The loop below evaluates, for the active rows, into preallocated
    # buffers and in this order of floating-point operations,
    #   rhs = u + dt*(f(u + h1*z1) + gf*G - alpha*v + Lap(h1)*z1 - (alpha*z2)*h2)
    #   v   = ev*v + gain*(beta*u + hf*H + (beta*z1)*h1)
    # For the canonical f(s) = -s^3, f + gf*G is computed as gf*G - s^3,
    # which IEEE defines as gf*G + (-s^3).  A profile times z is formed once
    # per z series and gathered to the rows (prod[gi]): numpy broadcasts a
    # per-row column several times slower than it runs contiguous arrays.
    cubic = nl.p == 4 and nl.sign == -1.0 and not nl.eps and nl.shift is None
    gfactor, hfactor = spec.g.factor, spec.h.factor
    A = 0
    for k in range(kmin, k1 + 1):
        if A < B and k0[A] == k:
            first = A
            while A < B and k0[A] == k:
                init = members[rows[A]][1]
                U[A] = init.u.values
                V[A] = init.v.values
                A += 1
            record(np.arange(first, A), k)
            u, v, rhs = U[:A], V[:A], R[:A]
            sh, ac, tm, gi = shifted[:A], acc[:A], tmp[:A], group[:A]
        if k == k1:
            break
        tn = k * dt
        z1 = Z1[k - kmin].reshape(zshape)
        z2 = Z2[k - kmin].reshape(zshape)
        np.multiply(h1, z1, out=prod)
        np.add(u, prod[gi], out=sh)
        np.multiply(gprof, gfactor(tn), out=force)
        if cubic:
            np.multiply(sh, sh, out=tm)
            np.multiply(tm, sh, out=tm)
            np.subtract(force, tm, out=ac)
        else:
            np.add(nl(sh), force, out=ac)
        np.multiply(v, alpha, out=tm)
        np.subtract(ac, tm, out=ac)
        np.multiply(lap_h1, z1, out=prod)
        np.add(ac, prod[gi], out=ac)
        np.multiply(h2, alpha * z2, out=prod)
        np.subtract(ac, prod[gi], out=ac)
        np.multiply(ac, dt, out=ac)
        np.add(u, ac, out=rhs)
        op.solve(rhs)
        mx = float(np.abs(rhs, out=tm).max())
        if not mx <= BLOWUP_THRESHOLD:  # catches NaN as well
            row_max = tm.reshape(A, -1).max(axis=1)
            b = next(b for b in range(A) if not row_max[b] <= BLOWUP_THRESHOLD)
            path, init = members[rows[b]]
            raise BlowUpError((k + 1) * dt, float(row_max[b]), (path.seed, tau1 - init.t))
        np.multiply(u, beta, out=ac)
        np.multiply(hprof, hfactor(tn), out=force)
        np.add(ac, force, out=ac)
        np.multiply(h1, beta * z1, out=prod)
        np.add(ac, prod[gi], out=ac)
        np.multiply(ac, gain, out=ac)
        np.multiply(v, ev, out=v)
        np.add(v, ac, out=v)
        # the old u is not needed any more: it becomes the next rhs buffer
        U, R = R, U
        u, rhs = rhs, u
        due = np.arange(A) if k + 1 == k1 else by_phase[(k + 1) % record_stride]
        if len(due) and due[0] < A:
            record(due[: np.searchsorted(due, A)], k + 1)

    trajs = [None] * B
    j1 = k1 - kmin
    for b, i in enumerate(rows):
        arr = {key: np.asarray(vals) for key, vals in recs[b].items()}
        trajs[i] = Trajectory(
            t=arr["t"],
            u_l2sq=arr["u"],
            v_l2sq=arr["v"],
            u_lp_p=arr["up"],
            utilde_lp_p=arr["utp"],
            z1=arr["z1"],
            z2=arr["z2"],
            g_l2sq=arr["g"],
            h_l2sq=arr["h"],
            energy=alpha * arr["v"] + beta * arr["u"],
            final=FhnState(k1 * dt, ScalarField(grid, U[b].copy()), ScalarField(grid, V[b].copy())),
            final_z=(float(Z1[j1, group[b]]), float(Z2[j1, group[b]])),
            snapshots=snapshots[b],
            dt_sample=record_stride * dt,
        )
    return trajs


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
