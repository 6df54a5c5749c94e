"""FitzHugh-Nagumo model data, structural validation, and time stepping.

The transformed pathwise system advanced here is

    du/dt + lambda*u - Lap(u) + alpha*v
        = f(u + h1*z1) + g(t,x) + Lap(h1)*z1 - alpha*h2*z2,
    dv/dt + sigma*v - beta*u = h(t,x) + beta*h1*z1,

with z1, z2 the scalar OU drivers.  The u-equation takes one IMEX step
(implicit in the linear-diffusive part, explicit in everything else); the
v-equation has no spatial operator and is advanced by the exact scalar
integrating factor with the source frozen at the step start.

All times are carried as integer multiples of dt so that splitting a run
in two reproduces the single run bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .fields import Grid, ScalarField, l2_sq, laplacian_values, lp_p, row_dots
from .noise import OuProcess, RunError, step_index

BLOWUP_THRESHOLD = 1e8
RECORD_STRIDE = 10  # steps between the records of a solve


class BlowUpError(RunError, RuntimeError):
    """A run left the finite range; `member` is its (seed, horizon)."""

    kind = "blow-up"

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


class Nonlinearity:
    """f(s) = sign*|s|^(p-2) s, applied pointwise; the step evaluates f(u + h1*z1).

    sign is the coefficient c of f (`model.f.sign`), not only a sign:
    `validate_structure` accepts c exactly when c <= -alpha1 and |c| <= alpha2.
    """

    def __init__(self, p, sign=-1.0):
        if not p > 2:  # NaN fails too
            raise ValueError("growth exponent p must exceed 2")
        self.p = p
        self.sign = float(sign)

    def __call__(self, s, out=None):
        """Evaluate elementwise on an array of any shape.

        The result goes to `out` (a new array if None); `**=` keeps numpy's
        fast path for exponents such as 0.5, as `**` takes it.
        """
        if self.p == 4:
            out = np.multiply(s, s, out=out)
        else:
            out = np.abs(s, out=out)
            out **= self.p - 2.0
        out *= s
        out *= self.sign
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

    def l2sq_at(self, t):
        """Squared L2 norm at the times `t`, in their shape (a constant's factor is a scalar)."""
        f = self.factor(t)
        return np.broadcast_to(f * f * self.profile_l2sq, np.shape(t))


@dataclass
class ModelSpec:
    lam: float
    alpha: float
    beta: float
    sigma: float
    alpha1: float
    alpha2: float
    nonlin: Nonlinearity
    h1: ScalarField
    h2: ScalarField
    g: Forcing
    h: Forcing
    grid: Grid

    def __post_init__(self):
        for name in ("lam", "alpha", "beta", "sigma", "alpha1", "alpha2"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"coefficient {name} must be positive")

    @property
    def p(self):
        """The growth exponent, which `nonlin` stores and checks."""
        return self.nonlin.p

    @property
    def delta(self):
        return min(self.lam, self.sigma)


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


class _ImplicitOperator:
    """Solver for (1 + dt*lam) I - dt*Lap, set up once per `solve_batch` call.

    1-D grids factor the SPD tridiagonal matrix T of the dirichlet0 or
    neumann0 closure as LDL^T.  A periodic grid adds the corners, which make
    the neumann0 matrix plus u u^T with u = sqrt(d)(e_0 - e_(n-1)), d =
    dt/h^2; it is solved on the neumann0 factor with the Sherman-Morrison
    correction x = y - w*sqrt(d)(y_0 - y_(n-1))/(1 + u^T w), y = T^-1 rhs and
    w = T^-1 u.  2-D grids solve in the eigenbasis of L1, minus the
    closure's 1-D second difference times h^2, with L1 = Q diag(mu) Q^T taken
    once by `eigh`: X = Q (Q^T R Q / (1 + dt*lam + d(mu_i + mu_j))) Q^T.
    That costs O(n^3) per row against O(n^2 log n) for a fast transform,
    and is faster up to n = 64 on every closure (README).
    """

    def __init__(self, grid, lam, dt):
        n = grid.n
        d = dt / grid.spacing**2
        self._q = None
        if grid.dim == 2:
            # minus the 1-D second difference of the closure, times h^2
            L1 = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            if grid.boundary == "neumann0":
                L1[0, 0] = L1[-1, -1] = 1.0
            elif grid.boundary == "periodic":
                L1[0, -1] = L1[-1, 0] = -1.0
            mu, self._q = np.linalg.eigh(L1)
            self._qt = np.ascontiguousarray(self._q.T)  # 10% faster products than the view
            self._denom = 1.0 + dt * lam + d * (mu[:, None] + mu[None, :])
            return
        # SPD tridiagonal: LDL^T, factored once
        diag = np.full(n, 1.0 + dt * lam + 2.0 * d)
        if grid.boundary != "dirichlet0":
            diag[0] -= d
            diag[-1] -= d
        self._d, self._e, info = dpttrf(diag, np.full(n - 1, -d))
        if info != 0:
            raise ValueError(f"pttrf failed with info {info}")
        self._w = None
        if grid.boundary == "periodic":
            root = np.sqrt(d)
            u = np.zeros(n)
            u[0], u[-1] = root, -root
            self._w, _ = dpttrs(self._d, self._e, u)
            self._scale = root / (1.0 + root * (self._w[0] - self._w[-1]))

    def solve(self, rhs):
        """Overwrite `rhs`, one right-hand side per row, with the solutions.

        Each row is solved exactly as it would be alone: dpttrs treats the
        columns of the Fortran-ordered rhs.T one by one, the periodic
        correction is elementwise per row, and each product of the 2-D
        solve is one GEMM of an (n, n) row against Q or Q^T (a single
        reshaped GEMM would pick its BLAS kernel by the batch size).
        """
        if self._q is not None:
            y = np.matmul(np.matmul(self._qt, rhs), self._q)
            y /= self._denom
            np.matmul(np.matmul(self._q, y), self._qt, out=rhs)
            return rhs
        x, info = dpttrs(self._d, self._e, rhs.T, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of pttrs")
        if not np.may_share_memory(x, rhs):
            rhs[...] = x.T
        if self._w is not None:
            coef = (rhs[:, 0] - rhs[:, -1]) * self._scale
            rhs -= coef[:, None] * self._w
        return rhs


@dataclass
class SolverSpec:
    dt: float

    def __post_init__(self):
        if not self.dt > 0:  # NaN fails too
            raise ValueError("dt must be positive")


@dataclass
class Trajectory:
    """Strided per-sample records of one solve, the last at the terminal state."""

    t: np.ndarray
    u_l2sq: np.ndarray
    v_l2sq: np.ndarray
    u_lp_p: np.ndarray
    utilde_lp_p: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    energy: np.ndarray
    final: FhnState
    snapshots: list  # (t, u values copy) at the snapshot stride


def solve(spec, solver, path, tau0, tau1, init, snapshot_stride=None):
    """Advance from tau0 to tau1 along `path`, recording norms every stride.

    z1, z2 at PDE time s are the OU drivers evaluated at the path step
    offset + (s - tau0)/dt, i.e. along theta_{s-tau0} of the given path.
    This is `solve_batch` with one member.
    """
    if step_index(init.t, solver.dt) != step_index(tau0, solver.dt):
        raise ValueError("init.t must equal tau0")
    return solve_batch(spec, solver, [(path, init)], tau1, snapshot_stride)[0]


def solve_batch(spec, solver, members, tau1, snapshot_stride=None, tilde=False):
    """Advance several runs to tau1 as the rows of one (B, n) array.

    `members` is a list of (path, init) pairs; each run starts at init.t and
    is driven along its own path exactly as in `solve`.  With `tilde`, each
    init holds the transformed pair (u~, v~), and its row starts from
    (u~ - h1*z1, v~ - h2*z2) with the OU values at the run's first step.  A
    row joins the batch at its own start step, so runs of different length
    (a pullback schedule) land together at tau1, and records and snapshots
    are counted from each row's own start.  The arithmetic of a row does
    not depend on the batch: every operation is elementwise, the implicit
    solve treats each row alone, and the records of the rows due at a step
    are taken at once by `l2_sq` and `lp_p` over a leading row axis, which
    give each row bitwise its own norm.  Each row is therefore bitwise the
    run `solve` gives on its own.  Returns one Trajectory per member, in
    order; the record arrays of the trajectories are views of one block.
    """
    if not members:
        return []
    dt = solver.dt
    stride = RECORD_STRIDE
    k1 = step_index(tau1, dt)
    if snapshot_stride and snapshot_stride % RECORD_STRIDE != 0:
        raise ValueError("snapshot_stride must be a multiple of RECORD_STRIDE")
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
    S = len(sources)
    Z1 = np.zeros((k1 - kmin + 1, S))
    Z2 = np.zeros_like(Z1)
    for (seed, shift), (g, first) in sources.items():
        Z1[first - kmin :, g] = OuProcess(seed, 1, spec.lam, dt).values(first + shift, k1 + shift)
        Z2[first - kmin :, g] = OuProcess(seed, 2, spec.sigma, dt).values(first + shift, k1 + shift)

    grid = members[0][1].grid
    op = _ImplicitOperator(grid, spec.lam, dt)
    lap_h1 = laplacian_values(spec.h1.values, grid)
    h1 = spec.h1.values
    h2 = spec.h2.values
    gprof = spec.g.profile.values
    hprof = spec.h.profile.values
    nl = spec.nonlin
    alpha, beta = spec.alpha, spec.beta
    ev = np.exp(-spec.sigma * dt)
    gain = (1.0 - ev) / spec.sigma
    p = spec.p
    # a row's sum of squares at most T^2 bounds each of its |x| by T: each
    # square is at most the rounded sum of nonnegative terms, and T^2 = 1e16
    # is exact
    guard = BLOWUP_THRESHOLD * BLOWUP_THRESHOLD

    U = np.empty((B,) + grid.shape)
    R = np.empty_like(U)
    V = np.empty_like(U)
    shifted = np.empty_like(U)
    acc = np.empty_like(U)
    tmp = np.empty_like(U)
    force = np.empty(grid.shape)
    prod = np.empty((S,) + grid.shape)
    group = np.array(group)
    zcol = (1,) * grid.dim  # a z value per source broadcasts over its profile

    # records at each row's steps 0, stride, 2*stride, ... and at tau1, in
    # Trajectory field order: row b fills recs[:, offsets[b] : offsets[b + 1]]
    # and writes its next record at nxt[b]
    k0a = np.array(k0)
    offsets = np.concatenate(([0], np.cumsum((k1 - k0a + stride - 1) // stride + 1))).tolist()
    nxt = np.array(offsets[:-1])
    recs = np.empty((7, offsets[-1]))
    snapshots = [[] for _ in range(B)]
    # the rows whose own step count is a multiple of the stride at step k
    # are by_phase[k % stride], in row order
    by_phase = [np.flatnonzero(k0a % stride == r) for r in range(stride)]

    def record(due, k):
        """Record the rows `due`, increasing, at step k, all at once (consecutive rows as views)."""
        m = len(due)
        sel = slice(due[0], due[-1] + 1) if due[-1] - due[0] == m - 1 else due
        u, v = U[sel], V[sel]
        j = k - kmin
        z1 = Z1[j, group[sel]]
        ut = np.multiply(h1, z1.reshape((m,) + zcol), out=tmp[:m])
        np.add(u, ut, out=ut)
        nxt[sel] += 1
        at = nxt[sel] - 1
        recs[0, at] = k * dt
        recs[1, at] = l2_sq(u, grid)
        recs[2, at] = l2_sq(v, grid)
        recs[3, at] = lp_p(u, grid, p)
        recs[4, at] = lp_p(ut, grid, p)
        recs[5, at] = z1
        recs[6, at] = Z2[j, group[sel]]
        if snapshot_stride:
            for b in due.tolist():
                if (k - k0[b]) % snapshot_stride == 0:
                    snapshots[b].append((k * dt, U[b].copy()))

    def enter(first, k):
        """Rows from `first` whose start step is k join; returns the active count."""
        end = first
        while end < B and k0[end] == k:
            init = members[rows[end]][1]
            U[end] = init.u.values
            V[end] = init.v.values
            if tilde:
                U[end] -= h1 * Z1[k - kmin, group[end]]
                V[end] -= h2 * Z2[k - kmin, group[end]]
            end += 1
        record(np.arange(first, end), k)
        return end

    # The loop below evaluates, for the active rows, into preallocated
    # buffers and in this order of floating-point operations,
    #   rhs = u + dt*(f(u + h1*z1) + gf*G - alpha*v + Lap(h1)*z1 - (alpha*z2)*h2)
    #   v   = ev*v + gain*(beta*u + hf*H + (beta*z1)*h1)
    # Once per stride block it reads the block's z columns and alpha*z2,
    # beta*z1, and the forcing factors gf, hf at the block's times, all
    # elementwise as per step.  A profile times z is formed once per z
    # series (prod), and `pick`, chosen as rows join, selects each row's: one
    # series broadcasts its row, rows that are their own series in order take
    # the first A rows, and any other batch gathers (numpy broadcasts a
    # per-row column several times slower than it runs contiguous arrays).
    gfactor, hfactor = spec.g.factor, spec.h.factor
    A = 0
    for kb in range(kmin, k1, stride):
        ke = min(kb + stride, k1)
        times = np.arange(kb, ke) * dt
        gfs = np.broadcast_to(gfactor(times), times.shape).tolist()
        hfs = np.broadcast_to(hfactor(times), times.shape).tolist()
        zs = Z1[kb - kmin : ke - kmin]
        z1s = zs.reshape((ke - kb, S) + zcol)
        bz1s = (beta * zs).reshape(z1s.shape)
        az2s = (alpha * Z2[kb - kmin : ke - kmin]).reshape(z1s.shape)
        for i, k in enumerate(range(kb, ke)):
            if A < B and k0[A] == k:
                A = enter(A, k)
                u, v, rhs = U[:A], V[:A], R[:A]
                sh, ac, tm = shifted[:A], acc[:A], tmp[:A]
                pick = slice(0, 1) if S == 1 else slice(0, A) if S == B else group[:A]
                phase_due = [d[: np.searchsorted(d, A)] for d in by_phase]
            z1 = z1s[i]
            np.multiply(h1, z1, out=prod)
            np.add(u, prod[pick], out=sh)
            np.multiply(gprof, gfs[i], out=force)
            np.add(nl(sh, out=tm), force, out=ac)
            np.multiply(v, alpha, out=tm)
            np.subtract(ac, tm, out=ac)
            np.multiply(lap_h1, z1, out=prod)
            np.add(ac, prod[pick], out=ac)
            np.multiply(h2, az2s[i], out=prod)
            np.subtract(ac, prod[pick], out=ac)
            np.multiply(ac, dt, out=ac)
            np.add(u, ac, out=rhs)
            op.solve(rhs)
            if not row_dots(rhs).max() <= guard:  # NaN too; the exact scan decides
                mx = float(np.abs(rhs, out=tm).max())
                if not mx <= BLOWUP_THRESHOLD:
                    row_max = tm.reshape(A, -1).max(axis=1)
                    b = next(b for b in range(A) if not row_max[b] <= BLOWUP_THRESHOLD)
                    path, init = members[rows[b]]
                    raise BlowUpError((k + 1) * dt, float(row_max[b]), (path.seed, tau1 - init.t))
            np.multiply(u, beta, out=ac)
            np.multiply(hprof, hfs[i], out=force)
            np.add(ac, force, out=ac)
            np.multiply(h1, bz1s[i], out=prod)
            np.add(ac, prod[pick], out=ac)
            np.multiply(ac, gain, out=ac)
            np.multiply(v, ev, out=v)
            np.add(v, ac, out=v)
            # the old u is not needed any more: it becomes the next rhs buffer
            U, R = R, U
            u, rhs = rhs, u
            due = np.arange(A) if k + 1 == k1 else phase_due[(k + 1) % stride]
            if len(due):
                record(due, k + 1)
    if A < B:  # runs that start at tau1 take no step
        enter(A, k1)

    energy = alpha * recs[2] + beta * recs[1]
    trajs = [None] * B
    for b, i in enumerate(rows):
        at = slice(offsets[b], offsets[b + 1])
        trajs[i] = Trajectory(
            *recs[:, at],
            energy=energy[at],
            final=FhnState(k1 * dt, ScalarField(grid, U[b].copy()), ScalarField(grid, V[b].copy())),
            snapshots=snapshots[b],
        )
    return trajs


def validate_structure(spec):
    """Check the dissipativity (3.1) and growth (3.2) conditions on f.

    For f(s) = c|s|^(p-2) s they are exact in c: f(s)s = c|s|^p <= -alpha1|s|^p
    for all s iff c <= -alpha1, and |f(s)| = |c||s|^(p-1) <= alpha2|s|^(p-1)
    iff |c| <= alpha2.  The derivative condition (3.3), f'(s) <= alpha3 for
    an alpha3 > 0, follows from 3.1: f'(s) = c(p-1)|s|^(p-2) <= 0.  Raises
    StructureViolation for a margin that is positive (or NaN), otherwise
    returns the margins.
    """
    c = spec.nonlin.sign
    margins = {"3.1": c + spec.alpha1, "3.2": abs(c) - spec.alpha2}
    for cond, margin in margins.items():
        if not margin <= 0:
            raise StructureViolation(cond, {"c": c}, margin)
    return margins


# samples of the forcing history evaluated at once by `validate_forcing`
_HISTORY_CHUNK = 1 << 15


def validate_forcing(spec, tau, horizon, dt):
    """Quadrature of int_{tau-horizon}^tau e^{delta(s-tau)} (|g|^2+|h|^2) ds, step dt.

    Returns (value, converged) as `history_quadrature` gives them.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = int(round(horizon / dt))
    integrand = np.empty(n + 1)
    # filled in pieces, so the temporaries are a piece long; each sample is
    # the same elementwise expression as over the whole window
    for i in range(0, n + 1, _HISTORY_CHUNK):
        s = tau - horizon + np.arange(i, min(i + _HISTORY_CHUNK, n + 1)) * dt
        w = np.exp(spec.delta * (s - tau))
        np.multiply(w, spec.g.l2sq_at(s) + spec.h.l2sq_at(s), out=integrand[i : i + s.size])
    return history_quadrature(integrand, dt)


def history_quadrature(integrand, dt):
    """(trapezoid total, converged) of a history integrand sampled oldest first.

    Converged when the oldest tenth of the window contributes less than 1%
    of the total.
    """
    total = float(trapezoid(integrand, dt))
    early = float(trapezoid(integrand[: (len(integrand) - 1) // 10 + 1], dt))
    return total, bool(total == 0.0 or early < 0.01 * total)


def trapezoid(y, dx):
    """Composite trapezoid rule for samples `y` at uniform spacing `dx`."""
    if len(y) < 2:
        return 0.0
    return dx * (np.sum(y) - 0.5 * (y[0] + y[-1]))
