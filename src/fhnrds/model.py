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

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import RunError, kernel
# lp_p is looked up here by perfbench/spans.py, which traces the norms
from .fields import Grid, ScalarField, l2_sq, laplacian_values, lp_p  # noqa: F401
from .noise import OuProcess, step_index

BLOWUP_THRESHOLD = 1e8
RECORD_STRIDE = 10  # steps between the records of a solve
_LANES = 4  # rows of the widest vector of the kernel's 1-D sweep


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

    @functools.cached_property  # on first use: no config resolve loads the kernel
    def profile_l2sq(self):
        return l2_sq(self.profile.values, self.profile.grid)

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
    neumann0 closure as LDL^T into `d` and `e`, for the kernel's step to
    solve with.  The factor is formed in the order of operations of
    LAPACK's dpttrf, in Python floats, which round each operation as IEEE
    doubles, so it is bitwise dpttrf's.  A periodic grid adds the corners,
    which make the neumann0 matrix plus u u^T with u = sqrt(d)(e_0 -
    e_(n-1)), d = dt/h^2; it is solved on the neumann0 factor with the
    Sherman-Morrison correction x = y - w*sqrt(d)(y_0 - y_(n-1))/(1 + u^T w),
    y = T^-1 rhs and w = T^-1 u, with `w` formed once here in the order of
    dptts2 and `scale` = sqrt(d)/(1 + u^T w).  2-D grids solve in the
    eigenbasis of L1, minus the closure's 1-D second difference times h^2,
    with L1 = Q diag(mu) Q^T taken once by `eigh`: X = Q (Q^T R Q / (1 +
    dt*lam + d(mu_i + mu_j))) Q^T.  That costs O(n^3) per row against
    O(n^2 log n) for a fast transform, and is faster up to n = 64 on every
    closure (README).
    """

    def __init__(self, grid, lam, dt):
        n = grid.n
        d = float(dt / grid.spacing**2)
        self.d = self.e = self.w = None
        self.scale = 0.0
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
        diag = [float(1.0 + dt * lam + 2.0 * d)] * n
        if grid.boundary != "dirichlet0":
            diag[0] -= d
            diag[-1] -= d
        off = [-d] * (n - 1)
        for i in range(n - 1):  # dpttrf
            if diag[i] <= 0.0:
                raise ValueError(f"pttrf failed with info {i + 1}")
            ei = off[i]
            off[i] = ei / diag[i]
            diag[i + 1] = diag[i + 1] - off[i] * ei
        if diag[-1] <= 0.0:
            raise ValueError(f"pttrf failed with info {n}")
        self.d, self.e = np.array(diag), np.array(off)
        if grid.boundary == "periodic":
            root = math.sqrt(d)
            w = [0.0] * n
            w[0], w[-1] = root, -root
            for i in range(1, n):  # dptts2
                w[i] = w[i] - w[i - 1] * off[i - 1]
            w[-1] = w[-1] / diag[-1]
            for i in range(n - 2, -1, -1):
                w[i] = w[i] / diag[i] - w[i + 1] * off[i]
            self.w = np.array(w)
            self.scale = root / (1.0 + root * (w[0] - w[-1]))

    def solve(self, rhs):
        """Overwrite `rhs`, the (n, n) rows of a 2-D grid, with the solutions.

        Each row is solved exactly as it would be alone: each product is
        one GEMM of an (n, n) row against Q or Q^T (a single reshaped GEMM
        would pick its BLAS kernel by the batch size).
        """
        y = np.matmul(np.matmul(self._qt, rhs), self._q)
        y /= self._denom
        np.matmul(np.matmul(self._q, y), self._qt, out=rhs)
        return rhs


class _Step:
    """The IMEX step of `solve_batch` for B rows, one call of the kernel per step.

    Point i of row b sits at u[i, b] on 1-D grids, rows innermost, so that
    the kernel's tridiagonal sweep runs across the rows at once (the
    interleaved layout of Laszlo, Giles & Appleyard, ACM TOMS 42 (2016));
    2-D grids keep rows outermost, u[b], and solve each row by the
    operator's GEMMs.  The active rows are a prefix b < A.  The kernel's
    1-D sweep steps whole vectors of up to four rows, so on 1-D grids the
    buffers behind u, v, `group` and the scratch hold the rows rounded up
    to a multiple of four, zero-filled, so that the spare lanes step no
    denormal or NaN garbage; u and v are views of the first B rows, and
    the kernel stores nothing into a row b >= A.  At step j of the
    z series Z1, Z2 (a column per source; `group` names each row's) the
    kernel evaluates, one IEEE operation at a time and in this order,
      rhs = u + dt*(f(u + h1*z1) + gf*G - alpha*v + Lap(h1)*z1 - (alpha*z2)*h2)
      v   = ev*v + gain*(beta*u + hf*H + (beta*z1)*h1)
    from the old u and v, and then solves u from rhs, so that each row is
    bitwise these numpy expressions evaluated for it alone.  The kernel
    writes that update once for both grids, forming gf*G and hf*H at each
    point, and picks the code of the step for the CPU by one test.  For
    p = 4 the kernel forms f as `Nonlinearity` does, ((s*s)*s)*sign; for
    any other p, `Nonlinearity` fills a buffer between two passes of the
    kernel, since numpy's `**` is not libm's `pow`.  `advance(A, j, gf,
    hf)` is the step: on 1-D grids at p = 4 the kernel's `fhn_step` bound
    to the plan, with no Python around it, and `_advance` otherwise.
    Calling the `_Step` checks j and A against the z series and the rows
    first, raising IndexError, so that no pointer past them reaches the
    kernel; `solve_batch`, whose loop stays within both, calls `advance`.
    `norms` takes the sums of a record from u and v in place, by the
    kernel's export bound to them.
    """

    def __init__(self, spec, grid, dt, B, Z1, Z2, group):
        self.op = _ImplicitOperator(grid, spec.lam, dt)
        lib = kernel.load()
        self._step, self._shift, self._scan = lib.fhn_step, lib.fhn_shift, lib.fhn_scan
        self.one_d = grid.dim == 1
        self.size = grid.n**grid.dim
        rows = -(-B // _LANES) * _LANES if self.one_d else B
        u, v = (np.zeros((self.size, rows) if self.one_d else (B,) + grid.shape) for _ in range(2))
        self.u, self.v = (x[:, :B] if self.one_d else x for x in (u, v))
        self._nl = None if spec.p == 4 else spec.nonlin
        self._shifted = self._f = None
        if self._nl is not None:  # f packed as A rows, and one vector past them
            self._shifted, self._f = np.empty(self.size * B), np.zeros(self.size * B + _LANES)
        ev = np.exp(-spec.sigma * dt)
        profiles = [np.ascontiguousarray(a, dtype=float) for a in (
            spec.h1.values, laplacian_values(spec.h1.values, grid), spec.h2.values,
            spec.g.profile.values, spec.h.profile.values)]
        Z1, Z2 = (np.ascontiguousarray(z, dtype=float) for z in (Z1, Z2))
        group = np.asarray(group, dtype=np.int64)
        if Z1.ndim != 2 or Z1.shape != Z2.shape or group.shape != (B,) \
                or not np.all((0 <= group) & (group < Z1.shape[1])):
            raise ValueError("Z1 and Z2 need one column per z series, which `group` indexes per row")
        self._bounds = (len(Z1), B)
        group = np.concatenate((group, np.zeros(rows - B, dtype=np.int64)))
        scratch = np.zeros(3 * rows)
        self._keep = (u, v, profiles, Z1, Z2, group, scratch)  # the arrays the plan points into

        def at(a):
            return None if a is None else a.ctypes.data
        self.plan = kernel.Plan(
            self.size, rows, rows if self.one_d else 1, 1 if self.one_d else self.size,
            at(u), at(v), at(self._shifted), at(self._f), *map(at, profiles),
            at(Z1), at(Z2), Z1.shape[1], at(group),
            spec.nonlin.sign, dt, spec.alpha, spec.beta, ev, (1.0 - ev) / spec.sigma,
            BLOWUP_THRESHOLD, at(self.op.d), at(self.op.e), at(self.op.w), self.op.scale, at(scratch),
        )
        self._addr = ctypes.addressof(self.plan)
        self.advance = functools.partial(self._step, self._addr) \
            if self.one_d and self._nl is None else self._advance
        # the rows of a record, their z1 values and their sums (`norms`), in
        # scratch whose addresses the kernel's norm sums are bound to
        self._due, self._z1, self._sums = np.empty(B, dtype=np.int64), np.empty(B), np.empty(4 * B)
        ps, rs = (rows, 1) if self.one_d else (1, self.size)
        self._norms = [functools.partial(lib.fhn_norms, at(x), self.size, ps, rs, B, at(self._due))
                       for x in (u, v)]
        self._norm_args = (spec.p, at(profiles[0]), at(self._z1), at(self._sums))

    def row(self, x, b):
        """Row b of u or v, a view in the grid's shape."""
        return x[:, b] if self.one_d else x[b]

    def rows(self, x, sel):
        """The rows `sel` of u or v, with a leading row axis."""
        return x[:, sel].T if self.one_d else x[sel]

    def norms(self, due, z1):
        """The norm sums of the rows `due`, with z1 one value per row: a (4, len(due))
        array of the sums of u*u, |u|^p, |u + h1*z1|^p and v*v over each row's
        points, read in place by the kernel's `fhn_norms`, which adds them in
        point order, as it does for `fields.norm_sums`."""
        m = len(due)
        self._due[:m], self._z1[:m] = due, z1
        p, h1_at, z1_at, out = self._norm_args
        v_out = out + 3 * m * self._sums.itemsize  # v*v after the three sums of u
        if self._norms[0](m, 3, p, h1_at, z1_at, out) or self._norms[1](m, 1, 0.0, None, None, v_out):
            raise IndexError(f"a row of {due} is outside the {self._bounds[1]} rows")
        return self._sums[: 4 * m].reshape(4, m)

    def scan(self, A):
        """Whether a value of u's rows b < A is out of range, NaN included."""
        return self._scan(self._addr, A)

    def __call__(self, A, j, gf, hf):
        """Advance the rows b < A by the step at z row j; returns `scan(A)` of the new u."""
        if not (0 <= j < self._bounds[0] and 0 <= A <= self._bounds[1]):
            raise IndexError(f"step at z row {j} of {self._bounds[0]} with {A} of {self._bounds[1]} rows")
        return self.advance(A, j, gf, hf)

    def _advance(self, A, j, gf, hf):
        if self._nl is not None:
            self._shift(self._addr, A, j)
            m = A * self.size
            self._nl(self._shifted[:m], out=self._f[:m])
        out_of_range = self._step(self._addr, A, j, gf, hf)  # with the solve and its scan in 1-D
        if not self.one_d:
            self.op.solve(self.u[:A])
            out_of_range = self.scan(A)
        return out_of_range


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
    """Advance several runs to tau1 as the B rows of one `_Step`.

    `members` is a list of (path, init) pairs; each run starts at init.t and
    is driven along its own path exactly as in `solve`.  With `tilde`, each
    init holds the transformed pair (u~, v~), and its row starts from
    (u~ - h1*z1, v~ - h2*z2) with the OU values at the run's first step.  A
    row joins the batch at its own start step, so runs of different length
    (a pullback schedule) land together at tau1, and records and snapshots
    are counted from each row's own start.  The arithmetic of a row does
    not depend on the batch: every operation of the step is elementwise,
    the implicit solve treats each row alone, and the records of the rows
    due at a step are taken at once, in place in the step's buffers, by the
    kernel's norm sums (`_Step.norms`, through the export that `l2_sq` and
    `lp_p` call too), which add each row's points in point order.  Each
    row is therefore bitwise the run `solve` gives on its own, and each
    record is bitwise `l2_sq` and `lp_p` of the row's state.  Returns
    one Trajectory per member, in order; the record arrays of the
    trajectories are views of one block.
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
    step = _Step(spec, grid, dt, B, Z1, Z2, group)
    U, V = step.u, step.v
    h1 = spec.h1.values
    h2 = spec.h2.values
    alpha, beta = spec.alpha, spec.beta
    group = np.array(group)

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

    # the rows of recs that the sums of `_Step.norms` go to
    norm_at = np.array([[1], [3], [4], [2]])

    def record(due, k):
        """Record the rows `due`, increasing, at step k, all at once."""
        j, series = k - kmin, group[due]
        z1 = Z1[j, series]
        nxt[due] += 1
        at = nxt[due] - 1
        recs[0, at] = k * dt
        recs[norm_at, at] = step.norms(due, z1) * grid.cell_measure
        recs[5, at] = z1
        recs[6, at] = Z2[j, series]
        if snapshot_stride:
            for b in due.tolist():
                if (k - k0[b]) % snapshot_stride == 0:
                    snapshots[b].append((k * dt, step.row(U, b).copy()))

    def enter(first, k):
        """Rows from `first` whose start step is k join; returns the active count."""
        end = first
        while end < B and k0[end] == k:
            init = members[rows[end]][1]
            u, v = step.row(U, end), step.row(V, end)
            u[...] = init.u.values
            v[...] = init.v.values
            if tilde:
                u -= h1 * Z1[k - kmin, group[end]]
                v -= h2 * Z2[k - kmin, group[end]]
            end += 1
        record(np.arange(first, end), k)
        return end

    # the forcing factors of every step, one call of each over the batch's
    # step times, each elementwise as its own call at k*dt
    times = np.arange(kmin, k1) * dt
    gfs, hfs = (np.broadcast_to(f.factor(times), times.shape) for f in (spec.g, spec.h))
    A = 0
    advance = step.advance
    for k, gf, hf in zip(range(kmin, k1), gfs.tolist(), hfs.tolist()):
        if A < B and k0[A] == k:
            A = enter(A, k)
            phase_due = [d[: np.searchsorted(d, A)] for d in by_phase]
        if advance(A, k - kmin, gf, hf):
            row_max = np.abs(step.rows(U, slice(0, A)).reshape(A, -1)).max(axis=1)
            b = next(b for b in range(A) if not row_max[b] <= BLOWUP_THRESHOLD)
            path, init = members[rows[b]]
            raise BlowUpError((k + 1) * dt, float(row_max[b]), (path.seed, tau1 - init.t))
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
            final=FhnState(k1 * dt, ScalarField(grid, step.row(U, b).copy()),
                           ScalarField(grid, step.row(V, b).copy())),
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
