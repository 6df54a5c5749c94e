"""Two-sided Wiener paths and stationary Ornstein-Uhlenbeck drivers.

The Brownian increments are counter-based: the increment for step k is a
pure hash of (seed, component, k), so a path can be extended arbitrarily
far backward in time without perturbing values that were already generated.
That property is what makes pullback experiments (same noise realization,
initial time receding to -infinity) well defined at the discrete level.

The hash and its map to N(0, 1) run in the compiled kernel's
`fhn_increments` (`_step.c`): a splitmix64-style hash gives a uniform in
(0, 1), and Cephes' `ndtri`, ported with its coefficients and its order
of operations, inverts the normal distribution function at it.  Each draw
is bitwise `scipy.special.ndtri(u) * scale` of the numpy hash that the
tests keep as their reference, so the package needs numpy alone at run
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import RunError, kernel


class GridAlignmentError(RunError, ValueError):
    """A time did not fall on the shared simulation grid."""

    kind = "off-grid time"


def step_index(t, dt):
    """Snap a time to the global grid; error out if it is off-grid."""
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise GridAlignmentError(f"time {t} is not a multiple of dt={dt}")
    return k


# the tags of the two streams of each (seed, component): the increments,
# and the stationary draw that anchors each OU block
_TAG_INCREMENT = 0x243F6A8885A308D3
_TAG_INIT = 0x13198A2E03707344


def _normals(seed, k, tag, scale):
    """N(0, scale**2) values keyed by (seed, tag, k), one per step of `k`,
    from the kernel's `fhn_increments`; a scalar for a scalar `k`."""
    ks = np.asarray(k, dtype=np.int64, order="C")
    out = np.empty(ks.shape)
    kernel.load().fhn_increments(seed.seed, seed.component, tag, ks.ctypes.data, ks.size, scale,
                                 out.ctypes.data)
    return out[()]


@dataclass(frozen=True)
class NoiseSeed:
    """One component of the two-sided driving noise."""

    seed: int
    component: int  # 1 or 2

    def __post_init__(self):
        if self.component not in (1, 2):
            raise ValueError("component must be 1 or 2")
        if not 0 <= self.seed < 2**64:  # the hash keys on uint64 seeds
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


def wiener_increment(seed, k, dt):
    """N(0, dt) increment for step k, pure in (seed, component, k, dt).

    `k` may be a scalar or an integer array; negative indices address the
    backward half of the path.
    """
    if not dt > 0:  # NaN fails too
        raise ValueError("dt must be positive")
    return _normals(seed, k, _TAG_INCREMENT, np.sqrt(dt))


@dataclass(frozen=True)
class WienerPath:
    """Discrete two-component Wiener path anchored at omega(origin) = 0.

    `offset` is the origin expressed in steps of the underlying counter
    stream: relative step k of component c draws `wiener_increment(NoiseSeed(
    seed, c), offset + k, dt)`.  So shifting the path is just an index offset
    and the shift group law holds exactly on the grid.
    """

    seed: int
    dt: float
    offset: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def shift(self, s):
        """theta_s omega: the path t -> omega(s + t) - omega(s)."""
        return WienerPath(self.seed, self.dt, self.offset + step_index(s, self.dt))


def stationary_variance(rate):
    return 1.0 / (2.0 * rate)


# increments hashed at once (a few hundred kB of scratch, so they stay in
# cache), and window values per piece of a fill; counted in values, not
# blocks, so the memory of a process does not grow as its block length
# B = 20/(rate*dt)
_CHUNK = 1 << 14
_SOLVE_VALUES = 1 << 17


class OuProcess:
    """Stationary OU process z(theta_t omega) driven by one Wiener component.

    Values are indexed by the absolute step of the underlying counter stream,
    which makes z a pure function of (seed, component, rate, step).  Each
    block of `B = 20/(rate*dt)` steps is produced by the exact-decay
    recursion anchored one block earlier at an independent stationary draw,
    so the initialization error is bounded by exp(-20) while any two
    evaluations of the same step agree bitwise -- the property the cocycle
    law test relies on.

    A fill solves its blocks in pieces of `piece_blocks` consecutive blocks,
    as many 2B-1 step windows as `_SOLVE_VALUES` holds, and at least one.
    A read fills one group of at most `piece_blocks` blocks at a time and
    holds no block once it returns, so a read's memory grows neither with
    its span nor with 1/dt, and nothing is carried from one read to the
    next.  A block read again is filled again, bitwise the same; a caller
    that reads overlapping windows reads their union once.

    The recursion y[n] = xi[n] + a*y[n-1] over each window runs in the
    kernel's `fhn_ou_blocks`, built without FMA contraction, so each y is
    the rounded product a*y[n-1] plus xi[n], rounded once.
    `scipy.signal.lfilter([1], [1, -a], xi)` forms xi[n] + (0*xi[n-1] -
    (-a)*y[n-1]), and (-a)*y is exactly -(a*y), so it rounds the same sum
    and every block is bitwise the filtered one.
    """

    def __init__(self, seed, component, rate, dt):
        if not rate > 0:  # NaN fails too, before it reaches int()
            raise ValueError("rate must be positive")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.seed = NoiseSeed(seed, component)
        self.rate = rate
        self.dt = dt
        self.B = max(1, int(round(20.0 / rate / dt)))
        self._decay = np.exp(-rate * dt)
        self._damp = np.exp(-rate * dt / 2.0)  # midpoint damping quadrature
        self.piece_blocks = max(1, _SOLVE_VALUES // (2 * self.B - 1))
        self._blocks = {}  # the blocks of the fill a read is copying out of
        # the end step and the last B - 1 increments of a read's latest fill,
        # carried into its next fill when that fill's first window starts
        # among them, and the decay powers its fills share, which depend only
        # on B; a read drops both when it is done
        self._tail = (0, np.empty(0))
        self._pows = None

    def _compute_blocks(self, ms):
        """Fill the blocks of the indices in `ms` into `_blocks`, in place of
        the blocks held before.

        The blocks are filled in pieces of at most `piece_blocks` consecutive
        blocks, one kernel call per piece, so a fill's scratch is one piece's
        increments however long its span.
        """
        self._blocks = {}
        pieces = []
        for m in sorted(set(ms)):
            if pieces and m == pieces[-1][-1] + 1 and len(pieces[-1]) < self.piece_blocks:
                pieces[-1].append(m)
            else:
                pieces.append([m])
        B = self.B
        if self._pows is None:
            # y[n] = sum_{j<=n} a^(n-j) xi_j is the forced part of z at step
            # anchor + n + 1, so steps m*B .. (m+1)*B - 1 are n = B-1 .. 2B-2
            self._pows = self._decay ** np.arange(B, 2 * B)
        fill = kernel.load().fhn_ou_blocks
        longest = max(len(piece) for piece in pieces)
        xi_buf = np.empty((longest + 1) * B - 1)  # one piece's increments
        sd = np.sqrt(stationary_variance(self.rate))
        k1, xi = self._tail  # the end step of the increments drawn last, and their tail
        for piece in pieces:
            # block m filters the 2B-1 increments from step (m-1)*B; consecutive
            # windows overlap by B-1 steps, so the piece's increments are drawn
            # once and its windows start B apart in them.  The B-1 it shares
            # with the piece or fill before are carried over, not drawn again.
            k0 = (piece[0] - 1) * B
            carried = k1 - k0 if 0 < k1 - k0 <= xi.size else 0
            xi_buf[:carried] = xi[xi.size - carried :]
            xi = xi_buf[: (len(piece) + 1) * B - 1]
            k1 = k0 + xi.size
            for i in range(carried, xi.size, _CHUNK):
                ks = np.arange(k0 + i, k0 + min(i + _CHUNK, xi.size), dtype=np.int64)
                xi_i = wiener_increment(self.seed, ks, self.dt)
                np.multiply(self._damp, xi_i, out=xi[i : i + ks.size])
            blocks = np.multiply.outer(_normals(self.seed, np.array(piece) - 1, _TAG_INIT, sd), self._pows)
            fill(xi.ctypes.data, len(piece), B, self._decay, blocks.ctypes.data)
            self._blocks.update(zip(piece, blocks))
        self._tail = (k1, xi[xi.size - (B - 1) :].copy())

    def read(self, spans):
        """z at the steps of each span (j0, j1, stride): j0, j0 + stride, ...
        up to j1 inclusive, one array per span.

        The blocks the spans cover are visited once, in increasing order, in
        groups of at most `piece_blocks`.  Each group is filled, then each
        span's share of each block is copied out of the block, so a read
        fills no block twice, holds no copy of a whole span and, once it
        returns, no block.
        """
        B = self.B
        outs = [np.empty((j1 - j0) // stride + 1) for j0, j1, stride in spans]
        done = [0] * len(spans)  # next output index of each span
        ms = sorted(set().union(*(range(j0 // B, j1 // B + 1) for j0, j1, _ in spans)))
        for g in range(0, len(ms), self.piece_blocks):
            group = ms[g : g + self.piece_blocks]
            self._compute_blocks(group)
            # a block is a row of its piece's array, so no name holds one
            # into the next fill, which would keep its whole piece alive
            for m in group:
                for s, ((j0, j1, stride), out) in enumerate(zip(spans, outs)):
                    j, last = j0 + done[s] * stride, min(j1, (m + 1) * B - 1)
                    if j <= last:
                        count = (last - j) // stride + 1
                        out[done[s] : done[s] + count] = self._blocks[m][j - m * B : last - m * B + 1 : stride]
                        done[s] += count
        self._blocks, self._tail, self._pows = {}, (0, np.empty(0)), None
        return outs

    def values(self, j0, j1, stride=1):
        """z at absolute steps j0, j0 + stride, ... up to j1 inclusive."""
        return self.read([(j0, j1, stride)])[0]


get_ou = OuProcess  # kept only because perfbench/checks.py imports it


def temperedness_probe(ts, z, delta, exponent, horizon):
    """Series t -> exp(-delta*t) * |z(theta_{-t} omega)|^exponent on [0, horizon].

    `z[i]` is z(theta_{-t} omega) at t = `ts[i]`, with `ts` increasing from
    0.  The probe passes when the maximum of the series over the last 10% of
    the horizon sits below its initial value.
    """
    if not (delta > 0 and horizon > 0):  # NaN fails too
        raise ValueError("delta and horizon must be positive")
    series = np.exp(-delta * ts) * np.abs(z) ** exponent
    tail = series[ts >= 0.9 * horizon]
    passed = bool(np.max(tail) < series[0]) if series[0] > 0 else bool(np.max(tail) == 0.0)
    return series, passed
