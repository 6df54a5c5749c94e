"""Two-sided Wiener paths and stationary Ornstein-Uhlenbeck drivers.

The Brownian increments are counter-based: the increment for step k is a
pure hash of (seed, component, k), so a path can be extended arbitrarily
far backward in time without perturbing values that were already generated.
That property is what makes pullback experiments (same noise realization,
initial time receding to -infinity) well defined at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrs
from scipy.special import ndtri


class RunError(Exception):
    """An expected failure of a run, which `cli.main` turns into exit code 2
    with `"<kind>: <message>"` in the manifest; each subclass names its
    `kind`.  It lives here because every module that raises one imports
    `noise`."""


class GridAlignmentError(RunError, ValueError):
    """A time did not fall on the shared simulation grid."""

    kind = "off-grid time"


def step_index(t, dt):
    """Snap a time to the global grid; error out if it is off-grid."""
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise GridAlignmentError(f"time {t} is not a multiple of dt={dt}")
    return k


# splitmix64-style finalizer, vectorized over uint64 arrays
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TAG_INCREMENT = np.uint64(0x243F6A8885A308D3)
_TAG_INIT = np.uint64(0x13198A2E03707344)


def _mix64(x, tmp):
    """Finalize the uint64 array `x` in place; `tmp` is scratch of its shape."""
    for shift, mult in ((np.uint64(30), _M1), (np.uint64(27), _M2)):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= mult
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _uniform01(seed, component, k, tag):
    """Deterministic uniforms in (0,1) keyed by (seed, component, k, tag), one per k."""
    with np.errstate(over="ignore"):
        key = np.array(np.uint64(seed) + _GOLDEN * np.uint64(component + 1) + tag)
        key = _mix64(key, np.empty_like(key))
    # the one copy of k, read as uint64 modulo 2**64 and hashed in place
    x = np.array(k, dtype=np.int64).view(np.uint64)
    tmp = np.empty_like(x)
    x *= _GOLDEN
    x += key
    _mix64(x, tmp)
    x ^= key
    _mix64(x, tmp)
    # 53-bit mantissa, offset keeps the value strictly inside (0,1)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return u


@dataclass(frozen=True)
class NoiseSeed:
    """One component of the two-sided driving noise."""

    seed: int
    component: int  # 1 or 2

    def __post_init__(self):
        if self.component not in (1, 2):
            raise ValueError("component must be 1 or 2")


def wiener_increment(seed, k, dt):
    """N(0, dt) increment for step k, pure in (seed, component, k, dt).

    `k` may be a scalar or an integer array; negative indices address the
    backward half of the path.
    """
    if not dt > 0:  # NaN fails too
        raise ValueError("dt must be positive")
    u = _uniform01(seed.seed, seed.component, k, _TAG_INCREMENT)
    return ndtri(u) * np.sqrt(dt)


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


# increments hashed at once, and window values swept per LAPACK call (a few
# hundred kB of scratch, so both stay in cache), and window values per piece
# of a fill; counted in values, not blocks, so the memory of a process does
# not grow as its block length B = 20/(rate*dt)
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
    as many 2B-1 step windows as `_SOLVE_VALUES` holds, rounded down to an
    even count and at least two.  A read fills one group of at most
    `piece_blocks` blocks at a time and holds no block once it returns, so a
    read's memory grows neither with its span nor with 1/dt, and nothing is
    carried from one read to the next.  A block read again is filled again,
    bitwise the same; a caller that reads overlapping windows reads their
    union once.

    The recursion y[n] = xi[n] + a*y[n-1] runs as the forward sweep of
    LAPACK `zgttrs` on the unit lower bidiagonal matrix with subdiagonal -a
    and no pivoting, which forms xi[n] - (-a)*y[n-1].
    `scipy.signal.lfilter([1], [1, -a], xi)` forms xi[n] + (0*xi[n-1] -
    (-a)*y[n-1]).  Both round the one sum xi[n] + a*y[n-1], so every block is
    bitwise the filtered one.  Two windows are swept as the real and
    imaginary parts of one complex column, and an odd window with zeros.
    The coefficients have zero imaginary part, so (-a + 0i)*y has the parts
    (-a)*re - 0*im and (-a)*im + 0*re: the zero term is exact and leaves the
    rounded product as it is, and each part is swept bitwise as `dgttrs`
    sweeps one real window.  With d = 1 and du = du2 = 0 the back sweep
    (b - 0*b' - 0*b'')/1 returns its input unchanged.  Adding a signed zero
    changes no value but a zero, which a sweep of hashed increments never
    meets (its -0 could come back +0).  The sweep runs in chunks of at most
    `_CHUNK` values, each starting at the last value of the chunk before,
    which both sweeps leave as it is.
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
        self.piece_blocks = max(2, _SOLVE_VALUES // (2 * self.B - 1) // 2 * 2)
        self._blocks = {}  # the blocks of the fill a read is copying out of
        # the end step and the last B - 1 increments of a read's latest fill,
        # carried into its next fill when that fill's first window starts
        # among them, and the `zgttrs` arguments and decay powers its fills
        # share, which depend only on B; a read drops all three when it is done
        self._tail = (0, np.empty(0))
        self._sweep = None

    def _compute_blocks(self, ms):
        """Fill the blocks of the indices in `ms` into `_blocks`, in place of
        the blocks held before.

        The blocks are filled in pieces of at most `piece_blocks` consecutive
        blocks, whose windows are swept in pairs, one `zgttrs` call per chunk,
        so a fill's scratch is one piece's increments and one chunk of its
        pairs however long its span.
        """
        self._blocks = {}
        pieces = []
        for m in sorted(set(ms)):
            if pieces and m == pieces[-1][-1] + 1 and len(pieces[-1]) < self.piece_blocks:
                pieces[-1].append(m)
            else:
                pieces.append([m])
        B = self.B
        w = 2 * B - 1
        a = self._decay
        # consecutive chunks share one value; an even step leaves every chunk
        # of an odd window an odd length, 3 or more, as scipy's `zgttrs`
        # takes no n = 2
        step = _CHUNK - 2
        n = min(w, step + 1)
        if self._sweep is None:
            # y[i, n] = sum_{j<=n} a^(n-j) xi_j is the forced part of z at step
            # anchor + n + 1, so steps m*B .. (m+1)*B - 1 are n = B-1 .. 2B-2;
            # du and du2 are zero, so they share one array
            self._sweep = (np.full(n - 1, -a, dtype=complex), np.ones(n, dtype=complex),
                           np.zeros(n - 1, dtype=complex), np.arange(1, n + 1, dtype=np.int32),
                           a ** np.arange(B, 2 * B))
        dl, d, zero, ipiv, pows = self._sweep
        # scratch shared by the pieces of this fill: one piece's increments
        # and one chunk of its pairs of windows
        longest = max(len(piece) for piece in pieces)
        xi_buf = np.empty((longest + 1) * B - 1)
        pair_buf = np.empty((longest + 1) // 2 * n, dtype=complex)
        sd = np.sqrt(stationary_variance(self.rate))
        k1, xi = self._tail  # the end step of the increments drawn last, and their tail
        for piece in pieces:
            # block m filters the 2B-1 increments from step (m-1)*B; consecutive
            # windows overlap by B-1 steps, so the piece's increments are drawn
            # once and its windows are views into them.  The B-1 it shares
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
            windows = np.lib.stride_tricks.sliding_window_view(xi, w)[::B]
            u = _uniform01(self.seed.seed, self.seed.component, np.array(piece) - 1, _TAG_INIT)
            blocks = [z0 * pows for z0 in ndtri(u) * sd]
            pairs, full = (len(piece) + 1) // 2, len(piece) // 2  # full: pairs of two windows
            for s in range(0, max(w - 1, 1), step):
                size = min(n, w - s)
                y = pair_buf[: pairs * size].reshape(pairs, size)  # the solve overwrites it
                y.real[...] = windows[0::2, s : s + size]
                y.imag[:full] = windows[1::2, s : s + size]
                y.imag[full:] = 0.0
                if s:
                    y[:, 0] = carry
                if size > 1:  # a one-step window is its own solution
                    y = zgttrs(dl[: size - 1], d[:size], zero[: size - 1], zero[: size - 2],
                               ipiv[:size], y.T, overwrite_b=1)[0].T
                carry = y[:, -1].copy()
                # the chunk's values at steps of the block (n >= B - 1); the
                # first value of a later chunk is the chunk before's last,
                # already added
                lo = max(s + (s > 0), B - 1)
                if lo < s + size:
                    for i, block in enumerate(blocks):
                        part = y.imag if i % 2 else y.real
                        block[lo - (B - 1) : s + size - (B - 1)] += part[i // 2, lo - s :]
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
            for m in group:
                block = self._blocks[m]
                for s, ((j0, j1, stride), out) in enumerate(zip(spans, outs)):
                    j, last = j0 + done[s] * stride, min(j1, (m + 1) * B - 1)
                    if j <= last:
                        count = (last - j) // stride + 1
                        out[done[s] : done[s] + count] = block[j - m * B : last - m * B + 1 : stride]
                        done[s] += count
        self._blocks, self._tail, self._sweep = {}, (0, np.empty(0)), None
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
