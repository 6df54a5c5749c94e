"""Two-sided Wiener paths and stationary Ornstein-Uhlenbeck drivers.

The Brownian increments are counter-based: the increment for step k is a
pure hash of (seed, component, k), so a path can be extended arbitrarily
far backward in time without perturbing values that were already generated.
That property is what makes pullback experiments (same noise realization,
initial time receding to -infinity) well defined at the discrete level.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrs
from scipy.special import ndtri


class GridAlignmentError(ValueError):
    """A time did not fall on the shared simulation grid."""


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
    if dt <= 0:
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def shift(self, s):
        """theta_s omega: the path t -> omega(s + t) - omega(s)."""
        return WienerPath(self.seed, self.dt, self.offset + step_index(s, self.dt))


def stationary_variance(rate):
    return 1.0 / (2.0 * rate)


# increments hashed at once (a few hundred kB of scratch, so the hash stays
# in cache), OU blocks per piece of a fill, one `dgttrs` call each, and OU
# blocks an `OuProcess` keeps
_HASH_CHUNK = 1 << 15
_SOLVE_CHUNK = 16
_CACHE_BLOCKS = 2 * _SOLVE_CHUNK


class OuProcess:
    """Stationary OU process z(theta_t omega) driven by one Wiener component.

    Values are indexed by the absolute step of the underlying counter stream,
    which makes z a pure function of (seed, component, rate, step).  Each
    block of `B = 20/(rate*dt)` steps is produced by the exact-decay
    recursion anchored one block earlier at an independent stationary draw,
    so the initialization error is bounded by exp(-20) while any two
    evaluations of the same step agree bitwise -- the property the cocycle
    law test relies on.

    The process keeps at most `_CACHE_BLOCKS` blocks and drops the least
    recently read one first, so its memory does not grow with the span read.
    A block read again after it was dropped is filled again, bitwise the same.

    The recursion y[n] = xi[n] + a*y[n-1] runs as the forward sweep of
    LAPACK `dgttrs` on the unit lower bidiagonal matrix with subdiagonal -a
    and no pivoting, which forms xi[n] - (-a)*y[n-1].
    `scipy.signal.lfilter([1], [1, -a], xi)` forms xi[n] + (0*xi[n-1] -
    (-a)*y[n-1]).  Both round the one sum xi[n] + a*y[n-1], so every block is
    bitwise the filtered one.  With d = 1 and du = du2 = 0 the back sweep
    (b - 0*b' - 0*b'')/1 returns its input unchanged.
    """

    def __init__(self, seed, component, rate, dt):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.seed = NoiseSeed(seed, component)
        self.rate = rate
        self.dt = dt
        self.B = max(1, int(round(20.0 / rate / dt)))
        self._decay = np.exp(-rate * dt)
        self._damp = np.exp(-rate * dt / 2.0)  # midpoint damping quadrature
        self._blocks = OrderedDict()  # least recently read first
        # the end step and the last B - 1 increments of a read's latest fill,
        # carried into its next fill when that fill's first window starts
        # among them; a read drops them when it is done
        self._tail = (0, np.empty(0))

    def _compute_blocks(self, ms):
        """Fill the cache for the block indices in `ms` and mark them read last.

        The blocks are filled in pieces of at most `_SOLVE_CHUNK` consecutive
        blocks, one `dgttrs` call each, so a fill's scratch is one piece's
        however long its span, and no cached block is drawn again.  Each
        block filled past `_CACHE_BLOCKS` drops the least recently read one;
        with at most `_CACHE_BLOCKS` indices in `ms`, none of `ms` is dropped.
        """
        pieces = []
        for m in ms:
            if m in self._blocks:
                self._blocks.move_to_end(m)
        for m in sorted(set(ms) - self._blocks.keys()):
            if pieces and m == pieces[-1][-1] + 1 and len(pieces[-1]) < _SOLVE_CHUNK:
                pieces[-1].append(m)
            else:
                pieces.append([m])
        if not pieces:
            return
        B = self.B
        w = 2 * B - 1
        a = self._decay
        # scratch shared by the pieces of this fill: the `dgttrs` arguments,
        # which depend only on B, and one piece's increments and windows
        dl, d = np.full(w - 1, -a), np.ones(w)
        du, du2 = np.zeros(w - 1), np.zeros(max(w - 2, 0))
        ipiv = np.arange(1, w + 1, dtype=np.int32)
        longest = max(len(piece) for piece in pieces)
        xi_buf = np.empty((longest + 1) * B - 1)
        y_buf = np.empty((longest, w))
        # y[i, n] = sum_{j<=n} a^(n-j) xi_j is the forced part of z at step
        # anchor + n + 1, so steps m*B .. (m+1)*B - 1 are n = B-1 .. 2B-2
        pows = a ** np.arange(B, 2 * B)
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
            for i in range(carried, xi.size, _HASH_CHUNK):
                ks = np.arange(k0 + i, k0 + min(i + _HASH_CHUNK, xi.size), dtype=np.int64)
                xi_i = wiener_increment(self.seed, ks, self.dt)
                np.multiply(self._damp, xi_i, out=xi[i : i + ks.size])
            y = y_buf[: len(piece)]
            y[...] = np.lib.stride_tricks.sliding_window_view(xi, w)[::B]  # the solve overwrites it
            if w > 1:  # a one-step window is its own solution
                y = dgttrs(dl, d, du, du2, ipiv, y.T, overwrite_b=1)[0].T
            u = _uniform01(self.seed.seed, self.seed.component, np.array(piece) - 1, _TAG_INIT)
            for m, z0, row in zip(piece, ndtri(u) * sd, y):
                self._blocks[m] = z0 * pows + row[B - 1 :]
                if len(self._blocks) > _CACHE_BLOCKS:
                    self._blocks.popitem(last=False)
        self._tail = (k1, xi[xi.size - (B - 1) :].copy())

    def read(self, spans):
        """z at the steps of each span (j0, j1, stride): j0, j0 + stride, ...
        up to j1 inclusive, one array per span.

        The blocks the spans cover are visited once, in increasing order, in
        groups that the cache holds at once.  Each group is filled, then each
        span's share of each block is copied out of the block, so a read
        fills no block twice and holds no copy of a whole span.
        """
        B = self.B
        outs = [np.empty((j1 - j0) // stride + 1) for j0, j1, stride in spans]
        done = [0] * len(spans)  # next output index of each span
        ms = sorted(set().union(*(range(j0 // B, j1 // B + 1) for j0, j1, _ in spans)))
        group = min(_SOLVE_CHUNK, _CACHE_BLOCKS)
        for g in range(0, len(ms), group):
            self._compute_blocks(ms[g : g + group])
            for m in ms[g : g + group]:
                block = self._blocks[m]
                for s, ((j0, j1, stride), out) in enumerate(zip(spans, outs)):
                    j, last = j0 + done[s] * stride, min(j1, (m + 1) * B - 1)
                    if j <= last:
                        count = (last - j) // stride + 1
                        out[done[s] : done[s] + count] = block[j - m * B : last - m * B + 1 : stride]
                        done[s] += count
        self._tail = (0, np.empty(0))
        return outs

    def values(self, j0, j1, stride=1):
        """z at absolute steps j0, j0 + stride, ... up to j1 inclusive."""
        return self.read([(j0, j1, stride)])[0]


_OU_CACHE = {}


def get_ou(seed, component, rate, dt):
    """Shared OuProcess cache; values are pure so sharing is safe."""
    key = (seed, component, float(rate), float(dt))
    proc = _OU_CACHE.get(key)
    if proc is None:
        proc = OuProcess(seed, component, rate, dt)
        _OU_CACHE[key] = proc
    return proc


def temperedness_probe(ts, z, delta, exponent, horizon):
    """Series t -> exp(-delta*t) * |z(theta_{-t} omega)|^exponent on [0, horizon].

    `z[i]` is z(theta_{-t} omega) at t = `ts[i]`, with `ts` increasing from
    0.  The probe passes when the maximum of the series over the last 10% of
    the horizon sits below its initial value.
    """
    if delta <= 0 or horizon <= 0:
        raise ValueError("delta and horizon must be positive")
    series = np.exp(-delta * ts) * np.abs(z) ** exponent
    tail = series[ts >= 0.9 * horizon]
    passed = bool(np.max(tail) < series[0]) if series[0] > 0 else bool(np.max(tail) == 0.0)
    return series, passed
