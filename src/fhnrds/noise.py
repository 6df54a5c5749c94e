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
from scipy.signal import lfilter
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


def _mix64(x):
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _uniform01(seed, component, k, tag):
    """Deterministic uniform in (0,1) keyed by (seed, component, k, tag)."""
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed) + _GOLDEN * np.uint64(component + 1) + tag)
        kk = np.asarray(k).astype(np.int64).astype(np.uint64)
        v = _mix64(key ^ _mix64(kk * _GOLDEN + key))
    # 53-bit mantissa, offset keeps the value strictly inside (0,1)
    return (v >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


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
    stream, so shifting the path is just an index offset and the shift
    group law holds exactly on the grid.
    """

    seed: int
    dt: float
    offset: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def increments(self, component, k0, k1):
        """Increments for relative steps k0 <= k < k1 (absolute offset applied)."""
        ks = np.arange(self.offset + k0, self.offset + k1, dtype=np.int64)
        return wiener_increment(NoiseSeed(self.seed, component), ks, self.dt)

    def shift(self, s):
        """theta_s omega: the path t -> omega(s + t) - omega(s)."""
        return WienerPath(self.seed, self.dt, self.offset + step_index(s, self.dt))


def stationary_variance(rate):
    return 1.0 / (2.0 * rate)


class OuProcess:
    """Stationary OU process z(theta_t omega) driven by one Wiener component.

    Values are indexed by the absolute step of the underlying counter stream,
    which makes z a pure function of (seed, component, rate, step).  Each
    block of `B = 20/(rate*dt)` steps is produced by the exact-decay
    recursion anchored one block earlier at an independent stationary draw,
    so the initialization error is bounded by exp(-20) while any two
    evaluations of the same step agree bitwise -- the property the cocycle
    law test relies on.
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
        self._blocks = {}

    def _stationary_draw(self, anchor_index):
        u = _uniform01(self.seed.seed, self.seed.component, anchor_index, _TAG_INIT)
        return float(ndtri(u)) * np.sqrt(stationary_variance(self.rate))

    def _compute_blocks(self, ms):
        """Fill the cache for the block indices in `ms` with one batched filter."""
        ms = sorted(m for m in ms if m not in self._blocks)
        if not ms:
            return
        B = self.B
        # block m filters the 2B-1 increments from step (m-1)*B; consecutive
        # windows overlap by B-1 steps, so each increment of the span is
        # drawn once and the windows are views into it
        ks = np.arange((ms[0] - 1) * B, (ms[-1] + 1) * B - 1, dtype=np.int64)
        xi = self._damp * wiener_increment(self.seed, ks, self.dt)
        windows = np.lib.stride_tricks.sliding_window_view(xi, 2 * B - 1)[::B]
        if len(ms) != len(windows):  # holes: keep only the missing blocks
            windows = windows[[m - ms[0] for m in ms]]
        a = self._decay
        y = lfilter([1.0], [1.0, -a], windows, axis=1)
        # y[i, n] = sum_{j<=n} a^(n-j) xi_j is the forced part of z at step
        # anchor + n + 1, so steps m*B .. (m+1)*B - 1 are n = B-1 .. 2B-2
        pows = a ** np.arange(B, 2 * B)
        for i, m in enumerate(ms):
            z0 = self._stationary_draw(m - 1)
            self._blocks[m] = z0 * pows + y[i, B - 1 : 2 * B - 1]

    def values(self, j0, j1):
        """z at absolute steps j0..j1 inclusive."""
        m0 = j0 // self.B
        m1 = j1 // self.B
        self._compute_blocks(range(m0, m1 + 1))
        out = np.concatenate([self._blocks[m] for m in range(m0, m1 + 1)])
        return out[j0 - m0 * self.B : j0 - m0 * self.B + (j1 - j0 + 1)]

    def at_step(self, j):
        return float(self.values(j, j)[0])


_OU_CACHE = {}


def get_ou(seed, component, rate, dt):
    """Shared OuProcess cache; values are pure so sharing is safe."""
    key = (seed, component, float(rate), float(dt))
    proc = _OU_CACHE.get(key)
    if proc is None:
        proc = OuProcess(seed, component, rate, dt)
        _OU_CACHE[key] = proc
    return proc


def temperedness_probe(proc, delta, exponent, horizon, stride=None):
    """Series t -> exp(-delta*t) * |z(theta_{-t} omega)|^exponent on [0, horizon].

    Passes when the maximum over the last 10% of the horizon sits below the
    initial value of the series.
    """
    if delta <= 0 or horizon <= 0:
        raise ValueError("delta and horizon must be positive")
    dt = proc.dt
    n = step_index(horizon, dt)
    stride = stride or max(1, n // 500)
    js = np.arange(0, n + 1, stride)
    z = proc.values(-int(js[-1]), 0)[::-1][js]  # z at steps -js
    ts = js * dt
    series = np.exp(-delta * ts) * np.abs(z) ** exponent
    tail = series[ts >= 0.9 * horizon]
    passed = bool(np.max(tail) < series[0]) if series[0] > 0 else bool(np.max(tail) == 0.0)
    return ts, series, passed
