import contextlib
import math
import re
from importlib import resources

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtri

from fhnrds import kernel, noise
from fhnrds.noise import (
    GridAlignmentError,
    NoiseSeed,
    OuProcess,
    WienerPath,
    stationary_variance,
    step_index,
    temperedness_probe,
    wiener_increment,
)


# the counter hash in numpy, the reference of the kernel's: a
# splitmix64-style finalizer over uint64 arrays, which wrap modulo 2**64
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x, tmp):
    """Finalize the uint64 array `x` in place; `tmp` is scratch of its shape."""
    for shift, mult in ((np.uint64(30), _M1), (np.uint64(27), _M2)):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= mult
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _key(seed, component, tag):
    with np.errstate(over="ignore"):
        key = np.array(np.uint64(seed) + _GOLDEN * np.uint64(component + 1) + np.uint64(tag))
        return _mix64(key, np.empty_like(key))


def uniform01(seed, component, k, tag):
    """Uniforms keyed by (seed, component, k, tag), one per k: the top 53 bits
    of the hash, offset by 2**-54, and at most 1 - 2**-53."""
    key = _key(seed, component, tag)
    x = np.array(k, dtype=np.int64).view(np.uint64)
    tmp = np.empty_like(x)
    x *= _GOLDEN
    x += key
    _mix64(x, tmp)
    x ^= key
    _mix64(x, tmp)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def _unxorshift(x, shift):
    """The x of y = x ^ (x >> shift), for a uint64 Python int y."""
    y = x
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unmix64(x):
    """The inverse of `_mix64` on a Python int: undo each xorshift and
    multiply by each multiplier's inverse modulo 2**64."""
    x = _unxorshift(x, 31)
    x = x * pow(int(_M2), -1, 2**64) % 2**64
    x = _unxorshift(x, 27)
    x = x * pow(int(_M1), -1, 2**64) % 2**64
    return _unxorshift(x, 30)


def step_of_hash(seed, component, tag, x):
    """The int64 step whose hash is the uint64 `x` in the stream (seed,
    component, tag): the hash run backwards."""
    key = int(_key(seed, component, tag))
    k = (_unmix64(_unmix64(x) ^ key) - key) * pow(int(_GOLDEN), -1, 2**64) % 2**64
    return k - 2**64 if k >= 2**63 else k


def step_of_uniform(seed, component, tag, y):
    """A step whose uniform is `y`, which must be one the hash can give."""
    for top in (int(y * 2.0**53), int(y * 2.0**53) - 1):
        k = step_of_hash(seed, component, tag, top << 11 | 0x5A5)
        if uniform01(seed, component, [k], tag)[0] == y:
            return k
    raise ValueError(f"no uniform of the hash is {y!r}")


def stationary_draw(proc, m):
    """The stationary draw that anchors block m of `proc`, from the reference hash."""
    u = uniform01(proc.seed.seed, proc.seed.component, m - 1, noise._TAG_INIT)
    return ndtri(u) * np.sqrt(stationary_variance(proc.rate))


def kernel_uniforms(seed, component, tag, ks):
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    out = np.empty(ks.shape)
    kernel.load().fhn_uniforms(seed, component, tag, ks.ctypes.data, ks.size, out.ctypes.data)
    return out


def kernel_ndtri(y, scale):
    y = np.ascontiguousarray(y, dtype=np.float64)
    out = np.empty(y.shape)
    kernel.load().fhn_ndtri(y.ctypes.data, y.size, scale, out.ctypes.data)
    return out


# (seed, component, steps): both components, the extreme seeds, steps of
# both signs and at the ends of int64, 1.1 million values in all
STREAMS = [
    (0, 1, np.arange(-250_000, 250_000)),
    (2**64 - 1, 2, np.arange(-250_000, 250_000)),
    (42, 1, np.concatenate([np.arange(-2**63, -2**63 + 1000), np.arange(2**63 - 1000, 2**63 - 1)])),
    (7, 2, np.random.default_rng(3).integers(-2**62, 2**62, 100_000)),
]


def ndtri_points():
    """Points where Cephes' ndtri changes its branch or runs out of precision:
    the tails from 2**-1 down to 2**-54, the hash's smallest uniform, and
    from 1 - 2**-1 up to 1 - 2**-53 and 1; forty neighbours on each side of
    exp(-2) and of 1 - exp(-2), where the middle rational hands over to the
    tails, and steps of y in the lower tail whose x = sqrt(-2 log y) lies on
    each side of 8, where the tail rationals change; and 200,000 points
    log-uniform in each tail, down to 2**-54 and up to 1 - 2**-53."""
    e2 = 0.13533528323661269189
    exponents = np.random.default_rng(11).uniform(-54.0, -1.0, (2, 200_000))
    ys = [2.0**-np.arange(1, 55), 1.0 - 2.0**-np.arange(1, 54), [0.0, 1.0],
          2.0 ** exponents[0], 1.0 - 2.0 ** np.maximum(exponents[1], -53.0)]
    for y in (e2, 1.0 - e2):
        down, up = [y], [y]
        for _ in range(40):
            down.append(np.nextafter(down[-1], 0.0))
            up.append(np.nextafter(up[-1], 1.0))
        ys += [down, up]
    at8 = math.exp(-32.0) * (1.0 + np.arange(-400, 400) * 2.0**-52)
    x = np.array([math.sqrt(-2.0 * math.log(y)) for y in at8])
    assert np.any(x < 8.0) and np.any(x >= 8.0)
    return np.concatenate([*ys, at8])


def test_kernel_hash_is_the_numpy_hash():
    for seed, component, ks in STREAMS:
        for tag in (noise._TAG_INCREMENT, noise._TAG_INIT):
            assert np.array_equal(kernel_uniforms(seed, component, tag, ks),
                                  uniform01(seed, component, ks, tag)), (seed, component, tag)


def test_kernel_ndtri_is_scipys():
    ys = ndtri_points()
    for scale in (1.0, np.sqrt(1e-3)):
        assert np.array_equal(kernel_ndtri(ys, scale), ndtri(ys) * scale), scale
    # ndtri(1) is infinite, as scipy's is; the hash never gives 1, where its
    # largest sum rounds (test_the_largest_hash_is_clamped_below_one)
    assert (1.0 - 2.0**-53) + 2.0**-54 == 1.0 and kernel_ndtri([1.0], 1.0)[0] == np.inf


def test_the_largest_hash_is_clamped_below_one():
    # the step whose hash has its top 53 bits all ones, found by running the
    # hash backwards: its uniform is 1 - 2**-53, not the 1 its sum rounds
    # to, so its draw is finite
    for seed, component in ((0, 1), (2**64 - 1, 2), (42, 1)):
        for tag in (noise._TAG_INCREMENT, noise._TAG_INIT):
            k = step_of_hash(seed, component, tag, 2**64 - 1)
            assert kernel_uniforms(seed, component, tag, [k])[0] == 1.0 - 2.0**-53
            assert uniform01(seed, component, [k], tag)[0] == 1.0 - 2.0**-53
            draw = noise._normals(NoiseSeed(seed, component), [k], tag, np.sqrt(1e-3))
            assert np.isfinite(draw[0]) and draw[0] == ndtri(1.0 - 2.0**-53) * np.sqrt(1e-3)
            # its neighbour below in the hash keeps its uniform
            below = step_of_hash(seed, component, tag, 2**64 - 1 - 2**11)
            assert kernel_uniforms(seed, component, tag, [below])[0] == (2.0**53 - 2) * 2.0**-53 + 2.0**-54


def test_increments_are_scipys_ndtri_of_the_numpy_hash():
    # the fused draw, bitwise scipy's ndtri of the reference uniform times
    # the scale: the increments at sqrt(dt), and an OU block's stationary
    # draw at its standard deviation
    for seed, component, ks in STREAMS:
        s = NoiseSeed(seed, component)
        u = uniform01(seed, component, ks, noise._TAG_INCREMENT)
        assert np.array_equal(wiener_increment(s, ks, 1e-3), ndtri(u) * np.sqrt(1e-3)), (seed, component)
        proc = OuProcess(seed, component, 2.0, 0.01)
        assert np.array_equal(noise._normals(s, ks[:1000], noise._TAG_INIT, np.sqrt(0.25)),
                              stationary_draw(proc, ks[:1000] + 1)), (seed, component)


def _define(name):
    """The value of `#define name` in the kernel source."""
    source = resources.files("fhnrds").joinpath("_step.c").read_text()
    return int(re.search(rf"^#define {name} (\d+)$", source, re.M).group(1))


def test_increments_at_the_chunk_edges():
    # fhn_increments hashes, inverts the middle and then the tails chunk by
    # chunk: counts on each side of one and two chunks, with the branch
    # neighbours of ndtri_points() and the largest hash at the first and
    # last lane of a chunk, each draw bitwise fhn_ndtri of fhn_uniforms and
    # scipy's ndtri of the reference hash, and nothing written past count
    chunk = _define("DRAW_CHUNK")
    seed, component, tag, scale = 2**64 - 1, 2, noise._TAG_INCREMENT, np.sqrt(1e-3)
    e2 = 0.13533528323661269189
    ys = [y for y in ndtri_points() if abs(y - e2) < 1e-14 or abs(y - (1.0 - e2)) < 1e-14]
    edges = []
    for y in ys:
        with contextlib.suppress(ValueError):  # a neighbour the hash cannot give
            edges.append(step_of_uniform(seed, component, tag, y))
    edges.append(step_of_hash(seed, component, tag, 2**64 - 1))
    assert len(edges) > 40
    lib = kernel.load()
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        for first, last in zip(edges, edges[::-1]):
            ks = np.arange(-(count // 2), count - count // 2, dtype=np.int64)
            for at in {0, chunk - 1, chunk, count - 1} & set(range(count)):
                ks[at] = first if at % chunk == 0 else last
            out = np.full(count + 1, 7.0)
            lib.fhn_increments(seed, component, tag, ks.ctypes.data, count, scale, out.ctypes.data)
            assert out[count] == 7.0, count
            u = uniform01(seed, component, ks, tag)
            assert np.array_equal(out[:count], kernel_ndtri(kernel_uniforms(seed, component, tag, ks), scale)), count
            assert np.array_equal(out[:count], ndtri(u) * scale), count


def test_each_kernel_build_draws_as_scipy(kernel_build):
    # conftest's `kernel_build`: the hash, ndtri and the fused draw of each build without clones
    test_kernel_hash_is_the_numpy_hash()
    test_kernel_ndtri_is_scipys()
    test_the_largest_hash_is_clamped_below_one()
    test_increments_are_scipys_ndtri_of_the_numpy_hash()
    test_increments_at_the_chunk_edges()


def test_wiener_increment_shape_and_seed_checks():
    # a scalar step gives a numpy scalar, an array its shape; a seed outside
    # the uint64 range of the hash is refused, not wrapped
    s = NoiseSeed(5, 1)
    assert isinstance(wiener_increment(s, 3, 1e-3), np.float64)
    ks = np.arange(-6, 6).reshape(3, 4)
    grid = wiener_increment(s, ks, 1e-3)
    assert grid.shape == (3, 4) and np.array_equal(grid.ravel(), wiener_increment(s, ks.ravel(), 1e-3))
    assert np.array_equal(wiener_increment(s, ks.T, 1e-3), grid.T)  # a strided view of the steps
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            NoiseSeed(seed, 1)


def test_step_index_snaps_grid_times():
    assert step_index(0.5, 1e-3) == 500
    assert step_index(-2.0, 1e-3) == -2000
    assert step_index(0.1 + 0.2, 1e-3) == 300  # float noise below tolerance


def test_step_index_rejects_offgrid():
    with pytest.raises(GridAlignmentError):
        step_index(0.0005, 1e-3)


def test_noise_seed_component_validation():
    with pytest.raises(ValueError):
        NoiseSeed(0, 3)


def test_wiener_increment_deterministic_and_pure():
    s = NoiseSeed(7, 1)
    a = wiener_increment(s, 12, 1e-3)
    b = wiener_increment(s, 12, 1e-3)
    assert a == b
    assert wiener_increment(s, np.array([12]), 1e-3)[0] == a


def test_wiener_increment_streams_independent():
    s1, s2 = NoiseSeed(7, 1), NoiseSeed(7, 2)
    ks = np.arange(1000)
    x = wiener_increment(s1, ks, 1.0)
    y = wiener_increment(s2, ks, 1.0)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.1


def test_wiener_increment_moments():
    s = NoiseSeed(3, 1)
    dt = 0.25
    x = wiener_increment(s, np.arange(200_000), dt)
    assert abs(x.mean()) < 5e-3
    assert abs(x.var() / dt - 1.0) < 2e-2


def test_wiener_increment_negative_steps():
    s = NoiseSeed(3, 2)
    x = wiener_increment(s, np.arange(-100, 0), 1e-3)
    assert np.all(np.isfinite(x))
    # backward extension never perturbs already-generated forward values
    fwd = wiener_increment(s, np.arange(100), 1e-3)
    assert np.array_equal(fwd, wiener_increment(s, np.arange(100), 1e-3))


def test_path_shift_group_law_exact():
    path = WienerPath(seed=5, dt=1e-3)
    stream = NoiseSeed(path.seed, 1)
    for s, t in [(0.25, 0.5), (-1.0, 0.75), (2.0, -0.5)]:
        shifted = path.shift(s)
        # the shifted path reads the exact same increment stream, bitwise
        k = step_index(t, path.dt)
        ks = np.arange(min(0, k), max(0, k))
        assert np.array_equal(
            wiener_increment(stream, shifted.offset + ks, path.dt),
            wiener_increment(stream, path.offset + step_index(s, path.dt) + ks, path.dt),
        )
    # composition of shifts is exact offset arithmetic
    assert path.shift(0.5).shift(0.25) == path.shift(0.75)


def test_stationary_variance():
    assert stationary_variance(2.0) == 0.25


def test_ou_values_pure_across_instances():
    a = OuProcess(seed=11, component=1, rate=1.0, dt=1e-3)
    b = OuProcess(seed=11, component=1, rate=1.0, dt=1e-3)
    va = a.values(-5000, 5000)
    vb = b.values(-5000, 5000)
    assert np.array_equal(va, vb)
    # overlapping queries agree bitwise with earlier ones
    assert np.array_equal(a.values(-100, 100), va[4900:5101])


def set_block_counts(monkeypatch, B, piece_blocks):
    """Set the value bound to the largest that gives a process of block
    length B this many blocks per piece, so the count is a floor."""
    assert piece_blocks >= 1, piece_blocks
    monkeypatch.setattr(noise, "_SOLVE_VALUES", (piece_blocks + 1) * (2 * B - 1) - 1)


def test_ou_block_counts_follow_the_value_bounds(monkeypatch):
    # the default bound: a piece holds as many windows as fit in its values,
    # odd counts too, whatever B is, down to one window per piece
    for rate, dt, piece in ((2.0, 0.01, 65), (1.0, 2e-3, 6), (1.0, 1e-3, 3), (1.0, 1e-4, 1),
                            (1.0, 1e-6, 1)):
        proc = OuProcess(seed=1, component=1, rate=rate, dt=dt)
        window = 2 * proc.B - 1
        assert proc.piece_blocks == piece, (rate, dt)
        assert piece * window <= noise._SOLVE_VALUES or piece == 1, (rate, dt)
        assert (piece + 1) * window > noise._SOLVE_VALUES, (rate, dt)
    B = OuProcess(seed=1, component=1, rate=2.0, dt=0.01).B
    for piece in (16, 3, 1):
        set_block_counts(monkeypatch, B, piece)
        assert OuProcess(seed=1, component=1, rate=2.0, dt=0.01).piece_blocks == piece


def filtered_block(proc, m):
    """Block m of `proc` as `lfilter` of its own 2B-1 step window, from the
    stationary draw one block earlier."""
    B, decay = proc.B, proc._decay
    ks = np.arange((m - 1) * B, (m + 1) * B - 1)
    y = lfilter([1.0], [1.0, -decay], proc._damp * wiener_increment(proc.seed, ks, proc.dt))
    return stationary_draw(proc, m) * decay ** np.arange(B, 2 * B) + y[B - 1 :]


@pytest.mark.parametrize("chunk", [1 << 14, 502, 1 << 8])
@pytest.mark.parametrize("B", [1, 2, 3, 1001])
def test_ou_kernel_fill_is_the_filter_of_each_window(monkeypatch, B, chunk):
    # the kernel's recursion is bitwise `lfilter` of each block's own window
    # of 2B-1 values, whose increments are hashed in chunks: for B = 1001,
    # one chunk of the default, four of 502 and eight of 256.  Each block is
    # checked as the lone block of its fill, in a piece of negative indices
    # or over both signs, and on both sides of a boundary between pieces
    # (pieces of two blocks, or of one) or between two fills of a read,
    # across which the B-1 increments the windows share are carried, not
    # drawn again
    monkeypatch.setattr(noise, "_CHUNK", chunk)
    default = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    set_block_counts(monkeypatch, B, 2)
    twos = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    set_block_counts(monkeypatch, B, 1)
    ones = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    assert default.B == twos.B == ones.B == B and (twos.piece_blocks, ones.piece_blocks) == (2, 1)
    for proc in (default, twos, ones):
        for fills in ([[-7]], [[0]], [[3]], [range(-5, 0)], [range(-3, 4)],
                      [range(-9, -5), range(-5, -1)], [range(-2, 1), range(1, 6)]):
            for ms in fills:
                proc._compute_blocks(ms)
                for m in ms:
                    block = filtered_block(proc, m)
                    assert np.array_equal(proc._blocks[m], block), (proc.piece_blocks, list(ms), m)


def test_ou_blocks_are_the_filter_of_each_window():
    # fhn_ou_blocks called directly: m = 1..9 windows, so every group of
    # OU_LANES and each size of the group left over, over anchor blocks of
    # non-zero values; each block is its anchor plus the last B values of
    # `lfilter` over its own window alone
    lanes = _define("OU_LANES")
    rng = np.random.default_rng(5)
    lib = kernel.load()
    for B in (1, 2, 7, 100):
        for m in range(1, 2 * lanes + 2):
            a = float(rng.uniform(0.5, 1.0))
            xi = rng.standard_normal((m + 1) * B - 1)
            anchors = rng.standard_normal((m, B))
            blocks = anchors.copy()
            lib.fhn_ou_blocks(xi.ctypes.data, m, B, a, blocks.ctypes.data)
            for i in range(m):
                y = lfilter([1.0], [1.0, -a], xi[i * B : i * B + 2 * B - 1])
                assert np.array_equal(blocks[i], anchors[i] + y[B - 1 :]), (B, m, i)


def test_each_kernel_build_fills_as_the_filter(kernel_build, monkeypatch):
    # conftest's `kernel_build`: the OU fill of each build without clones at B = 1001
    test_ou_kernel_fill_is_the_filter_of_each_window(monkeypatch, 1001, 1 << 14)
    test_ou_blocks_are_the_filter_of_each_window()


def test_ou_blocks_independent_of_fill_order(monkeypatch):
    # the fills below span more than two pieces of 16 blocks and read back
    # more blocks than a piece holds
    set_block_counts(monkeypatch, OuProcess(seed=8, component=1, rate=2.0, dt=0.01).B, 16)
    # block by block: each block hashes only its own 2B-1 window
    a = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    single = {}
    for m in range(-3, 4):
        a._compute_blocks([m])
        single[m] = a._blocks[m]
    # one batch over the span, after a fill of its middle block
    b = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    b._compute_blocks([1])
    b._compute_blocks(range(-3, 4))
    for m in range(-3, 4):
        assert np.array_equal(single[m], b._blocks[m]), m
    # a fill over more than two pieces, after a fill of its middle block:
    # each block is bitwise the first-order filter of its own window
    c = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    ms = range(-c.piece_blocks - 3, c.piece_blocks + 4)
    c._compute_blocks([0])
    c._compute_blocks(ms)
    for m in ms:
        assert np.array_equal(c._blocks[m], filtered_block(c, m)), m
    B, decay = c.B, c._decay
    # a fill over more than two pieces: each increment of its span is drawn
    # once, and each block is the filter of its window of the one span
    drawn = []
    real = noise.wiener_increment

    def counting(seed, k, dt):
        drawn.append(np.asarray(k).copy())
        return real(seed, k, dt)

    monkeypatch.setattr(noise, "wiener_increment", counting)
    proc = OuProcess(seed=9, component=2, rate=c.rate, dt=c.dt)  # the B and decay of c
    ms = range(-proc.piece_blocks - 7, proc.piece_blocks + 6)
    proc._compute_blocks(ms)
    span = np.arange((ms[0] - 1) * B, (ms[-1] + 1) * B - 1)
    assert np.array_equal(np.sort(np.concatenate(drawn)), span)
    xi = proc._damp * real(proc.seed, span, proc.dt)
    for i, m in enumerate(ms):
        y = lfilter([1.0], [1.0, -decay], xi[i * B : i * B + 2 * B - 1])
        assert np.array_equal(proc._blocks[m], stationary_draw(proc, m) * decay ** np.arange(B, 2 * B) + y[B - 1 :]), m


def test_ou_strided_values_are_the_full_read_strided(monkeypatch):
    # j0 off the block grid, the span over more than two pieces, strides
    # below, at and above the block length B
    B = OuProcess(seed=13, component=1, rate=2.0, dt=0.01).B
    set_block_counts(monkeypatch, B, 16)
    j0 = -(16 + 5) * B - 37
    j1 = (16 + 2) * B + 11
    full = OuProcess(seed=13, component=1, rate=2.0, dt=0.01).values(j0, j1)
    assert full.size == j1 - j0 + 1
    for stride in (1, 3, B - 1, B, B + 7, 3 * B + 1, j1 - j0, j1 - j0 + 5):
        proc = OuProcess(seed=13, component=1, rate=2.0, dt=0.01)
        assert np.array_equal(proc.values(j0, j1, stride), full[::stride]), stride
        assert np.array_equal(proc.values(j0 + 1, j1 - 2, stride), full[1:-2][::stride]), stride


def test_ou_within_block_recursion():
    proc = OuProcess(seed=4, component=2, rate=1.0, dt=1e-3)
    j0 = proc.B + 1  # strictly inside the second block
    z = proc.values(j0, j0 + 10)
    a = np.exp(-proc.rate * proc.dt)
    xi = proc._damp * wiener_increment(proc.seed, np.arange(j0, j0 + 10), proc.dt)
    np.testing.assert_allclose(z[1:], a * z[:-1] + xi, rtol=0, atol=1e-14)


def test_ou_stationary_variance_empirical():
    proc = OuProcess(seed=21, component=1, rate=1.0, dt=0.05)
    z = proc.values(0, 200_000)
    assert abs(z.var() / 0.5 - 1.0) < 0.05


def probe_samples(proc, horizon):
    # the samples `cli.cmd_noise` hands the probe: z at steps 0, -stride, ...
    n = step_index(horizon, proc.dt)
    ks = np.arange(0, n + 1, max(1, n // 500))
    return ks * proc.dt, proc.values(-int(ks[-1]), 0, max(1, n // 500))[::-1]


def test_temperedness_probe_decays():
    proc = OuProcess(33, 1, 1.0, 1e-2)
    ts, z = probe_samples(proc, 50.0)
    series, passed = temperedness_probe(ts, z, 1.0, 4.0, 50.0)
    assert passed
    assert series.shape == ts.shape
    assert np.max(series[ts >= 45.0]) < series[0]


def test_temperedness_probe_validation():
    ts, z = probe_samples(OuProcess(33, 1, 1.0, 1e-2), 10.0)
    with pytest.raises(ValueError):
        temperedness_probe(ts, z, -1.0, 2.0, 10.0)


def test_ou_reads_that_evict_and_refill_match_a_cold_read(monkeypatch):
    # a reference read in pieces of 16 blocks, then reads of one process in
    # pieces of two: spans over more than two pieces, strides below, at and
    # above B, reads that go back over blocks an earlier read filled, and one
    # read of several overlapping spans.  The process holds no block after
    # each read
    B = OuProcess(seed=17, component=2, rate=2.0, dt=0.01).B
    j0, j1 = -(16 + 3) * B - 5, (16 + 4) * B + 3
    set_block_counts(monkeypatch, B, 16)
    full = OuProcess(seed=17, component=2, rate=2.0, dt=0.01).values(j0, j1)
    set_block_counts(monkeypatch, B, 2)
    proc = OuProcess(seed=17, component=2, rate=2.0, dt=0.01)
    for a, b, stride in ((j0, j1, 1), (j0 + 7, j1 - 11, 3), (j0, j1, B), (j0 + 1, j1, B + 7),
                         (j0, j1, 3 * B + 1), (-B - 1, B + 2, 1), (j0, 0, 1), (j0, j1, 1)):
        assert np.array_equal(proc.values(a, b, stride), full[a - j0 : b - j0 + 1 : stride]), (a, b, stride)
        assert proc._blocks == {}
    spans = [(j0, j1, 5), (j0 + 3, 0, B - 1), (2 * B, j1, 1), (-5 * B, -5 * B, 1)]
    for (a, b, stride), z in zip(spans, proc.read(spans)):
        assert np.array_equal(z, full[a - j0 : b - j0 + 1 : stride]), (a, b, stride)
    assert proc._blocks == {}


def test_ou_read_fills_each_block_once(monkeypatch):
    # one read of two overlapping spans in two-block pieces fills each block
    # of their union once and draws each increment once
    set_block_counts(monkeypatch, OuProcess(seed=5, component=1, rate=2.0, dt=0.01).B, 2)
    drawn, filled = [], []
    real_draw, real_fill = noise.wiener_increment, OuProcess._compute_blocks

    def counting_draw(seed, k, dt):
        drawn.append(np.asarray(k).copy())
        return real_draw(seed, k, dt)

    def counting_fill(proc, ms):
        filled.extend(ms)
        return real_fill(proc, ms)

    monkeypatch.setattr(noise, "wiener_increment", counting_draw)
    monkeypatch.setattr(OuProcess, "_compute_blocks", counting_fill)
    proc = OuProcess(seed=5, component=1, rate=2.0, dt=0.01)
    B = proc.B
    proc.read([(-20 * B, 20 * B, 7), (-20 * B, 0, 11)])
    assert filled == list(range(-20, 21))
    assert np.array_equal(np.sort(np.concatenate(drawn)), np.arange(-21 * B, 21 * B - 1))


def test_ou_process_holds_no_block_after_a_read(monkeypatch):
    # the default bounds; strided, stride-1 and multi-span reads of one
    # process over more blocks than a piece, then a short one: a read holds
    # at most one group of `piece_blocks` blocks at a time, and none once it
    # returns
    proc = OuProcess(seed=3, component=1, rate=2.0, dt=0.01)
    B, piece = proc.B, proc.piece_blocks
    held = []
    real_fill = OuProcess._compute_blocks

    def holding_fill(proc, ms):
        real_fill(proc, ms)
        held.append(len(proc._blocks))

    monkeypatch.setattr(OuProcess, "_compute_blocks", holding_fill)
    last = 2 * piece + 10
    for spans in ([(-last * B, last * B, 37)], [(-last * B, last * B, 1)],
                  [(-last * B, -3 * B, 5), (B + 1, (last - 1) * B + 7, 1)], [(-2 * B, 3, 1)]):
        del held[:]
        proc.read(spans)
        assert held and max(held) <= piece, (spans, held)
        assert proc._blocks == {}, spans


def test_ou_read_overlapping_an_earlier_read_fills_all_it_covers(monkeypatch):
    # pieces of four blocks: after a read of blocks -9..2, a read of blocks
    # -1..4 draws the windows of all six again, and its values are bitwise
    # those of a fresh process
    B = OuProcess(seed=6, component=2, rate=2.0, dt=0.01).B
    set_block_counts(monkeypatch, B, 4)
    drawn = []
    real_draw = noise.wiener_increment

    def counting_draw(seed, k, dt):
        drawn.append(np.asarray(k).copy())
        return real_draw(seed, k, dt)

    monkeypatch.setattr(noise, "wiener_increment", counting_draw)
    for a, b, stride in ((-B + 17, 5 * B - 3, 1), (-B + 2, 5 * B - 1, 3)):
        proc = OuProcess(seed=6, component=2, rate=2.0, dt=0.01)
        proc.values(-9 * B + 3, 3 * B - 1)
        del drawn[:]
        z = proc.values(a, b, stride)
        assert np.array_equal(np.sort(np.concatenate(drawn)), np.arange(-2 * B, 5 * B - 1)), stride
        assert np.array_equal(z, OuProcess(seed=6, component=2, rate=2.0, dt=0.01).values(a, b, stride))
