import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtri

from fhnrds import noise
from fhnrds.noise import (
    GridAlignmentError,
    NoiseSeed,
    OuProcess,
    WienerPath,
    get_ou,
    stationary_variance,
    step_index,
    temperedness_probe,
    wiener_increment,
)


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


def test_ou_blocks_independent_of_fill_order(monkeypatch):
    # the fills below read back more blocks than the cache keeps
    monkeypatch.setattr(noise, "_CACHE_BLOCKS", 4 * noise._SOLVE_CHUNK)
    # block by block: each block hashes only its own 2B-1 window
    a = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    for m in range(-3, 4):
        a._compute_blocks([m])
    # one batch over a span whose middle block is already cached
    b = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    b._compute_blocks([1])
    b._compute_blocks(range(-3, 4))
    for m in range(-3, 4):
        assert np.array_equal(a._blocks[m], b._blocks[m]), m
    # a fill over more than one solve chunk with a cached block in the middle:
    # each block is bitwise the first-order filter of its own window
    c = OuProcess(seed=8, component=1, rate=2.0, dt=0.01)
    ms = range(-noise._SOLVE_CHUNK - 3, noise._SOLVE_CHUNK + 4)
    c._compute_blocks([0])
    c._compute_blocks(ms)
    B, decay = c.B, c._decay
    sd = np.sqrt(stationary_variance(c.rate))
    for m in ms:
        ks = np.arange((m - 1) * B, (m + 1) * B - 1)
        y = lfilter([1.0], [1.0, -decay], c._damp * wiener_increment(c.seed, ks, c.dt))
        u = noise._uniform01(c.seed.seed, c.seed.component, m - 1, noise._TAG_INIT)
        z0 = float(ndtri(u)) * sd
        assert np.array_equal(c._blocks[m], z0 * decay ** np.arange(B, 2 * B) + y[B - 1 :]), m
    # a fill over more than two pieces: each increment of its span is drawn
    # once, and each block is the filter of its window of the one span
    drawn = []
    real = noise.wiener_increment

    def counting(seed, k, dt):
        drawn.append(np.asarray(k).copy())
        return real(seed, k, dt)

    monkeypatch.setattr(noise, "wiener_increment", counting)
    proc = OuProcess(seed=9, component=2, rate=c.rate, dt=c.dt)  # the B and decay of c
    ms = range(-noise._SOLVE_CHUNK - 7, noise._SOLVE_CHUNK + 6)
    proc._compute_blocks(ms)
    span = np.arange((ms[0] - 1) * B, (ms[-1] + 1) * B - 1)
    assert np.array_equal(np.sort(np.concatenate(drawn)), span)
    xi = proc._damp * real(proc.seed, span, proc.dt)
    for i, m in enumerate(ms):
        y = lfilter([1.0], [1.0, -decay], xi[i * B : i * B + 2 * B - 1])
        u = noise._uniform01(proc.seed.seed, proc.seed.component, m - 1, noise._TAG_INIT)
        z0 = float(ndtri(u)) * sd
        assert np.array_equal(proc._blocks[m], z0 * decay ** np.arange(B, 2 * B) + y[B - 1 :]), m


def test_ou_strided_values_are_the_full_read_strided():
    # j0 off the block grid, the span over more than two pieces of a fill,
    # strides below, at and above the block length B
    B = OuProcess(seed=13, component=1, rate=2.0, dt=0.01).B
    j0 = -(noise._SOLVE_CHUNK + 5) * B - 37
    j1 = (noise._SOLVE_CHUNK + 2) * B + 11
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


def test_get_ou_caches():
    assert get_ou(1, 1, 1.0, 1e-3) is get_ou(1, 1, 1.0, 1e-3)
    assert get_ou(1, 1, 1.0, 1e-3) is not get_ou(1, 2, 1.0, 1e-3)


def probe_samples(proc, horizon):
    # the samples `cli.cmd_noise` hands the probe: z at steps 0, -stride, ...
    n = step_index(horizon, proc.dt)
    ks = np.arange(0, n + 1, max(1, n // 500))
    return ks * proc.dt, proc.values(-int(ks[-1]), 0, max(1, n // 500))[::-1]


def test_temperedness_probe_decays():
    proc = get_ou(33, 1, 1.0, 1e-2)
    ts, z = probe_samples(proc, 50.0)
    series, passed = temperedness_probe(ts, z, 1.0, 4.0, 50.0)
    assert passed
    assert series.shape == ts.shape
    assert np.max(series[ts >= 45.0]) < series[0]


def test_temperedness_probe_validation():
    ts, z = probe_samples(get_ou(33, 1, 1.0, 1e-2), 10.0)
    with pytest.raises(ValueError):
        temperedness_probe(ts, z, -1.0, 2.0, 10.0)


def test_ou_reads_that_evict_and_refill_match_a_cold_read(monkeypatch):
    # a reference read with room for every block, then reads through a
    # two-block cache: spans over more than two pieces, strides below, at
    # and above B, reads that go back over dropped blocks, and one read of
    # several overlapping spans
    B = OuProcess(seed=17, component=2, rate=2.0, dt=0.01).B
    j0, j1 = -(noise._SOLVE_CHUNK + 3) * B - 5, (noise._SOLVE_CHUNK + 4) * B + 3
    monkeypatch.setattr(noise, "_CACHE_BLOCKS", 10**6)
    full = OuProcess(seed=17, component=2, rate=2.0, dt=0.01).values(j0, j1)
    monkeypatch.setattr(noise, "_CACHE_BLOCKS", 2)
    proc = OuProcess(seed=17, component=2, rate=2.0, dt=0.01)
    for a, b, stride in ((j0, j1, 1), (j0 + 7, j1 - 11, 3), (j0, j1, B), (j0 + 1, j1, B + 7),
                         (j0, j1, 3 * B + 1), (-B - 1, B + 2, 1), (j0, 0, 1), (j0, j1, 1)):
        assert np.array_equal(proc.values(a, b, stride), full[a - j0 : b - j0 + 1 : stride]), (a, b, stride)
        assert len(proc._blocks) <= 2
    spans = [(j0, j1, 5), (j0 + 3, 0, B - 1), (2 * B, j1, 1), (-5 * B, -5 * B, 1)]
    for (a, b, stride), z in zip(spans, proc.read(spans)):
        assert np.array_equal(z, full[a - j0 : b - j0 + 1 : stride]), (a, b, stride)


def test_ou_read_fills_each_block_once(monkeypatch):
    # one read of two overlapping spans through a two-block cache fills each
    # block of their union once and draws each increment once
    monkeypatch.setattr(noise, "_CACHE_BLOCKS", 2)
    drawn, filled = [], []
    real_draw, real_fill = noise.wiener_increment, OuProcess._compute_blocks

    def counting_draw(seed, k, dt):
        drawn.append(np.asarray(k).copy())
        return real_draw(seed, k, dt)

    def counting_fill(proc, ms):
        filled.extend(m for m in ms if m not in proc._blocks)
        return real_fill(proc, ms)

    monkeypatch.setattr(noise, "wiener_increment", counting_draw)
    monkeypatch.setattr(OuProcess, "_compute_blocks", counting_fill)
    proc = OuProcess(seed=5, component=1, rate=2.0, dt=0.01)
    B = proc.B
    proc.read([(-20 * B, 20 * B, 7), (-20 * B, 0, 11)])
    assert filled == list(range(-20, 21))
    assert np.array_equal(np.sort(np.concatenate(drawn)), np.arange(-21 * B, 21 * B - 1))


def test_ou_long_strided_read_keeps_the_cache_bounded():
    proc = OuProcess(seed=3, component=1, rate=2.0, dt=0.01)
    proc.values(-100 * proc.B, 100 * proc.B, 37)
    assert len(proc._blocks) == noise._CACHE_BLOCKS
    assert list(proc._blocks) == list(range(101 - noise._CACHE_BLOCKS, 101))
