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


def set_block_counts(monkeypatch, B, piece_blocks):
    """Set the value bound to the largest that gives a process of block
    length B this many blocks per piece, an even count, so the count is a
    floor."""
    assert piece_blocks % 2 == 0, piece_blocks
    monkeypatch.setattr(noise, "_SOLVE_VALUES", (piece_blocks + 2) * (2 * B - 1) - 1)


def test_ou_block_counts_follow_the_value_bounds(monkeypatch):
    # the default bound: a piece's windows stay within its values whatever
    # B is, in pairs, down to one pair per piece
    for rate, dt, piece in ((2.0, 0.01, 64), (1.0, 2e-3, 6), (1.0, 1e-3, 2), (1.0, 1e-4, 2),
                            (1.0, 1e-6, 2)):
        proc = OuProcess(seed=1, component=1, rate=rate, dt=dt)
        assert proc.piece_blocks == piece, (rate, dt)
        assert proc.piece_blocks * (2 * proc.B - 1) <= noise._SOLVE_VALUES or piece == 2
    B = OuProcess(seed=1, component=1, rate=2.0, dt=0.01).B
    set_block_counts(monkeypatch, B, 16)
    assert OuProcess(seed=1, component=1, rate=2.0, dt=0.01).piece_blocks == 16


def filtered_block(proc, m):
    """Block m of `proc` as `lfilter` of its own 2B-1 step window, from the
    stationary draw one block earlier."""
    B, decay = proc.B, proc._decay
    ks = np.arange((m - 1) * B, (m + 1) * B - 1)
    y = lfilter([1.0], [1.0, -decay], proc._damp * wiener_increment(proc.seed, ks, proc.dt))
    u = noise._uniform01(proc.seed.seed, proc.seed.component, m - 1, noise._TAG_INIT)
    z0 = float(ndtri(u)) * np.sqrt(stationary_variance(proc.rate))
    return z0 * decay ** np.arange(B, 2 * B) + y[B - 1 :]


@pytest.mark.parametrize("chunk", [1 << 14, 502, 1 << 8])
def test_ou_paired_chunked_sweep_is_the_filter_of_each_window(monkeypatch, chunk):
    # B = 1001, so a window has 2001 values: one chunk of the default, four
    # of 502 whose third starts at the block's first value (step B - 1), and
    # eight of 256.  Each block is bitwise `lfilter` of its own window when
    # it is the lone window of its fill (a pair with zeros), or one of an odd
    # or even piece of negative indices, or of an odd piece over both signs
    monkeypatch.setattr(noise, "_CHUNK", chunk)
    proc = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / 1001)
    assert proc.B == 1001 and proc.piece_blocks == 64
    for fills in ([[-7]], [[0]], [[3]], [range(-5, 0)], [range(-9, -5)], [range(-3, 4)]):
        for ms in fills:
            proc._compute_blocks(ms)
        for m in ms:
            assert np.array_equal(proc._blocks[m], filtered_block(proc, m)), (chunk, list(ms), m)


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
    sd = np.sqrt(stationary_variance(c.rate))
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
        u = noise._uniform01(proc.seed.seed, proc.seed.component, m - 1, noise._TAG_INIT)
        z0 = float(ndtri(u)) * sd
        assert np.array_equal(proc._blocks[m], z0 * decay ** np.arange(B, 2 * B) + y[B - 1 :]), m


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
