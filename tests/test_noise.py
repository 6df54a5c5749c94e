import contextlib
import math
import os
import platform
import re
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

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
    return reference_ndtri(u) * np.sqrt(stationary_variance(proc.rate))


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


def kernel_log(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    kernel.load().fhn_log(x.ctypes.data, x.size, out.ctypes.data)
    return out


# the kernel's log and ndtri tails in Python floats, one IEEE operation at
# a time in the kernel's order: fdlibm's log, split by the bits of x
LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
LG = [6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
      2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
      1.479819860511658591e-01]
E2 = 0.13533528323661269189  # exp(-2), where ndtri's middle hands over to its tails
NDTRI_TAILS = {  # the rationals P, Q of x < 8 and of x >= 8
    False: ([4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4],
            [1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4]),
    True: ([3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
            1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
            3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9],
           [6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
            2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
            2.89247864745380683936E-6, 6.79019408009981274425E-9]),
}


def twin_log(x):
    """log of a finite float x > 0 as the kernel's LOG forms it."""
    k = 0
    if x < 2.0**-1022:
        x, k = x * 2.0**54, -54
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    hx = bits >> 32
    k += (hx >> 20) - 1023
    hx &= 0xFFFFF
    i = (hx + 0x95F64) & 0x100000
    k += i >> 20
    f = struct.unpack("<d", struct.pack("<q", (hx | (i ^ 0x3FF00000)) << 32 | (bits & 0xFFFFFFFF)))[0] - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6]))) + w * (LG[1] + w * (LG[3] + w * LG[5]))
    hfsq = 0.5 * f * f
    if 0x6147A <= hx <= 0x6B851:
        return k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
    return k * LN2_HI - ((s * (f - r) - k * LN2_LO) - f)


def twin_tail(u):
    """ndtri of a float u in a tail (0 < u <= E2 or 1 - E2 < u < 1), as the kernel forms it."""
    y = 1.0 - u if u > 1.0 - E2 else u
    x = math.sqrt(-2.0 * twin_log(y))
    x0 = x - twin_log(x) / x
    z = 1.0 / x
    P, Q = NDTRI_TAILS[x >= 8.0]
    p, q = P[0] * z + P[1], z + Q[0]
    for c in P[2:]:
        p = p * z + c
    for c in Q[1:]:
        q = q * z + c
    r = x0 - z * p / q
    return r if u > 1.0 - E2 else -r


_TWIN_TAILS = {}  # u -> twin_tail(u), shared by the pins of every build


def reference_ndtri(u):
    """The kernel's ndtri of the array `u` in (0, 1): scipy's in the middle,
    the Python twin in the tails."""
    u = np.asarray(u, dtype=np.float64)
    out = ndtri(u)
    tails = ~((u > E2) & (u <= 1.0 - E2))
    for i in np.flatnonzero(tails):
        y = float(u.flat[i])
        if y not in _TWIN_TAILS:
            _TWIN_TAILS[y] = twin_tail(y)
        out.flat[i] = _TWIN_TAILS[y]
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
    exponents = np.random.default_rng(11).uniform(-54.0, -1.0, (2, 200_000))
    ys = [2.0**-np.arange(1, 55), 1.0 - 2.0**-np.arange(1, 54), [0.0, 1.0],
          2.0 ** exponents[0], 1.0 - 2.0 ** np.maximum(exponents[1], -53.0)]
    for y in (E2, 1.0 - E2):
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
    # bitwise scipy's ndtri in the middle; in the tails, whose logs are the
    # kernel's own, bitwise the Python twin, and scipy's to 1e-15 relative
    ys = ndtri_points()
    mid = (ys > E2) & (ys <= 1.0 - E2)
    inner = (ys > 0.0) & (ys < 1.0)
    assert np.any(mid) and np.any(inner & ~mid)
    for scale in (1.0, np.sqrt(1e-3)):
        got = kernel_ndtri(ys, scale)
        assert np.array_equal(got[mid], ndtri(ys[mid]) * scale), scale
        assert np.array_equal(got[inner], reference_ndtri(ys[inner]) * scale), scale
        np.testing.assert_allclose(got[inner], ndtri(ys[inner]) * scale, rtol=1e-15, atol=0)
    # ndtri(0) and ndtri(1) are infinite, as scipy's are, and NaN outside
    # [0, 1]; the hash never gives 1, where its largest sum rounds
    # (test_the_largest_hash_is_clamped_below_one)
    assert (1.0 - 2.0**-53) + 2.0**-54 == 1.0
    assert np.array_equal(kernel_ndtri([0.0, 1.0, -0.5, 1.5, np.nan], 1.0),
                          [-np.inf, np.inf, np.nan, np.nan, np.nan], equal_nan=True)


def _log_points():
    """The arguments ndtri's tails give the kernel's log: y in [2**-54,
    exp(-2)], log-uniform, and x = sqrt(-2 log y) in [2, 9]. Its edges:
    powers of 2 (f = 0), the ends of fdlibm's band, subnormals."""
    rng = np.random.default_rng(12)
    band = [struct.unpack("<d", struct.pack("<q", (0x3FF00000 | hx) << 32 | low))[0] * 2.0**e
            for hx in (0x6147A - 1, 0x6147A, 0x6B851, 0x6B851 + 1) for low in (0, 2**32 - 1)
            for e in (-30, -3, 1, 2)]
    return np.concatenate([2.0 ** rng.uniform(-54.0, -2.0 / math.log(2.0), 60_000), rng.uniform(2.0, 9.0, 60_000),
                           2.0 ** np.arange(-54.0, 4.0), band, [5e-324, 1e-310, 2.0**-1022, 1.0]])


def test_kernel_log_is_the_python_twin():
    xs = _log_points()
    assert np.array_equal(kernel_log(xs), [twin_log(float(x)) for x in xs])


def test_kernel_log_is_within_one_ulp():
    # within 1 ulp of log to 80 bits
    mpmath = pytest.importorskip("mpmath")
    xs = _log_points()
    got = kernel_log(xs)
    with mpmath.workprec(80):
        ulps = [abs((mpmath.mpf(float(v)) - e) / math.ulp(float(e))) if e else abs(v)
                for v, e in zip(got, (mpmath.log(float(x)) for x in xs))]
    assert max(ulps) < 1.0, max(ulps)


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
            assert np.isfinite(draw[0]) and draw[0] == reference_ndtri(1.0 - 2.0**-53) * np.sqrt(1e-3)
            # its neighbour below in the hash keeps its uniform
            below = step_of_hash(seed, component, tag, 2**64 - 1 - 2**11)
            assert kernel_uniforms(seed, component, tag, [below])[0] == (2.0**53 - 2) * 2.0**-53 + 2.0**-54


def test_increments_are_scipys_ndtri_of_the_numpy_hash():
    # the fused draw, bitwise the reference ndtri (scipy's in the middle,
    # the twin in the tails) of the reference uniform times the scale: the
    # increments at sqrt(dt), and an OU block's stationary draw at its
    # standard deviation
    for seed, component, ks in STREAMS:
        s = NoiseSeed(seed, component)
        u = uniform01(seed, component, ks, noise._TAG_INCREMENT)
        assert np.array_equal(wiener_increment(s, ks, 1e-3), reference_ndtri(u) * np.sqrt(1e-3)), (seed, component)
        proc = OuProcess(seed, component, 2.0, 0.01)
        assert np.array_equal(noise._normals(s, ks[:1000], noise._TAG_INIT, np.sqrt(0.25)),
                              stationary_draw(proc, ks[:1000] + 1)), (seed, component)


def _define(name):
    """The value of `#define name` in the kernel source."""
    source = resources.files("fhnrds").joinpath("_step.c").read_text()
    return int(re.search(rf"^#define {name} (\d+)$", source, re.M).group(1))


def test_increments_at_the_chunk_edges():
    # fhn_increments hashes, inverts the middle and then the tails chunk by
    # chunk, the tails four lanes at a time: counts on each side of one and
    # two chunks, with the branch neighbours of ndtri_points() and the
    # largest hash at the first and last lane of a chunk, each draw bitwise
    # fhn_ndtri of fhn_uniforms and the reference ndtri of the reference
    # hash, and nothing written past count
    chunk = _define("DRAW_CHUNK")
    seed, component, tag, scale = 2**64 - 1, 2, noise._TAG_INCREMENT, np.sqrt(1e-3)
    ys = [y for y in ndtri_points() if abs(y - E2) < 1e-14 or abs(y - (1.0 - E2)) < 1e-14]
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
            assert np.array_equal(out[:count], reference_ndtri(u) * scale), count
    # the 160 smallest uniforms of the hash and the 160 largest, interleaved,
    # each run of four lanes of the tails mixing x < 8 and x >= 8, where the
    # tails' rational changes, each draw bitwise the reference
    tops = np.arange(160)
    ys = np.stack([tops * 2.0**-53 + 2.0**-54, (2.0**53 - 1 - tops) * 2.0**-53 + 2.0**-54], axis=1)
    ys = np.minimum(ys.ravel(), 1.0 - 2.0**-53)
    x = np.sqrt(-2.0 * np.log(np.minimum(ys, 1.0 - ys)))
    assert np.any(x < 8.0) and np.any(x >= 8.0)
    ks = np.array([step_of_uniform(seed, component, tag, y) for y in ys], dtype=np.int64)
    out = np.empty(ks.size)
    lib.fhn_increments(seed, component, tag, ks.ctypes.data, ks.size, scale, out.ctypes.data)
    assert np.array_equal(out, reference_ndtri(ys) * scale)


def test_each_kernel_build_draws_as_scipy(kernel_build):
    # conftest's `kernel_build`: the hash, ndtri, its log and the fused draw
    # of each build without clones
    test_kernel_hash_is_the_numpy_hash()
    test_kernel_ndtri_is_scipys()
    xs = np.concatenate([2.0 ** np.linspace(-54.0, -2.9, 5001), np.linspace(2.0, 9.0, 5001)])
    assert np.array_equal(kernel_log(xs), [twin_log(float(x)) for x in xs])
    test_the_largest_hash_is_clamped_below_one()
    test_increments_are_scipys_ndtri_of_the_numpy_hash()
    test_increments_at_the_chunk_edges()


# the steps below 2**22 of the stream (42, 1, increments) whose draws
# moved between glibc's FMA and non-FMA `log`, while the draws called
# libm's (found under GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA)
FMA_STEPS = [409499, 729841, 1152572, 1184117, 1362508, 1363242, 1507123, 1520385, 1562978,
             1623206, 2098260, 2343072, 2468907, 2568589, 2769248, 3283473, 3840460, 4191412]

# the draws at the steps given and the OU values of the block that holds
# the first (at rate 1 and dt 1e-3), the hex of their bytes and of their
# hash, and `fhnrds noise` at its defaults (horizon 40) into the directory
# given
NOISE_PROBE = f"""
import hashlib, sys
import numpy as np
from fhnrds import cli, kernel
from fhnrds.noise import OuProcess
ks = np.array(sys.argv[2:], dtype=np.int64)
draws = np.empty(ks.size)
kernel.load().fhn_increments(42, 1, {noise._TAG_INCREMENT}, ks.ctypes.data, ks.size, 1.0, draws.ctypes.data)
z = OuProcess(42, 1, 1.0, 1e-3).values(ks[0] // 20_000 * 20_000, (ks[0] // 20_000 + 1) * 20_000)
assert cli.main(["noise", "--out", sys.argv[1]]) in (0, 1)
print(draws.tobytes().hex(), hashlib.sha256(z.tobytes()).hexdigest())
"""

# the settings of CI's `emulated-cpu` job
EMULATED_CPUS = [
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
]


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the settings name x86-64 CPUs")
def test_noise_does_not_depend_on_the_cpu(tmp_path):
    # the draws call no libm function and the OU powers are products in a
    # fixed order, so under each emulated CPU the draws where glibc's two
    # `log`s disagree, the OU values they drive and `ou_series.csv` are
    # byte-identical to the default run's.  While the draws called glibc's
    # `log`, the draws and 360 of the 20,001 OU values moved under its hwcaps
    # setting
    src = str(Path(noise.__file__).resolve().parents[1])

    def run(name, **setting):
        env = dict(os.environ, **setting,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", NOISE_PROBE, str(tmp_path / name), *map(str, FMA_STEPS)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return *done.stdout.split()[-2:], (tmp_path / name / "ou_series.csv").read_bytes()

    default = run("default")
    ks = np.array(FMA_STEPS)
    u = uniform01(42, 1, ks, noise._TAG_INCREMENT)
    assert bytes.fromhex(default[0]) == reference_ndtri(u).tobytes()
    assert np.all((u <= E2) | (u > 1.0 - E2))  # all in the tails, where the logs are
    for i, setting in enumerate(EMULATED_CPUS):
        assert run(f"cpu{i}", **setting) == default, setting


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


def decay_powers(a, B):
    """a^B, ..., a^(2B-1) as the kernel forms them: a^B by squaring, over
    the bits of B from the lowest, then one product by a each."""
    a, power, square, e = float(a), 1.0, float(a), B
    while e:
        if e & 1:
            power = power * square
        square = square * square
        e >>= 1
    powers = [power]
    for _ in range(B - 1):
        powers.append(powers[-1] * a)
    return np.array(powers)


def filtered_block(proc, m):
    """Block m of `proc` as `lfilter` of its own 2B-1 step window, from the
    stationary draw one block earlier."""
    B, decay = proc.B, proc._decay
    ks = np.arange((m - 1) * B, (m + 1) * B - 1)
    y = lfilter([1.0], [1.0, -decay], proc._damp * wiener_increment(proc.seed, ks, proc.dt))
    return stationary_draw(proc, m) * decay_powers(decay, B) + y[B - 1 :]


def count_ou_draws(monkeypatch):
    """The steps whose increments each `fhn_ou_fill` call of this process
    draws, one array per call: the piece's window span, less the B-1 it
    carries from the piece before."""
    lib = kernel.load()
    real, drawn = lib.fhn_ou_fill, []

    def counting(seed, component, tag, tag_init, first, count, B, carried, *rest):
        drawn.append(np.arange((first - 1) * B + (B - 1 if carried else 0), (first + count) * B - 1))
        return real(seed, component, tag, tag_init, first, count, B, carried, *rest)

    monkeypatch.setattr(lib, "fhn_ou_fill", counting)
    return drawn


@pytest.mark.parametrize("values", [1 << 14, 502, 1 << 8])
@pytest.mark.parametrize("B", [1, 2, 3, 1001])
def test_ou_kernel_fill_is_the_filter_of_each_window(monkeypatch, B, values):
    # the kernel's recursion is bitwise `lfilter` of each block's own window
    # of 2B-1 values, whose increments the kernel draws 512 at a time: for
    # B = 1001, four chunks a window.  Each block is checked as the lone
    # block of its fill, in a piece of negative indices or over both signs,
    # and on both sides of a boundary between pieces (of the bound `values`
    # on a piece's window values, of two blocks, or of one) or between two
    # fills of a read, across which the B-1 increments the windows share are
    # carried, not drawn again
    default = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    monkeypatch.setattr(noise, "_SOLVE_VALUES", values)
    bound = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    set_block_counts(monkeypatch, B, 2)
    twos = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    set_block_counts(monkeypatch, B, 1)
    ones = OuProcess(seed=8, component=2, rate=1.0, dt=20.0 / B)
    assert default.B == bound.B == twos.B == ones.B == B and (twos.piece_blocks, ones.piece_blocks) == (2, 1)
    assert bound.piece_blocks == max(1, values // (2 * B - 1))
    for proc in (default, bound, twos, ones):
        for fills in ([[-7]], [[0]], [[3]], [range(-5, 0)], [range(-3, 4)],
                      [range(-9, -5), range(-5, -1)], [range(-2, 1), range(1, 6)]):
            for ms in fills:
                proc._compute_blocks(ms)
                for m in ms:
                    block = filtered_block(proc, m)
                    assert np.array_equal(proc._blocks[m], block), (proc.piece_blocks, list(ms), m)


def test_ou_blocks_are_the_filter_of_each_window():
    # fhn_ou_fill called directly: m = 1..9 windows, so every group of
    # OU_LANES and each size of the group left over; each block is its
    # decayed anchor plus the last B values of `lfilter` over its own window
    # alone.  Carried, the fill draws none of the first B-1 values of its
    # scratch and filters what the scratch holds there; it leaves its last
    # B-1 increments there
    lanes = _define("OU_LANES")
    rng = np.random.default_rng(5)
    lib = kernel.load()
    for B in (1, 2, 7, 100):
        for m in range(1, 2 * lanes + 2):
            first, a, scale, damp = int(rng.integers(-50, 50)), *rng.uniform(0.5, 1.0, 3)
            seed, sd = NoiseSeed(9, 1), 0.7
            xi = damp * noise._normals(seed, np.arange((first - 1) * B, (first + m) * B - 1), noise._TAG_INCREMENT, scale)
            carried = rng.standard_normal(B - 1)
            for carry in (0, 1):
                scratch = np.concatenate([carried, np.full(m * B, np.nan)])
                blocks = np.empty((m, B))
                lib.fhn_ou_fill(seed.seed, seed.component, noise._TAG_INCREMENT, noise._TAG_INIT, first, m, B,
                                carry, scale, damp, a, sd, scratch.ctypes.data, blocks.ctypes.data)
                window = np.concatenate([carried, xi[B - 1 :]]) if carry else xi
                assert np.array_equal(scratch[: B - 1], window[m * B :]), (B, m, carry)
                anchors = noise._normals(seed, np.arange(first - 1, first + m - 1), noise._TAG_INIT, sd)
                for i in range(m):
                    y = lfilter([1.0], [1.0, -a], window[i * B : i * B + 2 * B - 1])
                    assert np.array_equal(blocks[i], anchors[i] * decay_powers(a, B) + y[B - 1 :]), (B, m, i, carry)


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
    drawn = count_ou_draws(monkeypatch)
    proc = OuProcess(seed=9, component=2, rate=c.rate, dt=c.dt)  # the B and decay of c
    ms = range(-proc.piece_blocks - 7, proc.piece_blocks + 6)
    proc._compute_blocks(ms)
    span = np.arange((ms[0] - 1) * B, (ms[-1] + 1) * B - 1)
    assert len(drawn) == 3 and np.array_equal(np.sort(np.concatenate(drawn)), span)
    xi = proc._damp * wiener_increment(proc.seed, span, proc.dt)
    for i, m in enumerate(ms):
        y = lfilter([1.0], [1.0, -decay], xi[i * B : i * B + 2 * B - 1])
        assert np.array_equal(proc._blocks[m], stationary_draw(proc, m) * decay_powers(decay, B) + y[B - 1 :]), m


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
    # two disjoint spans: the first group holds a piece of one block and
    # one of the next span, so the second group's piece of two carries the
    # B-1 increments into a larger scratch
    for spans in ([(j0, j1, 5), (j0 + 3, 0, B - 1), (2 * B, j1, 1), (-5 * B, -5 * B, 1)],
                  [(j0, j0, 1), (-5 * B, -B, 3)]):
        for (a, b, stride), z in zip(spans, proc.read(spans)):
            assert np.array_equal(z, full[a - j0 : b - j0 + 1 : stride]), (a, b, stride)
        assert proc._blocks == {}


def test_ou_read_fills_each_block_once(monkeypatch):
    # one read of two overlapping spans in two-block pieces fills each block
    # of their union once and draws each increment once
    set_block_counts(monkeypatch, OuProcess(seed=5, component=1, rate=2.0, dt=0.01).B, 2)
    drawn, filled = count_ou_draws(monkeypatch), []
    real_fill = OuProcess._compute_blocks

    def counting_fill(proc, ms):
        filled.extend(ms)
        return real_fill(proc, ms)

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
    drawn = count_ou_draws(monkeypatch)
    for a, b, stride in ((-B + 17, 5 * B - 3, 1), (-B + 2, 5 * B - 1, 3)):
        proc = OuProcess(seed=6, component=2, rate=2.0, dt=0.01)
        proc.values(-9 * B + 3, 3 * B - 1)
        del drawn[:]
        z = proc.values(a, b, stride)
        assert np.array_equal(np.sort(np.concatenate(drawn)), np.arange(-2 * B, 5 * B - 1)), stride
        assert np.array_equal(z, OuProcess(seed=6, component=2, rate=2.0, dt=0.01).values(a, b, stride))
