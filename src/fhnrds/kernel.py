"""The compiled kernel (`_step.c`), built on first use and loaded with ctypes:
the IMEX step of `model`, with the 1-D tridiagonal solve, the norm sums of
`fields`, which `model`'s records take too, and the OU block fill and the
Gaussian draws of `noise`.

The source ships in the package.  `load` compiles it once per cache key
with sysconfig's CC at `-O3 -fPIC -ffp-contract=off`: no `-ffast-math` and
no FMA contraction, so every operation rounds as numpy's does.  With GCC 12
or later on x86-64 glibc the scan, the norm sums and the draws carry an
x86-64-v3 and a baseline clone, one of which the dynamic loader picks for
the CPU when the object loads, and the step, whose explicit update is
written once for both grids, is built once per level (its 1-D sweep on
vectors of 4 rows and of 2), one of which `fhn_step` picks by the same CPU
test: the step's one dispatch.  So a cached object runs on any CPU of its architecture and the
key needs no CPU (`-march=native` would).  Other compilers build the
baseline alone.
A cold compile takes 1.5-1.8 s on 2 shared cores of an Intel Xeon, as
busy as the host is, and the object is about 74 KB.  The object goes to
`$XDG_CACHE_HOME/fhnrds` (default `~/.cache/fhnrds`), or to a directory of
the user's under `tempfile.gettempdir()` when that is not writable, named
by a hash of the source, the flags and CC.  It is written under a
temporary name and renamed into place, so processes racing on a cold cache
(the forked workers of `cli --threads`) never load a half-written file.
Each load refreshes the mtime of its object, and a cold build deletes the
other objects of its cache that are older than `STALE_S` (30 days), so
objects of an edited source do not pile up while none in use goes.

The Gaussian draws call libm's `log` and `sqrt` in Cephes' `ndtri`, as
`scipy.special.ndtri` does.  glibc picks an FMA variant of `log` on CPUs
that have FMA, so an increment may differ in its last bit between a CPU
with FMA and one without; within one process it is bitwise scipy's.  So
may a norm sum at a p that is not an integer up to 64, which calls libm's
`pow`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import time
from importlib import resources
from pathlib import Path

from . import RunError

FLAGS = ("-O3", "-fPIC", "-ffp-contract=off", "-shared")
# a cold build deletes the other objects of its cache whose mtime is older
# than this; each load refreshes the mtime of its object
STALE_S = 30 * 24 * 3600

_P, _I64, _U64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double


class KernelBuildError(RunError, RuntimeError):
    """The kernel could not be compiled."""

    kind = "kernel build"


class Plan(ctypes.Structure):
    """`fhn_plan`: the buffers, profiles and constants of one `solve_batch`."""

    _fields_ = [
        ("n", _I64), ("B", _I64), ("ps", _I64), ("rs", _I64), ("u", _P), ("v", _P),
        ("shifted", _P), ("f", _P), ("h1", _P), ("lap_h1", _P), ("h2", _P), ("gprof", _P),
        ("hprof", _P), ("z1", _P), ("z2", _P), ("S", _I64), ("group", _P),
        ("sign", _F64), ("dt", _F64), ("alpha", _F64), ("beta", _F64), ("ev", _F64), ("gain", _F64),
        ("threshold", _F64), ("d", _P), ("e", _P), ("w", _P), ("scale", _F64), ("scratch", _P),
    ]


_SIGNATURES = {
    "fhn_scan": (ctypes.c_int, (_P, _I64)),
    "fhn_shift": (None, (_P, _I64, _I64)),
    "fhn_step": (ctypes.c_int, (_P, _I64, _I64, _F64, _F64)),
    "fhn_norms": (ctypes.c_int, (_P, _I64, _I64, _I64, _I64, _P, _I64, _I64, _F64, _P, _P, _P)),
    "fhn_ou_blocks": (None, (_P, _I64, _I64, _F64, _P)),
    "fhn_increments": (None, (_U64, _I64, _U64, _P, _I64, _F64, _P)),
    "fhn_uniforms": (None, (_U64, _I64, _U64, _P, _I64, _P)),
    "fhn_ndtri": (None, (_P, _I64, _F64, _P)),
    "fhn_isa": (ctypes.c_int, ()),
}

_lib = None


def load():
    """The kernel library, compiled into the cache on the first call of a cold cache."""
    global _lib
    if _lib is None:
        _lib = _open(_build())
    return _lib


def _open(path):
    """The kernel object at `path`, loaded, with the signatures of its functions."""
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def loaded():
    """The loaded object's file name and the x86-64 level of the code picked
    for this CPU (3, or 0 for the baseline copy); None while no solve, OU
    fill or draw of this process has loaded the kernel.  The kernel stays
    loaded for the life of the process, so this names the object of any
    earlier call too."""
    if _lib is None:
        return None
    return {"object": Path(_lib._name).name, "isa": _lib.fhn_isa()}


def _cache_dirs():
    yield Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fhnrds"
    yield Path(tempfile.gettempdir()) / f"fhnrds-{os.getuid()}"


def _build():
    """Path of the compiled kernel, compiled first unless a cache holds it."""
    source = resources.files(__package__).joinpath("_step.c").read_bytes()
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise KernelBuildError("no C compiler: sysconfig's CC is not set")
    key = hashlib.sha256(repr((source, FLAGS, cc)).encode()).hexdigest()[:20]
    for cache in _cache_dirs():
        path = cache / f"step-{key}.so"
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            if cache.stat().st_uid != os.getuid():  # load nothing from another user's directory
                continue
            if path.exists():
                with contextlib.suppress(OSError):  # a read-only cache still loads
                    os.utime(path)  # in use: no cold build prunes it
                return path
            fd, tmp = tempfile.mkstemp(prefix=path.name, dir=cache)
        except OSError:
            continue
        os.close(fd)
        try:
            _compile(cc, source, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _prune(cache, path)
        return path
    raise KernelBuildError(f"no writable cache directory for the kernel among {list(_cache_dirs())}")


def _prune(cache, built):
    """Delete the objects in `cache` other than `built` that no process has
    loaded for `STALE_S`: those of an older `_step.c`, FLAGS or CC."""
    cutoff = time.time() - STALE_S
    for path in cache.glob("step-*.so"):
        try:
            if path != built and path.stat().st_mtime < cutoff:
                path.unlink()
        except OSError:  # another process pruned it first
            continue


def _compile(cc, source, target):
    argv = [*cc.split(), *FLAGS, "-x", "c", "-", "-o", target, "-lm"]
    try:
        done = subprocess.run(argv, input=source, capture_output=True)
    except OSError as exc:
        raise KernelBuildError(f"cannot run the C compiler {cc!r} (sysconfig's CC): {exc}") from None
    if done.returncode != 0:
        raise KernelBuildError(
            f"the C compiler {cc!r} (sysconfig's CC) failed on the kernel `_step.c`:\n"
            + done.stderr.decode(errors="replace")
        )
