"""Build, cache and load of the compiled kernel (`fhnrds.kernel`)."""

import json
import os
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import pytest

from fhnrds import cli, kernel

SRC = Path(kernel.__file__).resolve().parents[1]


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """An empty cache in XDG_CACHE_HOME, no library loaded, and a log of the compiles."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_lib", None)
    compiles = []
    real = kernel._compile

    def logged(*args):
        compiles.append(args[0])
        return real(*args)
    monkeypatch.setattr(kernel, "_compile", logged)
    return tmp_path / "cache" / "fhnrds", compiles


def test_warm_cache_loads_without_compiling(cold, monkeypatch):
    cache, compiles = cold
    kernel.load()
    (built,) = cache.iterdir()  # the object alone, no temporary left behind
    assert built.name.startswith("step-") and built.suffix == ".so"
    assert len(compiles) == 1
    monkeypatch.setattr(kernel, "_lib", None)
    assert kernel.load().fhn_step
    assert len(compiles) == 1 and list(cache.iterdir()) == [built]


def test_cold_build_prunes_objects_not_loaded_for_the_stale_age(cold, monkeypatch):
    # dummy objects of other keys, aged with os.utime: a cold build deletes
    # the one past STALE_S and keeps the one just inside it
    cache, compiles = cold
    cache.mkdir(parents=True)
    now = time.time()
    old, fresh = cache / "step-old.so", cache / "step-fresh.so"
    for path, age in ((old, kernel.STALE_S + 60), (fresh, kernel.STALE_S - 60)):
        path.write_bytes(b"")
        os.utime(path, (now - age, now - age))
    kernel.load()
    (built,) = set(cache.iterdir()) - {fresh}
    assert len(compiles) == 1 and built.name.startswith("step-") and fresh.exists()
    # a load from a warm cache refreshes its object's mtime and prunes nothing
    os.utime(built, (now - 2 * kernel.STALE_S, now - 2 * kernel.STALE_S))
    os.utime(fresh, (now - 2 * kernel.STALE_S, now - 2 * kernel.STALE_S))
    monkeypatch.setattr(kernel, "_lib", None)
    kernel.load()
    assert len(compiles) == 1 and set(cache.iterdir()) == {built, fresh}
    assert built.stat().st_mtime > now - 60


def test_cache_falls_back_to_the_temp_directory(cold, tmp_path, monkeypatch):
    # XDG_CACHE_HOME names a file, so no cache directory can be made there
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    kernel.load()
    (built,) = (tmp_path / "tmp" / f"fhnrds-{os.getuid()}").glob("step-*.so")
    assert len(cold[1]) == 1


@pytest.mark.parametrize("cc", [None, "", "fhnrds-no-such-cc"])
def test_missing_compiler_is_a_named_error(cold, tmp_path, monkeypatch, cc):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: cc if name == "CC" else real(name))
    with pytest.raises(kernel.KernelBuildError, match="CC") as exc:
        kernel.load()
    if cc:
        assert cc in str(exc.value)
    # a run exits 2 with the error in its manifest: `noise` too, whose OU
    # fill is in the kernel, and it writes no CSV
    for name, args in (("simulate", ["--duration", "0.01"]), ("noise", [])):
        out = tmp_path / name
        assert cli.main([name, *args, "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        error = manifest["error"]
        assert error.startswith("kernel build: ") and "CC" in error, (name, error)
        assert manifest["kernel"] is None  # no object was loaded
    assert not list((tmp_path / "noise").glob("*.csv"))


@pytest.mark.parametrize("module", ["fhnrds.noise", "fhnrds.kernel", "fhnrds.cli"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # `noise` imports `kernel`, and neither needs the other imported first;
    # none loads scipy or any of its modules, and `cli` imports every
    # module of the package
    code = (f"import sys, {module}; "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_processes_racing_on_a_cold_cache_agree(tmp_path):
    # two runs start together on an empty cache: each compiles or loads a
    # whole object, and both write the same trajectory
    (tmp_path / "small.cfg").write_text("grid.n = 64\ngrid.half_width = 8.0\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-m", "fhnrds.cli", "simulate", "--config", "small.cfg",
                               "--duration", "0.5", "--out", f"out{i}"], cwd=tmp_path, env=env)
             for i in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    first, second = ((tmp_path / f"out{i}" / "trajectory.csv").read_bytes() for i in range(2))
    assert first == second
    (built,) = (tmp_path / "cache" / "fhnrds").iterdir()
    assert built.suffix == ".so"


def test_manifest_names_the_kernel_of_its_own_run(tmp_path):
    # the kernel stays loaded in the process, and a later run whose config
    # is invalid, which runs no subcommand, names none
    assert cli.main(["simulate", "--duration", "0.01", "--out", str(tmp_path / "run")]) == 0
    loaded = json.loads((tmp_path / "run" / "manifest.json").read_text())["kernel"]
    assert loaded == kernel.loaded() and loaded["isa"] == kernel.load().fhn_isa()
    assert cli.main(["simulate", "--threads", "0", "--out", str(tmp_path / "bad")]) == 2
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["error"].startswith("invalid config") and manifest["kernel"] is None
