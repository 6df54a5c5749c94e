"""Shared fixtures.

The acceptance gate reads the report of one canonical `fhnrds verify` run,
made once per session, so it checks the pipeline users run; unit tests use
small grids instead.
"""

import json
import platform
import re
import sysconfig
from importlib import resources

import pytest

from fhnrds import cli, kernel
from fhnrds.config import default_config

_REPORT_LINES = pytest.StashKey[list]()


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def spec(cfg):
    return cfg.model_spec()


@pytest.fixture(scope="session")
def solver(cfg):
    return cfg.solver_spec()


@pytest.fixture(scope="session")
def canonical_verify(tmp_path_factory):
    """(output directory, parsed report.json) of canonical `fhnrds verify`."""
    out = tmp_path_factory.mktemp("verify")
    status = cli.main(["verify", "--out", str(out), "--threads", "1"])
    assert status in (0, 1), f"canonical verify exited {status} (2 is a blow-up)"
    return out, json.loads((out / "report.json").read_text())


# the builds of `_step.c` that `kernel_build` loads in place of the shipped
# object, each with the clone guard forced off: "baseline" as a compiler
# without clones builds it, and x86-64-v3 at the `-march` of its clone,
# with the `fhn_isa` level of a CPU that runs that clone
KERNEL_BUILDS = {"baseline": 0, "x86-64-v3": 3}


@pytest.fixture(scope="session")
def _kernel_objects(tmp_path_factory):
    """build(name): the loaded object of one of KERNEL_BUILDS, compiled once."""
    objects = {}

    def build(name):
        if name not in objects:
            source = resources.files("fhnrds").joinpath("_step.c").read_bytes()
            source, guards = re.subn(rb"^#if .*__x86_64__.*$", b"#if 0", source, flags=re.M)
            assert guards == 1
            march = "" if name == "baseline" else f" -march={name}"
            target = tmp_path_factory.mktemp("kernel") / f"step-{name}.so"
            kernel._compile(sysconfig.get_config_var("CC") + march, source, str(target))
            objects[name] = kernel._open(target)
            assert objects[name].fhn_isa() == 0  # no clones
        return objects[name]
    return build


@pytest.fixture(params=list(KERNEL_BUILDS))
def kernel_build(request, monkeypatch, _kernel_objects):
    """The kernel built without clones, for the baseline or for the level of
    one clone, loaded in place of the shipped object; a level this machine
    cannot run is skipped."""
    name = request.param
    if name != "baseline":
        if platform.machine() != "x86_64":
            pytest.skip(f"{name} is x86-64 code, and this machine is {platform.machine()}")
        if kernel.load().fhn_isa() < KERNEL_BUILDS[name]:
            pytest.skip(f"this CPU lacks {name}, or the shipped kernel was built without clones")
    monkeypatch.setattr(kernel, "_lib", _kernel_objects(name))
    return name


@pytest.fixture
def report(request):
    """report(num, name, ok, detail): one PASS/FAIL line per criterion.

    The line is the assertion message of a failure, and every line is shown
    again in the terminal summary, where output capture does not hide it.
    """
    lines = request.config.stash.setdefault(_REPORT_LINES, [])

    def report(num, name, ok, detail=""):
        line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        lines.append(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(_REPORT_LINES, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
