"""Shared fixtures.

The acceptance gate reads the report of one canonical `fhnrds verify` run,
made once per session, so it checks the pipeline users run; unit tests use
small grids instead.
"""

import json

import pytest

from fhnrds import cli
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
