"""The line-reach gate of tests/reach.py, on a small module of its own."""

import io
import runpy

import pytest

import reach

FIXTURE = """\
def used(x):
    return x + 1


def unused(x):
    y = x * 2
    return y


used(1)
"""


@pytest.fixture
def fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    return path


def test_each_line_is_reached_by_runs_by_tests_only_or_by_nothing(fixture):
    run = reach.collect([fixture], lambda: runpy.run_path(str(fixture)))
    assert reach.classify([fixture], run, set())[fixture] == {
        1: "runs", 2: "runs", 5: "runs", 6: "nothing", 7: "nothing", 10: "runs"}
    test = reach.collect([fixture], lambda: runpy.run_path(str(fixture))["unused"](1))
    kinds = reach.classify([fixture], run, test)[fixture]
    assert (kinds[6], kinds[7]) == ("tests only", "tests only")


def test_the_gate_exits_1_naming_each_line_nothing_reaches(fixture):
    phases = (lambda: runpy.run_path(str(fixture)), lambda: None)
    out = io.StringIO()
    assert reach.gate([fixture], phases, [], out) == 1
    report = out.getvalue()
    assert "fixture.py:6: y = x * 2" in report and "fixture.py:7: return y" in report
    assert "fixture.py:2:" not in report
    allowed = [("fixture.py", "y = x * 2", "why"), ("fixture.py", "return y", "why")]
    assert reach.gate([fixture], phases, allowed, io.StringIO()) == 0
    # an entry for a line that something reaches is stale
    out = io.StringIO()
    assert reach.gate([fixture], phases, [*allowed, ("fixture.py", "used(1)", "why")], out) == 1
    assert "fixture.py: used(1)" in out.getvalue()


@pytest.mark.parametrize("name, text, reason", reach.ALLOWED)
def test_each_allowed_line_occurs_once_and_says_why(name, text, reason):
    lines = [line.strip() for line in (reach.SRC / name).read_text(encoding="utf-8").splitlines()]
    assert lines.count(text) == 1
    assert reason.strip()
