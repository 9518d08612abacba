"""Name every line of src/echo_testbed that no run and no test reaches.

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/reach.py

The executable lines are those in the line tables (co_lines) of every code
object the modules compile to. A sys.settrace collector notes each line
that executes, in two phases:

  runs   `run` then `assert` for each built-in and for each benchmark
         workload at the sizes tests/test_records_off.py uses, then `list`
         and `explain`, all through cli.main;
  tests  the tier-1 suite (tests/ and perfbench/), in this process.

Each line is reported as reached by runs, by tests only, or by nothing.
The gate exits 1 when a line that nothing reaches is not in ALLOWED, or
when an ALLOWED entry names a line that something does reach, and 2 when
a phase fails. An ALLOWED entry is a file, the line's exact stripped
text and the reason no run or test can reach it; text, not a line number,
so that an edit elsewhere in the file leaves the entry good.

The tests run under a derandomized Hypothesis profile and, with
PYTHONHASHSEED=0, the map is the same from one run to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "echo_testbed"

ALLOWED = [
    ("cli.py", "sys.exit(main())",
     "the __main__ guard: the installed script calls main(), and no run or "
     "test executes cli.py as a script in this process"),
]

KINDS = ("runs", "tests only", "nothing")


def executable_lines(path: Path) -> set[int]:
    """The lines of path that some code object's line table names; not the
    line 0 a module's code starts at, which no source line holds."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(paths, phase) -> set[tuple[str, int]]:
    """The (file, line) pairs of paths that execute while phase() runs."""
    files, hits = {str(p) for p in paths}, set()

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename in files:
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    outer = sys.gettrace()
    sys.settrace(start)
    try:
        phase()
    finally:
        sys.settrace(outer)
    return hits


def classify(paths, runs, tests) -> dict[Path, dict[int, str]]:
    """Each executable line of each path, mapped to one of KINDS."""
    kinds = {}
    for path in paths:
        at = {}
        for line in sorted(executable_lines(path)):
            hit = (str(path), line)
            at[line] = KINDS[0] if hit in runs else KINDS[1] if hit in tests else KINDS[2]
        kinds[path] = at
    return kinds


def _spans(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(f"{start}" if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def gate(paths, phases, allowed, out=sys.stdout) -> int:
    """Run phases (runs, tests), print the map and return the exit code."""
    hits = []
    for phase in phases:
        try:
            hits.append(collect(paths, phase))
        except SystemExit as exc:
            print(f"reach: a phase failed ({exc})", file=out)
            return 2
    kinds = classify(paths, *hits)
    totals = dict.fromkeys(KINDS, 0)
    names, unallowed, used = {(name, line) for name, line, _ in allowed}, [], set()
    for path, at in kinds.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for kind in KINDS:
            lines = [line for line, k in at.items() if k == kind]
            totals[kind] += len(lines)
            if kind != KINDS[0] and lines:
                print(f"{path.name}: {kind}: {_spans(lines)}", file=out)
        for line in (line for line, k in at.items() if k == KINDS[2]):
            entry = (path.name, text[line - 1].strip())
            if entry in names:
                used.add(entry)
            else:
                unallowed.append(f"{path.name}:{line}: {entry[1]}")
    print(", ".join(f"{n} {kind}" for kind, n in totals.items())
          + f" of {sum(totals.values())} executable lines", file=out)
    stale = [f"{name}: {text}" for name, text in sorted(names - used)]
    for what, found in (("reached by nothing and not allowed", unallowed),
                        ("allowed but reached, or gone", stale)):
        if found:
            print(f"{what}:", *found, sep="\n  ", file=out)
    return 1 if unallowed or stale else 0


def _runs() -> None:
    from echo_testbed import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    sizes = runpy.run_path(str(ROOT / "tests" / "test_records_off.py"))["SIZES"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        scenarios = [(name, cli.load_scenario(name)) for name in cli.BUILTINS]
        scenarios += [(name, workloads.WORKLOADS[name](1, **size))
                      for name, size in sorted(sizes.items())]
        for name, scn in scenarios:
            scenario, trace = Path(tmp, f"{name}.json"), Path(tmp, f"{name}.jsonl")
            scenario.write_text(json.dumps(scn), encoding="utf-8")
            cli.main(["run", str(scenario), "--trace", str(trace)])
            cli.main(["assert", str(trace), str(scenario)])
        cli.main(["list"])
        for name in cli.BUILTINS:
            cli.main(["explain", name])


class _Derandomized:
    """Load a Hypothesis profile under which each run draws the same examples.

    Tracing slows every example, and a property that is not derandomized
    would draw other inputs, and reach other lines, on each run. The
    profile is loaded once pytest has imported Hypothesis as its plugin."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings

        settings.register_profile("reach", derandomize=True, database=None, deadline=None,
                                  suppress_health_check=list(HealthCheck))
        settings.load_profile("reach")


def _tests() -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        str(ROOT / "tests"), str(ROOT / "perfbench")],
                       plugins=[_Derandomized()])
    if code != 0:
        raise SystemExit(f"pytest exited {code}")


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    return gate(paths, (_runs, _tests), ALLOWED)


if __name__ == "__main__":
    sys.exit(main())
