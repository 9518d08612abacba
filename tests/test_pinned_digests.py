"""Every built-in trace, and every benchmark workload's trace at seed 1, is
byte-identical to the digest the benchmark pins.

A refactor that changes no behaviour must leave these digests alone; a
change that means to alter a trace re-pins it in perfbench/pinned.json.
This test only reads perfbench/: the pins and the workload generators.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from echo_testbed.cli import BUILTINS, load_scenario, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("pinned_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def _digest(result) -> str:
    assert result.exit_code == 0, (result.verdicts, result.error)
    return hashlib.sha256(result.jsonl.encode("utf-8")).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(PINNED["builtins"]) == sorted(BUILTINS)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_trace_matches_pinned_digest(name):
    assert _digest(run_scenario(load_scenario(name))) == PINNED["builtins"][name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_trace_at_seed_1_matches_pinned_digest(name):
    assert _digest(run_scenario(WORKLOADS[name](1))) == PINNED["workloads"][name]
