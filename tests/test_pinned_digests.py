"""Every built-in trace is byte-identical to the digest the benchmark pins.

A refactor that changes no behaviour must leave these digests alone; a
change that means to alter a trace re-pins it in perfbench/pinned.json.
"""

import hashlib
import json
from pathlib import Path

import pytest

from echo_testbed.cli import BUILTINS, load_scenario, run_scenario

PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json")
                    .read_text(encoding="utf-8"))["builtins"]


def test_every_builtin_is_pinned():
    assert sorted(PINNED) == sorted(BUILTINS)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_trace_matches_pinned_digest(name):
    result = run_scenario(load_scenario(name))
    assert result.exit_code == 0, (result.verdicts, result.error)
    assert hashlib.sha256(result.jsonl.encode("utf-8")).hexdigest() == PINNED[name]
