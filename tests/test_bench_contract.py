"""The benchmark's reach into the program, checked with the tier-1 tests.

perfbench/ drives the program through names it imports or patches: the
scenario entry points, the scheduler and channel methods, TraceEvent.to_json,
the per-module functions its span tracer wraps. One small traced run through
perfbench's own measure() fails here when a change drops or renames one of
them, rather than only when the benchmark runs with --trace 1.
"""

import json
import sys
from pathlib import Path
from unittest import mock

from echo_testbed import cli, crypto, netsim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def test_a_traced_benchmark_run_reaches_every_name_it_uses(tmp_path):
    scn = workloads.WORKLOADS["pairing_waves"](1, speakers=12, wave=5)
    paths = (tmp_path / "trace.jsonl", tmp_path / "assertions.json")
    paths[1].write_text(json.dumps(scn["assertions"]), encoding="utf-8")
    samples = run.measure(cli, netsim, scn, 0.0, paths, traced=True)
    assert len(samples) == 2
    assert all(not s["problems"] for s in samples)
    assert samples[0]["digest"] == samples[1]["digest"]
    layers = samples[1]["layers"]
    assert layers["netsim.sends"][0] > 0 and layers["netsim.to_json_per_event"][0] > 0


def test_each_workload_is_judged_under_its_own_rules_without_encoding_a_payload(monkeypatch):
    """The absent screen settles every workload's needles for every chunk,
    so evaluate_all encodes no payload: the cost of judging that the
    benchmark's assert_s and report_s measure rests on it."""
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: calls.append(obj) or dumps(obj, **kw))
    sizes = {"fleet_calls": {"homes": 40}, "pairing_waves": {"speakers": 12, "wave": 5},
             "media_stream": {"frames": 40}}
    for name, make in workloads.WORKLOADS.items():
        scn = make(1, **sizes[name])
        assert any(rule["kind"] == "absent" for rule in scn["assertions"]), name
        result = cli.run_scenario(scn)
        assert result.exit_code == 0, (name, result.verdicts)
        assert calls == [], name


def test_fleet_calls_setup_builds_each_grant_identity_key_once():
    """A paired speaker signs with the Ed25519 object its grant identity
    was minted with. So setup builds one per grant identity, one per
    speaker's own key and the cloud's; the X25519 count also holds the
    ephemeral key that seals each speaker's auth token."""
    homes = 40
    scn = workloads.WORKLOADS["fleet_calls"](1, homes=homes)
    with mock.patch.object(crypto.Ed25519PrivateKey, "from_private_bytes",
                           wraps=crypto.Ed25519PrivateKey.from_private_bytes) as ed25519, \
            mock.patch.object(crypto.X25519PrivateKey, "from_private_bytes",
                              wraps=crypto.X25519PrivateKey.from_private_bytes) as x25519:
        cli.validate_scenario(scn)
        world = cli.build_world(scn, scn["seed"])
        cli._schedule_actions(world, scn["actions"])
    assert ed25519.call_count == 2 * homes + 1
    assert x25519.call_count == 3 * homes + 1
