"""Tests of the benchmark itself: generator determinism and limits, the span
arithmetic, the reference scaling and warm-up, and that each workload's
assertions catch a broken run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import gc
import hashlib
import json
import time

import pytest

import reference
import run
import spans
import workloads
from echo_testbed import cli, netsim

SMALL = {
    "fleet_calls": {"homes": 40},
    "pairing_waves": {"speakers": 12, "wave": 5},
    "media_stream": {"frames": 40},
}


def small(name: str, seed: int = 1) -> dict:
    return workloads.WORKLOADS[name](seed, **SMALL[name])


def scenario_bytes(scn: dict) -> bytes:
    return json.dumps(scn, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_scenario_bytes(name):
    gen = workloads.WORKLOADS[name]
    assert scenario_bytes(gen(7)) == scenario_bytes(gen(7))
    assert scenario_bytes(gen(7)) != scenario_bytes(gen(8))
    cli.validate_scenario(gen(7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_passes_and_breaks_without_one_action(name):
    scn = small(name)
    assert cli.run_scenario(scn).exit_code == 0
    drop = {"fleet_calls": "start_call", "pairing_waves": "start_pairing",
            "media_stream": "start_call"}[name]
    broken = dict(scn, actions=list(scn["actions"]))
    broken["actions"].remove(next(a for a in scn["actions"] if a["op"] == drop))
    result = cli.run_scenario(broken)
    assert result.exit_code == 1
    assert not all(v.ok for v in result.verdicts)


@pytest.mark.parametrize("op", ["replay_invite", "replay_negotiation"])
def test_fleet_assertions_demand_the_expected_rejections(op):
    scn = small("fleet_calls")
    broken = dict(scn, actions=[a for a in scn["actions"] if a["op"] != op])
    assert cli.run_scenario(broken).exit_code == 1


def test_pairing_assertions_demand_every_tap():
    scn = small("pairing_waves")
    broken = dict(scn, actions=[a for a in scn["actions"] if a["op"] != "tap_pairing"])
    assert cli.run_scenario(broken).exit_code == 1


def test_generator_names_the_limit_it_would_break():
    with pytest.raises(workloads.LimitError, match="20 concurrent setup networks"):
        workloads.pairing_waves(1, speakers=40, wave=21)
    with pytest.raises(workloads.LimitError, match="setup network names"):
        workloads.pairing_waves(1, speakers=1001)
    with pytest.raises(workloads.LimitError, match="SCENARIO_BUDGET"):
        workloads.fleet_calls(1, homes=4000)
    with pytest.raises(workloads.LimitError, match="SCENARIO_BUDGET"):
        workloads.media_stream(1, frames=20_000)
    crowded = {"topology": {"devices": [{"serial": f"S{i}", "lan": "home-0"}
                                        for i in range(255)]}, "actions": []}
    with pytest.raises(workloads.LimitError, match="254 hosts per LAN"):
        workloads.check_hosts_per_lan(crowded)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_budget_estimate_is_never_below_the_dispatch_count(name, monkeypatch):
    # were the estimate low, the generator would pass a scenario that the
    # program then aborts halfway with BudgetExceeded
    scn = small(name)
    world = cli.build_world(scn, scn["seed"])
    cli._schedule_actions(world, scn["actions"])
    dispatched = world.network.run(cli.SCENARIO_BUDGET)
    monkeypatch.setattr(workloads, "SCENARIO_BUDGET", dispatched - 1)
    with pytest.raises(workloads.LimitError, match="SCENARIO_BUDGET"):
        small(name)


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


def test_self_time_is_duration_minus_direct_children():
    recs = [span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 5.0, 9.0, 0),
            span("b", 6.0, 7.0, 2)]
    assert spans.self_times(recs) == [3.0, 3.0, 3.0, 1.0]
    summary = spans.summarize(recs)
    # the nested "b" is inside a "b": one entry, counted once
    assert summary["b"]["calls"] == 1 and summary["b"]["spans"] == 2
    assert summary["b"]["s"] == 4.0 and summary["b"]["self_s"] == 4.0
    assert summary["root"]["self_s"] == 3.0


def test_tracer_links_nested_calls_and_survives_exceptions():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom, observe=lambda args, result, failed: (5, int(failed)))

    def outer():
        with pytest.raises(ValueError):
            inner()
        return 1

    assert tracer.wrap("outer", outer)() == 1
    tracer.wrap("after", lambda: None)()
    (o, i, a) = tracer.spans
    assert (o[spans.PARENT], i[spans.PARENT], a[spans.PARENT]) == (-1, 0, -1)
    assert (i[spans.VALUE], i[spans.REJECTED]) == (5, 1)
    assert o[spans.START] <= i[spans.START] <= i[spans.END] <= o[spans.END]


def digest(scn: dict) -> str:
    return hashlib.sha256(cli.run_scenario(scn).jsonl.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_the_trace_unchanged_and_restores_the_program(name):
    scn = small(name)
    plain = digest(scn)
    originals = (netsim.Scheduler.at, netsim.Channel.send_from, cli.cmd_assert)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert digest(scn) == plain
    assert (netsim.Scheduler.at, netsim.Channel.send_from, cli.cmd_assert) == originals
    assert "handler" not in vars(netsim.Endpoint)
    summary = spans.summarize(tracer.spans)
    assert tracer.counts["dispatches"] > 0
    assert summary["netsim.send"]["calls"] > 0
    assert summary["netsim.to_json"]["spans"] > 0


def test_reference_task_is_fixed_and_leaves_the_collector_on():
    assert reference.task() == reference.task()
    assert reference.timed(time.process_time) > 0
    assert gc.isenabled()


def test_timings_are_scaled_by_the_reference_around_them():
    samples = [{"run_s": 2.0, "ref_s": reference.REFERENCE_S / 2},
               {"run_s": 1.0, "ref_s": reference.REFERENCE_S}]
    assert run.scaled(samples, "run_s") == pytest.approx([4.0, 1.0])


def test_measure_runs_a_warm_up_and_at_least_one_more(tmp_path):
    scn = small("pairing_waves")
    paths = (tmp_path / "trace.jsonl", tmp_path / "assertions.json")
    paths[1].write_text(json.dumps(scn["assertions"]))
    samples = run.measure(cli, netsim, scn, 0.0, paths, traced=False)
    assert len(samples) == 2
    assert all(s["ref_s"] > 0 and not s["problems"] for s in samples)
    assert samples[0]["digest"] == samples[1]["digest"]
