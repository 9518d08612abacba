"""echo-testbed benchmark: host time from scenario to verdict.

    python3 perfbench/run.py --workload fleet_calls --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. The
workload generator turns the seed into one scenario, and the benchmark then
runs it again and again for --seconds through the program's own entry
points: validate, build_world, schedule the actions, drain the scheduler,
serialize the trace, evaluate the assertions, and finally re-judge the
saved trace with `echo-testbed assert`. The first of those runs is a
warm-up: it is checked like the others but left out of the timings. Each
timing is the median over the rest, in reference seconds: CPU time of this
process, scaled by the time of a fixed task run around each iteration
(reference.py), so that the host's drifting speed cancels out.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half traced (see spans.py) and reports the per-layer metrics
plus trace.overhead, the traced total time over the untraced one.

Every run first checks the digests of the ten built-in traces against
pinned.json; at the default seed the workload trace is checked too. Every
iteration must pass all its assertions, give exit code 0 from `assert`
and give the same trace digest as the others, traced or not. The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import reference   # standard library only, so it may load before the program

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench_out"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 1

# The program is single-threaded and CPU-bound, so its CPU time is its wall
# time minus the time the host kept it off the CPU (steal time, on a shared
# virtual machine), which is noise rather than cost of the program.
CLOCK = time.process_time

END_TO_END = {"setup_s": "s", "run_s": "s", "report_s": "s", "total_s": "s",
              "events_per_s": "1/s", "assert_s": "s", "peak_rss_mb": "MB"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_events(trace) -> list[dict]:
    # the same parse of the same bytes that cli.run_scenario does
    return [json.loads(ev.to_json()) for ev in trace.events]


def run_once(cli, netsim, scn: dict, trace_path: Path, rules_path: Path,
             tracer=None) -> dict:
    """One scenario run, timed phase by phase; with a tracer, also its spans."""
    clock = CLOCK
    t0 = clock()
    cli.validate_scenario(scn)
    world = cli.build_world(scn, scn["seed"])
    cli._schedule_actions(world, scn["actions"])
    t1 = clock()
    error = None
    try:
        world.network.run(cli.SCENARIO_BUDGET)
    except (netsim.NetError, cli.ScenarioError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    t2 = clock()
    trace = world.network.trace
    events = trace_events(trace)
    jsonl = trace.jsonl()
    verdicts = cli.evaluate_all(events, scn["assertions"])
    t3 = clock()
    trace_path.write_text(jsonl, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        t4 = clock()
        assert_code = cli.main(["assert", str(trace_path), str(rules_path)])
        t5 = clock()
    total = t3 - t0
    sample = {
        "setup_s": t1 - t0, "run_s": t2 - t1, "report_s": t3 - t2, "total_s": total,
        "assert_s": t5 - t4,
        "events": len(events), "digest": sha256(jsonl),
        "problems": ([error] if error else [])
        + [f"FAIL {v.kind}: {v.detail}" for v in verdicts if not v.ok]
        + ([f"assert exited {assert_code}"] if assert_code != 0 else []),
    }
    if tracer is not None:
        sample["layers"] = layer_metrics(tracer, world, events)
    return sample


def layer_metrics(tracer, world, events: list[dict]) -> dict[str, tuple[float, str]]:
    from spans import summarize

    s = summarize(tracer.spans)
    c = tracer.counts
    media = [call.media for dev in world.devices.values()
             for call in dev.comms.calls.values() if call.media is not None]
    m = {
        "netsim.dispatches": (c["dispatches"], "count"),
        "netsim.queue_peak": (c["queue_peak"], "count"),
        "netsim.sched_self_s": (s["netsim.sched"]["self_s"], "s"),
        "netsim.sends": (s["netsim.send"]["calls"], "count"),
        "netsim.send_self_s": (s["netsim.send"]["self_s"], "s"),
        "netsim.note_s": (s["netsim.note"]["s"], "s"),
        "netsim.open_channel_self_s": (s["netsim.open_channel"]["self_s"], "s"),
        "netsim.whereis_s": (s["netsim.whereis"]["s"], "s"),
        "netsim.detach_s": (s["netsim.detach"]["s"], "s"),
        "netsim.channels_held": (len(world.network.channels), "count"),
        "netsim.to_json_per_event": (s["netsim.to_json"]["spans"] / max(len(events), 1),
                                     "ratio"),
        "netsim.to_json_s": (s["netsim.to_json"]["s"], "s"),
    }
    codecs = ("http", "sip", "sdp", "control")
    for codec in codecs:
        m[f"wire.{codec}.calls"] = (s[f"wire.{codec}"]["calls"], "count")
        m[f"wire.{codec}.s"] = (s[f"wire.{codec}"]["s"], "s")
    m["wire.bytes"] = (sum(s[f"wire.{codec}"]["value"] for codec in codecs), "B")
    for op in ("keygen", "sign", "verify", "wrap", "srtp"):
        m[f"crypto.{op}.calls"] = (s[f"crypto.{op}"]["calls"], "count")
        m[f"crypto.{op}.s"] = (s[f"crypto.{op}"]["s"], "s")
    for op in ("verify", "srtp"):
        row = s[f"crypto.{op}"]
        m[f"crypto.{op}.reject_ratio"] = (row["rejected"] / max(row["calls"], 1), "ratio")
    m["crypto.srtp.bytes"] = (s["crypto.srtp"]["value"], "B")
    for module in ("device", "client", "cloud", "calling"):
        m[f"{module}.self_s"] = (s[f"{module}.handler"]["self_s"], "s")
    m["client.tap_observations"] = (c["tap_observations"], "count")
    m["cloud.bindings"] = (sum(len(b) for b in world.cloud.bindings.values()), "count")
    m["cloud.nonce_cache"] = (len(world.cloud.nonce_cache), "count")
    m["cloud.relay_forwards"] = (sum(1 for ev in events if ev["layer"] == "media"
                                     and ev["summary"] == "relay-forward"), "count")
    m["calling.frames_sent"] = (sum(ms.sent for ms in media), "count")
    m["calling.media_rejected"] = (sum(ms.rejected for ms in media), "count")
    m["cli.build_s"] = (s["cli.build"]["s"], "s")
    for kind in ("subsequence", "count", "absent", "locality"):
        m[f"cli.eval.{kind}_s"] = (s[f"cli.eval.{kind}"]["s"], "s")
    m["cli.assert_parse_s"] = (s["cli.assert"]["self_s"], "s")
    return m


def measure(cli, netsim, scn: dict, seconds: float, paths, traced: bool) -> list[dict]:
    """Repeat run_once within `seconds` of wall time; at least twice.

    The first run is the warm-up. No run starts that would, at the length of
    the one before it, end past the deadline.
    """
    from spans import Tracer, instrument

    samples = []
    start = last = time.perf_counter()
    length = 0.0
    before = reference.timed(CLOCK)
    while len(samples) < 2 or last + length - start < seconds:
        gc.collect()
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                sample = run_once(cli, netsim, scn, *paths, tracer=tracer)
        else:
            sample = run_once(cli, netsim, scn, *paths)
        gc.collect()
        after = reference.timed(CLOCK)
        sample["ref_s"] = (before + after) / 2
        samples.append(sample)
        before = after
        now = time.perf_counter()
        length, last = now - last, now
    return samples


def scaled(samples: list[dict], name: str) -> list[float]:
    """A timing in reference seconds, per sample (see reference.py)."""
    return [s[name] * reference.REFERENCE_S / s["ref_s"] for s in samples]


def check_builtins(cli, pinned: dict[str, str]) -> list[str]:
    problems = []
    for name in cli.BUILTINS:
        result = cli.run_scenario(cli.load_scenario(name))
        digest = sha256(result.jsonl)
        if result.exit_code != 0:
            problems.append(f"built-in {name} exited {result.exit_code}")
        if digest != pinned.get(name):
            problems.append(f"built-in {name} trace sha256 {digest} != pinned {pinned.get(name)}")
    return problems


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"median of n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def import_program():
    """Import echo_testbed from this checkout's src/, never from elsewhere."""
    if not (SRC / "echo_testbed" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import echo_testbed
    from echo_testbed import cli, netsim

    if Path(echo_testbed.__file__).resolve().parent != (SRC / "echo_testbed").resolve():
        raise SystemExit(f"error: echo_testbed imported from {echo_testbed.__file__}, "
                         f"not from {SRC}")
    return cli, netsim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_calls", "pairing_waves", "media_stream"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, netsim = import_program()
    import workloads   # like spans, it imports echo_testbed, so it loads after

    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    problems = check_builtins(cli, pinned["builtins"])
    print(f"built-ins: {len(cli.BUILTINS) - len(problems)}/{len(cli.BUILTINS)} "
          "traces match their pinned digests")

    scn = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{os.getpid()}"
    paths = (OUT / f"{stem}.trace.jsonl", OUT / f"{stem}.assertions.json")
    paths[1].write_text(json.dumps(scn["assertions"]), encoding="utf-8")
    try:
        if args.trace:
            plain = measure(cli, netsim, scn, args.seconds / 2, paths, traced=False)
            traced = measure(cli, netsim, scn, args.seconds / 2, paths, traced=True)
        else:
            plain = measure(cli, netsim, scn, args.seconds, paths, traced=False)
            traced = []
    finally:
        for path in paths:
            path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    samples = plain + traced
    digest = plain[0]["digest"]
    if args.seed == DEFAULT_SEED:
        want = pinned["workloads"].get(args.workload)
        if digest != want:
            problems.append(f"{args.workload} trace sha256 {digest} != pinned {want}")
    failed = 0
    for i, sample in enumerate(samples):
        if sample["digest"] != digest:
            sample["problems"].append(f"trace sha256 {sample['digest']} != {digest}")
        if sample["problems"]:
            failed += 1
            for line in sample["problems"][:5]:
                print(f"run {i}: {line}")
    for line in problems:
        print(line)
    print(f"{args.workload} seed={args.seed}: {plain[0]['events']} events, "
          f"trace sha256 {digest}" + (f", {len(traced)} traced runs agree"
                                      if traced and not failed else ""))

    metrics: dict[str, dict] = {}
    plain, traced = plain[1:], traced[1:]   # drop the warm-ups
    if args.trace:
        for name, (_, unit) in traced[0]["layers"].items():
            values = [s["layers"][name][0] for s in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.median(scaled(traced, "total_s"))
                    / statistics.median(scaled(plain, "total_s")))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{name:28} {m['value']:14.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END.items():
            if name == "peak_rss_mb":
                value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                print(f"{name:16} {value:12.4f} {unit}")
            elif name == "events_per_s":
                values = [s["events"] / t for s, t in zip(plain, scaled(plain, "total_s"))]
                value = statistics.median(values)
                print(f"{name:16} {value:12.4f} {unit:4} {describe(values)}")
            else:
                values = scaled(plain, name)
                value = statistics.median(values)
                raw = statistics.median(s[name] for s in plain)
                print(f"{name:16} {value:12.4f} {unit:4} {describe(values)}; "
                      f"{raw:.4g} CPU s")
            metrics[name] = {"value": value, "unit": unit}
        ref = [s["ref_s"] for s in plain]
        print(f"reference task   {statistics.median(ref):12.4f} CPU s {describe(ref)}")
    print(f"failed_ratio     {failed / len(samples):12.4f}      {failed}/{len(samples)} runs, "
          "warm-ups included")

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
