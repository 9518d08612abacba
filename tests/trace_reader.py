"""The test suites' one reader of a network's trace."""

import re
from collections import Counter
from typing import Iterator

from echo_testbed.netsim import iter_jsonl


def text_lines(text: str) -> Iterator[str]:
    """The lines text.split("\n") gives, one at a time; io.StringIO would
    hold a copy at four bytes a character."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def trace_events(net):
    """The trace read back from its lines, as `assert` reads it."""
    return list(iter_jsonl(text_lines(net.trace.jsonl())))


def check_invariants(result) -> None:
    """Assert what every run's trace keeps, whatever its scenario: events in
    seq and time order, no payload on a secured event, on an unsecured media
    event a payload of one key, "hex", in even-length lower-case hex, each
    call closed and each gateway call hung up at most once, and, unless the
    run stopped on an error (exit 2), each pairing dialogue a phone started
    ended once and no relay or gateway port still listens for a call that
    has closed."""
    events = trace_events(result.world.network)
    assert [ev["seq"] for ev in events] == list(range(len(events)))
    assert all(a["t_ms"] <= b["t_ms"] for a, b in zip(events, events[1:]))
    assert not any(ev["secured"] and "payload" in ev for ev in events)
    bad_media = [p for p in (ev.get("payload") for ev in events
                             if ev["layer"] == "media" and not ev["secured"])
                 if not (type(p) is dict and list(p) == ["hex"] and type(p["hex"]) is str
                         and re.fullmatch("(?:[0-9a-f]{2})*", p["hex"]))]
    assert not bad_media, bad_media[:3]
    ends = Counter(ev["summary"] for ev in events if ev["layer"] == "sys"
                   and ev["summary"].startswith(("call:closed:", "gateway:hangup:")))
    assert all(n == 1 for n in ends.values()), ends
    if result.exit_code != 2:
        # the run went to quiescence; a dialogue starts with the phone's ping
        for phone in result.world.clients:
            started = sum(ev["src"] == phone and ev["summary"] == "ping" for ev in events)
            ended = sum(ev["src"] == phone and ev["summary"].startswith("phone:done:")
                        for ev in events)
            assert ended == started, (phone, started, ended)
        cloud = result.world.cloud
        live = {(call.gateway, call.media_port) for call in cloud.calls.values()
                if not call.closed}
        for host, gateway in (("relay", False), ("gateway", True)):
            for port in cloud.hosts[host].listeners:
                assert (gateway, port) in live, (host, port)
