"""Every endpoint survives a hostile peer.

One message of a built-in run is replaced with a mutated copy on its way
onto the wire: a bit flip, a truncation, a JSON value swapped for one of
another type, or a deleted header line. Whatever the mutation, the run
must end with exit code 0, 1 or 2; an exception escaping run_scenario is
an endpoint that trusted what it decoded.

A peer may also send a message again, unchanged and late: each SIP message
of a call built-in is sent a second time, long after the first. A dialog
that has ended gets 481 and ends no second time, and no call is left up.

A media frame altered on the wire fails its receiver's tag check, even
though the sender's context recorded the frame it protected.

A peer may also send a SIP message that has no place in the dialog: a 180
after a final answer, a CANCEL to the caller, a 200 to the callee. None of
them ends a call that is still up, or strands one. Nor does a final answer
to an INVITE that the testbed's own callees never give, such as 481.

Each HTTP or SIP message the program wrote is read from its writer's
record, so a run parses none in full. A mutated message is bytes no writer
made: it takes the full parse, and the run ends as it did before records.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from echo_testbed import netsim, wire
from echo_testbed.calling import device_uri, make_sip_request, make_sip_response, send_sip
from echo_testbed.cli import load_scenario, run_scenario
from echo_testbed.cloud import CLOUD_HOSTS

from trace_reader import check_invariants, trace_events

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SCENARIOS = ("pair", "pair_eavesdrop", "hijack_registered", "avs_handshake",
             "call_cross_lan_fork", "call_pstn", "intercom_same_lan")
MUTATIONS = ("flip", "truncate", "swap", "drop_header")
# one JSON value of each type; a swap puts in one of a type the old value is not
VALUES = (None, True, 7, "x", [1], {"k": 1})
CALL_SCENARIOS = ("intercom_same_lan", "call_cross_lan_fork", "call_pstn", "token_reuse")
LATE_MS = 500


def _sends(name: str, layer: str | None = None) -> int:
    """How many messages the unmutated run puts on the wire, or of them
    how many are of layer."""
    count = 0
    send = netsim.Channel.send_from

    def counting(chan, src, data, msg_layer, *args):
        nonlocal count
        count += layer in (None, msg_layer)
        return send(chan, src, data, msg_layer, *args)
    with mock.patch.object(netsim.Channel, "send_from", counting):
        run_scenario(load_scenario(name))
    return count


SENDS = {name: _sends(name) for name in SCENARIOS}
SIP_SENDS = {name: _sends(name, "sip") for name in CALL_SCENARIOS}
MEDIA_SCENARIOS = ("intercom_same_lan", "call_cross_lan_fork")
MEDIA_SENDS = {name: _sends(name, "media") for name in MEDIA_SCENARIOS}


def _split(data: bytes) -> tuple[bytes | None, bytes]:
    """(header block, body) of an HTTP or SIP message; (None, data) otherwise."""
    sep = data.find(b"\r\n\r\n")
    return (data[:sep], data[sep + 4:]) if sep >= 0 else (None, data)


def flip(data: bytes, n: int, _value: int) -> bytes:
    bit = n % (8 * len(data))
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def truncate(data: bytes, n: int, _value: int) -> bytes:
    return data[:n % len(data)]


def _slots(obj):
    """(container, key) for every value nested in obj."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _slots(value)


def swap(data: bytes, n: int, value: int) -> bytes:
    head, body = _split(data)
    try:
        obj = json.loads(body)
    except ValueError:
        return flip(data, n, value)   # no JSON in this message
    slots = [(None, None), *_slots(obj)]
    container, key = slots[n % len(slots)]
    old = obj if container is None else container[key]
    others = [v for v in VALUES if type(v) is not type(old)]
    new = others[value % len(others)]
    if container is None:
        obj = new
    else:
        container[key] = new
    body = json.dumps(obj, separators=(",", ":")).encode()
    if head is None:
        return body
    lines = [b"Content-Length: %d" % len(body) if line.lower().startswith(b"content-length:")
             else line for line in head.split(b"\r\n")]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def drop_header(data: bytes, n: int, value: int) -> bytes:
    head, body = _split(data)
    lines = head.split(b"\r\n") if head is not None else []
    if len(lines) < 2:
        return flip(data, n, value)   # no header lines to delete
    del lines[1 + n % (len(lines) - 1)]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


MUTATE = {"flip": flip, "truncate": truncate, "swap": swap, "drop_header": drop_header}


def mutated_run(name: str, k: int, mutation: str, n: int, value: int):
    """Run name with the data of the k-th send replaced by a mutated copy."""
    calls = 0
    send = netsim.Channel.send_from

    def mutating(chan, src, data, *args):
        nonlocal calls
        if calls == k and data:
            data = MUTATE[mutation](data, n, value)
        calls += 1
        return send(chan, src, data, *args)
    with mock.patch.object(netsim.Channel, "send_from", mutating):
        return run_scenario(load_scenario(name))


@st.composite
def hostile_runs(draw):
    name = draw(st.sampled_from(SCENARIOS))
    return (name, draw(st.integers(0, SENDS[name] - 1)), draw(st.sampled_from(MUTATIONS)),
            draw(st.integers(0, 2 ** 16)), draw(st.integers(0, len(VALUES) - 1)))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=hostile_runs())
def test_one_mutated_message_never_escapes_the_run(run):
    result = mutated_run(*run)
    assert result.exit_code in (0, 1, 2)
    check_invariants(result)


@contextmanager
def parses():
    """(bytes answered from a writer's record, bytes parsed in full): each
    HTTP or SIP parse made inside, in order."""
    recorded, full = [], []
    answer, parse = wire._recorded, wire._parse_message

    def answering(data, *args):
        msg = answer(data, *args)
        if msg is not None:
            recorded.append(data)
        return msg

    def parsing(data, *args):
        full.append(data)
        return parse(data, *args)
    with mock.patch.object(wire, "_recorded", answering), \
            mock.patch.object(wire, "_parse_message", parsing):
        yield recorded, full


@pytest.mark.parametrize("make", [lambda: load_scenario("pair"),
                                  lambda: load_scenario("call_cross_lan_fork"),
                                  lambda: workloads.pairing_waves(1)],
                         ids=["pair", "call_cross_lan_fork", "pairing_waves"])
def test_a_run_reads_every_message_it_wrote_from_the_record(make):
    with parses() as (recorded, full):
        result = run_scenario(make())
    assert result.exit_code == 0, result.error
    assert recorded and not full


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=hostile_runs())
def test_a_mutated_message_takes_the_full_parse_and_gets_the_same_answer(run):
    with parses() as (_, full):
        result = mutated_run(*run)
    assert len(set(full)) <= 1 and all(type(data) is bytes for data in full)
    with mock.patch.object(wire, "_recorded", lambda *args: None):
        before = mutated_run(*run)   # every message parsed in full
    assert (result.exit_code, result.jsonl) == (before.exit_code, before.jsonl)


def _calls_left_up(result) -> list:
    return [(serial, call.call_id, call.state) for serial, dev in result.world.devices.items()
            for call in dev.comms.calls.values()
            if call.state in ("inviting", "ringing", "established")]


def late_resend_run(name: str, k: int):
    """Run name with its assertions dropped, sending the k-th SIP message's
    bytes again on its channel LATE_MS later, if the channel is still open."""
    scn = load_scenario(name)
    scn["assertions"] = []
    calls = 0
    send = netsim.Channel.send_from

    def resend(chan, *args):
        if not chan.closed:
            send(chan, *args)

    def resending(chan, src, data, layer, *args):
        nonlocal calls
        if layer == "sip":
            if calls == k:
                chan.network.scheduler.at(LATE_MS, resend, chan, src, data, layer, *args)
            calls += 1
        return send(chan, src, data, layer, *args)
    with mock.patch.object(netsim.Channel, "send_from", resending):
        return run_scenario(scn)


@pytest.mark.parametrize("name, k", [(name, k) for name in CALL_SCENARIOS
                                     for k in range(SIP_SENDS[name])])
def test_a_sip_message_sent_again_late_ends_no_dialog_twice(name, k):
    result = late_resend_run(name, k)
    assert result.exit_code in (0, 1, 2)
    check_invariants(result)
    events = trace_events(result.world.network)
    if [ev for ev in events if ev["layer"] == "sip"][k]["src"] != "sip":
        # a device sent it again: once the call has closed, the proxy passes
        # on only the answers to BYEs, and answers the rest itself
        closed = next((i for i, ev in enumerate(events)
                       if ev["summary"].startswith("call:closed:")), len(events))
        assert all(ev["summary"].endswith("-BYE")
                   or ev["summary"] in ("200-REGISTER", "403-INVITE")
                   for ev in events[closed:] if ev["src"] == "sip" and ev["layer"] == "sip")
    assert not _calls_left_up(result)


def _auth_failures(result) -> int:
    """SRTP packets that failed authentication, over every receiver of the run."""
    return sum(call.media.rx.auth_failures for dev in result.world.devices.values()
               for call in dev.comms.calls.values() if call.media is not None)


def tampered_media_run(name: str, k: int | None):
    """Run name with its assertions dropped and one byte of the k-th media
    send inverted; the byte moves with k through header, ciphertext and tag."""
    scn = load_scenario(name)
    scn["assertions"] = []
    calls = 0
    send = netsim.Channel.send_from

    def tampering(chan, src, data, layer, *args):
        nonlocal calls
        if layer == "media":
            if calls == k:
                out = bytearray(data)
                out[k * 23 % len(out)] ^= 0xFF
                data = bytes(out)
            calls += 1
        return send(chan, src, data, layer, *args)
    with mock.patch.object(netsim.Channel, "send_from", tampering):
        return run_scenario(scn)


@pytest.mark.parametrize("name, k", [(name, k) for name in MEDIA_SCENARIOS
                                     for k in range(MEDIA_SENDS[name])])
def test_a_tampered_media_frame_fails_its_tag_check(name, k):
    result = tampered_media_run(name, k)
    assert result.exit_code in (0, 1, 2)
    check_invariants(result)
    assert _auth_failures(result) == _auth_failures(tampered_media_run(name, None)) + 1


def retargeted_run(name: str, method: str, target: str):
    """Run name with the request target of the first method request a
    device sends replaced by target, in bytes no writer made."""
    fired = False
    send = netsim.Channel.send_from

    def retargeting(chan, src, data, layer, summary, *args):
        nonlocal fired
        if not fired and summary == method and src.host.name not in CLOUD_HOSTS:
            start, rest = data.split(b"\r\n", 1)
            sent_method, _, version = start.split(b" ")
            data = b" ".join([sent_method, target.encode(), version]) + b"\r\n" + rest
            fired = True
        return send(chan, src, data, layer, summary, *args)
    with mock.patch.object(netsim.Channel, "send_from", retargeting):
        result = run_scenario(load_scenario(name))
    assert fired
    return result


@pytest.mark.parametrize("target", ["", "sip:a\x1cb"])   # empty; whitespace to str.split
@pytest.mark.parametrize("method", ["ACK", "BYE"])
@pytest.mark.parametrize("name", MEDIA_SCENARIOS)
def test_a_request_target_the_serializer_refuses_is_not_parsed(name, method, target):
    # the proxy would pass the request on with the target it read, and the
    # serializer refuses to write it: the parse must refuse it first
    result = retargeted_run(name, method, target)
    assert result.exit_code in (0, 1, 2), result.error
    check_invariants(result)
    assert any(ev["src"] == "sip" and ev["summary"] == "sip:unparseable"
               for ev in trace_events(result.world.network))


def injected_run(scn: dict, after: tuple[str, str], inject):
    """Run scn with its assertions dropped; right after host after[0] first
    sends a SIP message with summary after[1], call inject(end, msg) with the
    end it was sent from and the message."""
    scn["assertions"] = []
    fired = False
    send = netsim.Channel.send_from

    def injecting(chan, src, data, layer, summary, *args):
        nonlocal fired
        send(chan, src, data, layer, summary, *args)
        if not fired and (src.host.name, summary) == after:
            fired = True
            inject(src, wire.sip_parse(data))
    with mock.patch.object(netsim.Channel, "send_from", injecting):
        result = run_scenario(scn)
    assert fired and result.exit_code == 0, result.error
    check_invariants(result)
    return result


FORK_CALL = "call-EK-KITCH-0001-1"


def test_a_180_after_a_legs_final_answer_leaves_the_leg_settled():
    # both callees are busy with a call of their own, so both legs answer
    # 486; a 180 from the first, after its 486, settles nothing, and the
    # second 486 ends the fork (RFC 3261 17.1.1.2)
    scn = load_scenario("call_cross_lan_fork")
    scn["actions"].insert(0, {"at": 100, "op": "start_call", "device": "EK-DEN-0002",
                              "callee": device_uri("EK-LOFT-0003"), "call_type": "call"})
    result = injected_run(scn, ("den-fast", "486-INVITE"),
                          lambda end, msg: send_sip(end, make_sip_response(msg, 180)))
    events = trace_events(result.world.network)
    to_caller = [e["summary"] for e in events if e["src"] == "sip" and e["dst"] == "kitchen"
                 and e["summary"].endswith("-INVITE")]
    assert to_caller == ["100-INVITE", "180-INVITE", "486-INVITE"]
    assert [e["summary"] for e in events if e["summary"].startswith("call:closed:")] \
        == [f"call:closed:{FORK_CALL}", "call:closed:call-EK-DEN-0002-1"]
    assert not _calls_left_up(result)


def test_a_cancel_sent_to_the_caller_gets_481_and_ends_nothing():
    # the caller holds no INVITE server transaction to cancel (RFC 3261 9.2)
    def cancel(end, msg):
        send_sip(end, make_sip_request(
            "CANCEL", device_uri("EK-KITCH-0001"), from_uri=msg.header("To").strip("<>"),
            to_uri=device_uri("EK-KITCH-0001"), call_id=FORK_CALL, cseq=1, via="10.0.0.3"))
    result = injected_run(load_scenario("call_cross_lan_fork"), ("sip", "180-INVITE"), cancel)
    events = trace_events(result.world.network)
    assert [e["summary"] for e in events if e["src"] == "kitchen"
            and e["summary"] in ("200-CANCEL", "481-CANCEL", "487-INVITE")] == ["481-CANCEL"]
    assert [e["summary"] for e in events if e["src"] == "kitchen"
            and e["layer"] == "sip"].count("BYE") == 1
    assert sum(e["summary"] == f"call:closed:{FORK_CALL}" for e in events) == 1
    assert not _calls_left_up(result)


def test_a_200_sent_to_a_ringing_callee_is_ignored():
    # only a caller's INVITE has responses; the callee rings on and answers
    result = injected_run(load_scenario("call_cross_lan_fork"), ("den-fast", "180-INVITE"),
                          lambda end, msg: send_sip(end.peer, make_sip_response(msg, 200)))
    events = trace_events(result.world.network)
    assert ("den-fast", "sip:unparseable") not in [(e["src"], e["summary"]) for e in events]
    assert [e["src"] for e in events if e["summary"] == "200-INVITE"
            and e["dst"] == "sip"] == ["den-fast"]
    assert sum(e["summary"] == f"call:closed:{FORK_CALL}" for e in events) == 1
    assert not _calls_left_up(result)


@pytest.mark.parametrize("senders, to_caller", [(("den-fast", "loft-slow"), 486),
                                                 (("den-fast", "loft-slow", "sip"), 481)])
def test_a_481_to_an_invite_settles_the_leg_and_ends_the_call(senders, to_caller):
    # any final answer of 300 or more settles a leg (RFC 3261 16.7) and ends
    # the caller's call, not only the ones the testbed's agents send: both
    # callees are busy, as in the 180 test, but each sender of a 486 to an
    # INVITE among senders answers 481 in its place
    scn = load_scenario("call_cross_lan_fork")
    scn["actions"].insert(0, {"at": 100, "op": "start_call", "device": "EK-DEN-0002",
                              "callee": device_uri("EK-LOFT-0003"), "call_type": "call"})
    scn["assertions"] = []
    replaced = 0
    send = netsim.Channel.send_from

    def answering_481(chan, src, data, layer, summary, *args):
        nonlocal replaced
        if summary == "486-INVITE" and src.host.name in senders:
            msg = wire.sip_parse(data)
            msg.status, msg.reason, summary = 481, wire.SIP_STATUSES[481], "481-INVITE"
            data = wire.sip_serialize(msg)
            replaced += 1
        return send(chan, src, data, layer, summary, *args)
    with mock.patch.object(netsim.Channel, "send_from", answering_481):
        result = run_scenario(scn)
    assert replaced == len(senders) and result.exit_code == 0, result.error
    check_invariants(result)
    events = trace_events(result.world.network)
    assert [e["summary"] for e in events if e["src"] == "sip" and e["dst"] == "kitchen"
            and e["summary"].endswith("-INVITE")] == ["100-INVITE", f"{to_caller}-INVITE"]
    assert [e["summary"] for e in events if e["src"] == "kitchen"
            and e["summary"].startswith("call-failed:")] == [f"call-failed:{to_caller}"]
    assert sum(e["summary"] == f"call:closed:{FORK_CALL}" for e in events) == 1
    assert not _calls_left_up(result)
