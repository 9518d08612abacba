"""SIP endpoint and media plane behavior."""

import random
from collections import defaultdict
from unittest import mock

import pytest

from echo_testbed import crypto, netsim, wire
from echo_testbed.calling import (
    FRAME_LEN,
    CommsEndpoint,
    MediaSession,
    account_uri,
    canary_payload,
    device_uri,
    make_sip_request,
    make_sip_response,
    send_sip,
    sip_summary,
)
from echo_testbed.cli import load_scenario, run_scenario
from echo_testbed.cloud import RELAY_HOST, CloudServices
from echo_testbed.netsim import Network

from trace_reader import trace_events


# ---------------------------------------------------------------------------
# small pieces

def test_uri_forms():
    assert device_uri("EK-X-1") == "sip:dev-EK-X-1@echo.example"
    assert account_uri("alice") == "sip:user-alice@echo.example"


def test_sip_summary_forms():
    req = make_sip_request("INVITE", "sip:x@y", from_uri="sip:a@y",
                           to_uri="sip:x@y", call_id="c1", cseq=1, via="1.2.3.4")
    assert sip_summary(req) == "INVITE"
    assert sip_summary(make_sip_response(req, 200)) == "200-INVITE"
    assert sip_summary(make_sip_response(req, 487)) == "487-INVITE"


def test_a_response_copies_exactly_the_requests_dialog_headers_in_order():
    req = wire.SipMessage(kind="request", method="INVITE", request_uri="sip:x@y", headers=[
        ("Via", "SIP/2.0/TCP proxy"), ("X-Tag", "a"), ("from", "<sip:a@y>"),
        ("Via", "SIP/2.0/TCP 10.0.0.2"), ("Content-Type", "application/sdp"),
        ("CSEQ", "1 INVITE"), ("To", "<sip:x@y>"), ("call-id", "c1"),
        ("Contact", "<sip:a@1.2.3.4>")])
    assert make_sip_response(req, 180, headers=[("X-leg", "gateway")]).headers == [
        ("Via", "SIP/2.0/TCP proxy"), ("from", "<sip:a@y>"), ("Via", "SIP/2.0/TCP 10.0.0.2"),
        ("CSEQ", "1 INVITE"), ("To", "<sip:x@y>"), ("call-id", "c1"), ("X-leg", "gateway")]


def test_canary_payload_shape():
    frame = canary_payload("EK-X-1:call-1", 3)
    assert len(frame) == FRAME_LEN
    assert frame.startswith(b"CANARY:EK-X-1:call-1:3:")


# ---------------------------------------------------------------------------
# media plane in isolation

def media_pair(frame_count=4):
    net = Network()
    net.add_lan("lan", "192.168.1")
    a, b = net.add_host("a"), net.add_host("b")
    net.attach(a, "lan")
    net.attach(b, "lan")
    rng = random.Random("m")
    key_ab = rng.randbytes(46)
    key_ba = rng.randbytes(46)
    ma = MediaSession(net, "a:c1", tx_key_salt=key_ab, rx_key_salt=key_ba,
                      frame_count=frame_count)
    mb = MediaSession(net, "b:c1", tx_key_salt=key_ba, rx_key_salt=key_ab,
                      frame_count=frame_count)
    b.listen(20000, mb.attach)
    chan = net.open_channel(a, b.addr("lan"), 20000)
    ma.attach(chan)
    return net, ma, mb, chan


def decrypting(monkeypatch) -> dict:
    """Collect each frame srtp_unprotect decrypts, under the id() of the
    receiver that decrypted it: a MediaSession counts its frames only."""
    frames = defaultdict(list)
    unprotect = crypto.srtp_unprotect

    def collecting(rx, data):
        frame = unprotect(rx, data)
        frames[id(rx)].append(frame)
        return frame
    monkeypatch.setattr(crypto, "srtp_unprotect", collecting)
    return frames


def test_media_round_trip_decrypts_to_canaries(monkeypatch):
    frames = decrypting(monkeypatch)
    net, ma, mb, chan = media_pair()
    net.run()
    assert ma.sent == 4 and mb.sent == 4
    assert frames[id(ma.rx)] == [canary_payload("b:c1", i) for i in range(4)]
    assert frames[id(mb.rx)] == [canary_payload("a:c1", i) for i in range(4)]
    assert ma.received == mb.received == 4
    assert ma.rejected == 0 and mb.rejected == 0
    assert ma.done and mb.done


def test_media_frames_are_ciphertext_on_the_wire():
    net, ma, mb, chan = media_pair()
    net.run()
    for ev in trace_events(net):
        if ev["layer"] == "media":
            packet = bytes.fromhex(ev["payload"]["hex"])
            assert b"CANARY" not in packet


def test_garbage_on_the_media_channel_is_rejected_not_crashed():
    net, ma, mb, chan = media_pair(frame_count=2)
    net.run()
    before = mb.received
    chan.send(b"\x00" * 40, layer="media", summary="junk")
    chan.send(b"", layer="media", summary="junk")
    net.run()
    assert mb.rejected == 2
    assert mb.received == before


def test_a_second_dial_to_a_media_port_gets_no_media():
    # an outsider on the LAN dials b's media port while b's call is under way
    net, ma, mb, chan = media_pair()
    outsider = net.add_host("c")
    net.attach(outsider, "lan")
    intruder = net.open_channel(outsider, net.hosts["b"].addr("lan"), 20000)
    heard = []
    intruder.handler = lambda end, data: heard.append(data)
    net.run()
    assert heard == [] and mb.chan is chan.peer
    assert ma.sent == mb.sent == ma.received == mb.received == 4


def test_replayed_media_packet_is_rejected():
    net, ma, mb, chan = media_pair(frame_count=2)
    net.run()
    wire_packets = [bytes.fromhex(ev["payload"]["hex"])
                    for ev in trace_events(net)
                    if ev["layer"] == "media" and ev["src"] == "a"]
    assert wire_packets
    chan.send(wire_packets[0], layer="media", summary="replay")
    net.run()
    assert mb.rejected == 1


def test_media_session_stop_halts_the_pump():
    net, ma, mb, chan = media_pair(frame_count=50)
    net.scheduler.at(50, ma.stop)  # mid-stream, after ~3 frames
    net.run()
    assert ma.sent < 50
    assert ma.chan is None


# ---------------------------------------------------------------------------
# endpoint guards

def _lone_paired_world(**dev_extra):
    entry = {"serial": "EK-AAAA-0001", "host": "kitchen", "state": "paired",
             "account": "alice", "lan": "home-a"}
    entry.update(dev_extra)
    return {
        "name": "guards", "seed": "guards",
        "topology": {
            "lans": [{"name": "home-a", "prefix": "192.168.50", "nat": True},
                     {"name": "home-b", "prefix": "192.168.60", "nat": True}],
            "accounts": [{"id": "alice", "password": "pw-alice"}],
            "devices": [entry,
                        {"serial": "EK-AAAA-0002", "host": "den",
                         "state": "paired", "account": "alice",
                         "lan": "home-b"}],
        },
        "actions": [], "assertions": [],
    }


def test_begin_call_requires_registration():
    net = Network()
    net.add_lan("home", "192.168.50")
    host = net.add_host("solo")
    net.attach(host, "home")
    comms = CommsEndpoint(net, host, "EK-SOLO-0001", random.Random("x"))
    assert comms.begin_call("sip:dev-x@echo.example", "call", "t") == ""
    assert any(e["summary"] == "call-refused:not-registered"
               for e in trace_events(net))


def test_begin_call_refused_while_another_call_is_open():
    scn = _lone_paired_world(auto_bye=False)
    scn["actions"] = [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
                       "callee": "sip:dev-EK-AAAA-0002@echo.example",
                       "call_type": "call"}]
    result = run_scenario(scn)
    comms = result.world.devices["EK-AAAA-0001"].comms
    assert any(c.state == "established" for c in comms.calls.values())
    assert comms.begin_call("sip:dev-EK-AAAA-0002@echo.example", "call",
                            "token") == ""
    net = result.world.network
    assert any(e["summary"] == "call-refused:busy" for e in trace_events(net))


def test_replay_reuses_token_but_not_call_id():
    result = run_scenario(load_scenario("token_reuse"))
    comms = result.world.devices["EK-KITCH-0001"].comms
    events = trace_events(result.world.network)
    invites = [e for e in events
               if e["summary"] == "INVITE" and e["src"] == "kitchen"]
    assert len(invites) == 2
    assert sorted(comms.calls) == ["call-EK-KITCH-0001-1",
                                   "call-EK-KITCH-0001-2"]
    # the replayed INVITE carried the original's token verbatim...
    assert comms.last_invite.header("X-authtoken")
    # ...and the registrar burned its nonce on first use
    summaries = [e["summary"] for e in events]
    assert summaries.count("call-token:accepted") == 1
    assert summaries.count("call-token:rejected") == 1
    assert comms.calls["call-EK-KITCH-0001-2"].state == "closed"


# ---------------------------------------------------------------------------
# whole-call behavior through scenario worlds

def test_intercom_callee_answers_instantly_without_ringing():
    result = run_scenario(load_scenario("intercom_same_lan"))
    assert result.exit_code == 0
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert "auto-answer" in summaries
    assert "180-INVITE" not in summaries


def test_regular_call_rings_for_the_answer_delay():
    scn = _lone_paired_world()
    scn["actions"] = [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
                       "callee": "sip:dev-EK-AAAA-0002@echo.example",
                       "call_type": "call"}]
    result = run_scenario(scn)
    events = trace_events(result.world.network)
    ring = next(e for e in events if e["summary"] == "180-INVITE"
                and e["src"] == "den")
    answer = next(e for e in events if e["summary"] == "200-INVITE"
                  and e["src"] == "den")
    assert answer["t_ms"] - ring["t_ms"] == 400


def test_same_lan_callee_receives_media_without_dialing_out(monkeypatch):
    frames = decrypting(monkeypatch)
    result = run_scenario(load_scenario("intercom_same_lan"))
    kitchen = result.world.devices["EK-KITCH-0001"].comms
    den = result.world.devices["EK-DEN-0002"].comms
    k_call = next(iter(kitchen.calls.values()))
    d_call = next(iter(den.calls.values()))
    assert k_call.state == "closed" and d_call.state == "closed"
    # both sides heard full, decrypted audio
    assert [f[:7] for f in frames[id(k_call.media.rx)]] == [b"CANARY:"] * 6
    assert [f[:7] for f in frames[id(d_call.media.rx)]] == [b"CANARY:"] * 6
    # the callee never dialed: every media frame runs caller -> callee
    # on the channel the caller opened, so its LAN is the shared one
    for e in trace_events(result.world.network):
        if e["layer"] == "media":
            assert e["lan"] == "home-a"


def test_cross_lan_media_falls_back_to_relay():
    result = run_scenario(load_scenario("call_cross_lan_fork"))
    assert result.exit_code == 0
    paths = [e["summary"] for e in trace_events(result.world.network)
             if e["summary"].startswith("path:")]
    assert paths.count("path:relay") == 2
    # direct dial was attempted and failed before the fallback
    kitchen = result.world.devices["EK-KITCH-0001"].comms
    call = next(c for c in kitchen.calls.values() if c.state == "closed")
    assert call.media is not None and call.media.received


def test_bye_closes_both_sides_and_frees_media_ports():
    result = run_scenario(load_scenario("intercom_same_lan"))
    for serial in ("EK-KITCH-0001", "EK-DEN-0002"):
        comms = result.world.devices[serial].comms
        assert all(c.state == "closed" for c in comms.calls.values())
        host = result.world.devices[serial].host
        media_ports = [p for p in host.listeners if p >= 20000]
        assert media_ports == []


def test_gateway_call_media_goes_nowhere_but_the_gateway():
    result = run_scenario(load_scenario("call_pstn"))
    kitchen = result.world.devices["EK-KITCH-0001"].comms
    call = next(iter(kitchen.calls.values()))
    # the gateway answers but sends no frames back
    assert call.media.received == 0
    assert call.media.sent == 6


def test_unreadable_answer_ends_the_call_like_a_refusal():
    # a registrar that accepts the registration, then answers the INVITE
    # with a 200 whose body is not SDP
    net = Network()
    net.add_lan("lan", "10.0.0")
    host = net.add_host("solo")
    net.attach(host, "lan")
    fake = net.add_host("fake-sip")
    addr = net.attach(fake, "lan")

    def on_sip(end, data):
        msg = wire.sip_parse(data)
        body = b"not sdp" if msg.method == "INVITE" else b""
        send_sip(end, make_sip_response(msg, 200, body=body))
    fake.listen(wire.TLS_PORT, lambda chan: setattr(chan, "handler", on_sip))
    controls = []
    fake.listen(5000, lambda chan: setattr(
        chan, "handler", lambda end, data: controls.append(wire.control_decode(data))))
    comms = CommsEndpoint(net, host, "EK-SOLO-0001", random.Random("x"))
    comms.control = net.open_channel(host, addr, 5000)
    comms._on_comms_config(addr)
    net.run()
    assert comms.registered
    call_id = comms.begin_call(device_uri("EK-PEER-0002"), "call", "token")
    net.run()
    call = comms.calls[call_id]
    assert call.state == "closed" and call.media is None
    assert call.media_port not in host.listeners
    assert [e["summary"] for e in trace_events(net)
            if e["layer"] == "sys"][-1] == "sip:unparseable"
    assert (controls[-1].name, controls[-1].payload) == ("CallDisconnected",
                                                         {"call_id": call_id})


def _solo_on_fake_registrar(on_sip, **comms_extra):
    """A lone endpoint registered with a fake registrar that runs on_sip(end,
    msg) on each message it gets; returns the network, the endpoint and the
    fake's end of the SIP channel."""
    net = Network()
    net.add_lan("lan", "10.0.0")
    host = net.add_host("solo")
    net.attach(host, "lan")
    fake = net.add_host("fake-sip")
    addr = net.attach(fake, "lan")
    ends = []

    def accept(chan):
        ends.append(chan)
        chan.handler = lambda end, data: on_sip(end, wire.sip_parse(data))
    fake.listen(wire.TLS_PORT, accept)
    comms = CommsEndpoint(net, host, "EK-SOLO-0001", random.Random("x"), **comms_extra)
    comms._on_comms_config(addr)
    net.run()
    assert comms.registered
    return net, comms, ends[0]


@pytest.mark.parametrize("method, status", [("BYE", 481), ("CANCEL", 481), ("OPTIONS", 501)])
def test_a_request_the_device_cannot_serve_gets_481_or_501(method, status):
    # a registrar that binds the device, then sends it a request for no
    # call it holds, or a method it does not implement
    def on_sip(end, msg):
        if msg.kind == "request":
            send_sip(end, make_sip_response(msg, 200))
    net, comms, end = _solo_on_fake_registrar(on_sip)
    bye = make_sip_request("BYE", comms.uri, from_uri=device_uri("EK-PEER-0002"),
                           to_uri=comms.uri, call_id="no-such-call", cseq=2, via="10.0.0.2")
    # the serializer emits only methods the testbed knows; OPTIONS is not one
    end.send(wire.sip_serialize(bye).replace(b"BYE", method.encode()),
             layer="sip", summary=method)
    net.run()
    assert [e["summary"] for e in trace_events(net) if e["src"] == "solo"][-1] \
        == f"{status}-{method}"
    assert not comms.calls


def test_an_invite_with_unreadable_sdp_gets_404_and_makes_no_call():
    def on_sip(end, msg):
        if msg.method == "REGISTER":
            send_sip(end, make_sip_response(msg, 200))
    net, comms, end = _solo_on_fake_registrar(on_sip)
    send_sip(end, make_sip_request("INVITE", comms.uri, from_uri=device_uri("EK-PEER-0002"),
                                   to_uri=comms.uri, call_id="c-1", cseq=1, via="10.0.0.2",
                                   body=b"v=0 not sdp"))
    net.run()
    assert [e["summary"] for e in trace_events(net) if e["src"] == "solo"][-1] == "404-INVITE"
    assert not comms.calls


def test_a_cancel_for_a_call_the_device_placed_gets_481():
    # only an INVITE the device was sent can be cancelled (RFC 3261 9.2); a
    # registrar that rings the device's INVITE and then cancels it ends nothing
    def on_sip(end, msg):
        if msg.method == "REGISTER":
            send_sip(end, make_sip_response(msg, 200))
        elif msg.method == "INVITE":
            send_sip(end, make_sip_response(msg, 180))
            send_sip(end, make_sip_request(
                "CANCEL", msg.request_uri, from_uri=device_uri("EK-PEER-0002"),
                to_uri=msg.request_uri, call_id=msg.header("Call-ID"), cseq=1,
                via="10.0.0.2"))
    net, comms, _end = _solo_on_fake_registrar(on_sip)
    call_id = comms.begin_call(device_uri("EK-PEER-0002"), "call", "token")
    net.run()
    assert [e["summary"] for e in trace_events(net) if e["src"] == "solo"
            and e["layer"] == "sip"][-1] == "481-CANCEL"
    assert comms.calls[call_id].state == "inviting"


def test_a_481_to_the_devices_bye_ends_its_call():
    # a registrar that answers the INVITE, then the BYE with a 481, as for a
    # dialog that has already ended at its end
    answer = wire.SdpBody(session_id="peer", media_port=9,
                          candidates=[wire.Candidate("host", "10.0.0.99", 9)],
                          crypto_suite=wire.SDES_SUITE,
                          key_salt=bytes(wire.SRTP_KEY_LEN + wire.SRTP_SALT_LEN))

    def on_sip(end, msg):
        if msg.method == "INVITE":
            send_sip(end, make_sip_response(msg, 200, body=wire.sdp_encode(answer)))
        elif msg.method in ("REGISTER", "BYE"):
            send_sip(end, make_sip_response(msg, 200 if msg.method == "REGISTER" else 481))
    net, comms, _end = _solo_on_fake_registrar(on_sip, frame_count=0)
    call_id = comms.begin_call(device_uri("EK-PEER-0002"), "call", "token")
    net.run()
    assert comms.calls[call_id].state == "established"
    comms.end_call()
    net.run()
    assert comms.calls[call_id].state == "closed"
    assert comms.calls[call_id].media_port not in comms.host.listeners


# ---------------------------------------------------------------------------
# addresses a peer named that cannot be dialled

def test_an_unreachable_registrar_is_noted_and_the_run_goes_on():
    send = netsim.Channel.send_from

    def misdirect(chan, src, data, *args):   # one bit flipped: "10.0.0.3" -> "10.0n0.3"
        if b"ConfigureCommsResponse" in data:
            data = data.replace(b'"registrar":"10.0.0.', b'"registrar":"10.0n0.', 1)
        return send(chan, src, data, *args)
    with mock.patch.object(netsim.Channel, "send_from", misdirect):
        result = run_scenario(load_scenario("intercom_same_lan"))
    assert result.error is None
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert summaries.count("sip:registrar-unreachable") == 2
    assert "sip:registered" not in summaries


def test_a_relay_port_freed_before_the_dial_gives_no_path(monkeypatch):
    allocate = CloudServices._relay_allocate

    def allocate_and_free(self, call):
        allocate(self, call)
        self.hosts[RELAY_HOST].unlisten(call.media_port)
    monkeypatch.setattr(CloudServices, "_relay_allocate", allocate_and_free)
    result = run_scenario(load_scenario("call_cross_lan_fork"))
    assert result.error is None
    paths = [e["summary"] for e in trace_events(result.world.network)
             if e["summary"].startswith("path:")]
    assert "path:none" in paths and "path:relay" not in paths
