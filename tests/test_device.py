"""Device behavior: setup network, pairing API, tunnel, voice-service link."""

import json
import random

import pytest

from echo_testbed import crypto, wire
from echo_testbed.calling import send_control
from echo_testbed.cli import load_scenario, run_scenario
from echo_testbed.client import WifiCredential
from echo_testbed.cloud import CloudServices
from echo_testbed.device import (
    LINK_POLL_MAX,
    EchoDevice,
    WifiNetwork,
)
from echo_testbed.netsim import NetError, Network

from trace_reader import trace_events

SERIAL = "EK-TEST-0001"
PASS = "wren-pass-7788"


def make_world():
    net = Network()
    net.add_lan("cloud", "10.0.0")
    net.add_lan("home", "192.168.50", nat=True)
    cloud = CloudServices(net, random.Random("t:cloud"))
    cloud.provision_account("alice", "pw-alice")
    dev = EchoDevice(net, SERIAL, random.Random("t:dev"), [WifiNetwork("Wren", "home", PASS)])
    cloud.provision_factory(dev.serial, dev.cert, dev.device_secret)
    return net, cloud, dev


class OobeProbe:
    """Bare client parked on the setup network, speaking the 8080 API."""

    def __init__(self, net, pairing, name="probe"):
        self.net = net
        self.pairing = pairing
        self.host = net.add_host(name)
        pairing.join(self.host)
        self.replies = []

    def call(self, method, args=None):
        chan = self.net.open_channel(self.host, self.pairing.owner_addr, 8080)
        chan.handler = lambda end, data: self.replies.append(
            (wire.http_parse(data).status,
             wire.oobe_decode_response(wire.http_parse(data)).args))
        chan.send(wire.http_serialize(wire.oobe_encode(
            wire.OobeEnvelope(method, args or {}))), layer="oobe", summary=method)
        self.net.run()
        return self.replies[-1]


def cred_armor(dev, ssid, passphrase, rng=None):
    cred = WifiCredential(ssid=ssid, passphrase=passphrase)
    blob = crypto.encrypt_credential(cred, dev.cert, rng or random.Random("t:ph"))
    return blob.to_armor()


def connect_wifi(net, dev, probe):
    status, args = probe.call("connectToAP", {
        "ssid": "Wren", "credential": cred_armor(dev, "Wren", PASS)})
    assert status == 200 and args["status"] == "connecting"
    net.run()
    return args


# ---------------------------------------------------------------------------
# setup network lifecycle

def test_enter_setup_hosts_isolated_lan_as_dot_one():
    net, cloud, dev = make_world()
    pairing = dev.enter_setup()
    assert dev.setup.pairing is pairing
    assert dev.ssid == "Amazon-001"
    assert pairing.lan.isolated
    assert pairing.owner_addr.endswith(".1")
    assert dev.enter_setup() is pairing  # idempotent
    announces = [e for e in trace_events(net) if e["summary"].startswith("announce:")]
    assert len(announces) == 1


def test_factory_device_is_unregistered():
    net, cloud, dev = make_world()
    assert dev.setup is None
    assert dev.grant is None and dev.identity is None


# ---------------------------------------------------------------------------
# pairing API

def test_ping_and_device_details():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("ping")
    assert status == 200 and args == {"pong": True}
    status, args = probe.call("getDeviceDetails")
    assert status == 200
    assert args["serial"] == SERIAL
    cert = crypto.DeviceCertificate.from_dict(args["certificate"])
    assert crypto.verify_certificate(cert)
    assert cert.subject == SERIAL


def test_scan_list_mirrors_radio_table():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("getScanList")
    assert status == 200
    assert [n["ssid"] for n in args["networks"]] == ["Wren"]


def test_unknown_method_rejected():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("fooBar")
    assert status == 400 and args["error"] == "unknown method"


def test_connect_rejects_garbage_credential():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("connectToAP",
                              {"ssid": "Wren", "credential": "AAAA"})
    assert status == 400 and args["error"] == "credential-invalid"
    assert dev.setup.wifi == "disconnected"


def test_connect_rejects_ssid_mismatch():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("connectToAP", {
        "ssid": "Other", "credential": cred_armor(dev, "Wren", PASS)})
    assert status == 400 and args["error"] == "ssid-mismatch"


def test_connect_rejects_unknown_network():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("connectToAP", {
        "ssid": "Ghost", "credential": cred_armor(dev, "Ghost", PASS)})
    assert status == 400 and args["error"] == "no-such-network"


def test_connect_rejects_wrong_passphrase():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("connectToAP", {
        "ssid": "Wren", "credential": cred_armor(dev, "Wren", "wrong-pass-1")})
    assert status == 403 and args["error"] == "auth-failed"
    assert "home" not in dev.host.interfaces


def test_connect_joins_home_lan():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    connect_wifi(net, dev, probe)
    assert dev.setup.wifi == "connected"
    assert "home" in dev.host.interfaces
    notes = [e for e in trace_events(net) if e["summary"] == "mode:wifi-connected"]
    assert len(notes) == 1 and notes[0]["payload"] == {"lan": "home"}


def test_registration_state_progresses():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("getRegistrationState")
    assert args == {"network": "disconnected", "registration": "none"}
    connect_wifi(net, dev, probe)
    status, args = probe.call("getRegistrationState")
    assert args == {"network": "connected", "registration": "none"}


def test_link_code_requires_wifi_first():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("getLinkCode")
    assert status == 400 and args["error"] == "not-online"


def test_link_code_minted_once_and_polling_starts():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    connect_wifi(net, dev, probe)
    status, args = probe.call("getLinkCode")
    assert status == 200
    code = args["code"]
    assert dev.setup.link_code == code and code in cloud.link_codes
    assert probe.call("getRegistrationState")[1]["registration"] == "pending"
    # a second ask returns the same code without a second mint
    status, args = probe.call("getLinkCode")
    assert args["code"] == code
    mints = [e for e in trace_events(net) if e["summary"] == "createLinkCode"]
    assert len(mints) == 1


def test_unregistered_device_eventually_gives_up_polling():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    connect_wifi(net, dev, probe)
    probe.call("getLinkCode")
    net.run()  # drain all 280 polls to quiescence
    assert any(e["summary"] == "link-code:gave-up" for e in trace_events(net))
    assert dev.grant is None


def test_stale_link_code_expires_at_the_service(monkeypatch):
    monkeypatch.setattr("echo_testbed.device.LINK_POLL_MAX", 10_000)
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    connect_wifi(net, dev, probe)
    probe.call("getLinkCode")
    net.run()
    assert any(e["summary"] == "link-code:expired" for e in trace_events(net))
    assert dev.setup.link_code is None


def test_setup_complete_refused_before_registration():
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    status, args = probe.call("setupComplete")
    assert status == 400 and args["error"] == "not-registered"


# ---------------------------------------------------------------------------
# registration tunnel

def tunnel_probe(net, pairing, name="probe"):
    probe = OobeProbe(net, pairing, name)
    chan = net.open_channel(probe.host, pairing.owner_addr, 443)
    inbox = []
    chan.handler = lambda end, data: inbox.append(data)
    closed = []
    chan.on_close = lambda end: closed.append(True)
    return chan, inbox, closed


def test_tunnel_relays_to_cloud_api():
    net, cloud, dev = make_world()
    pairing = dev.enter_setup()
    probe = OobeProbe(net, pairing, "wifi-helper")
    connect_wifi(net, dev, probe)  # the device can't resolve names before this
    chan, inbox, closed = tunnel_probe(net, pairing)
    connect = wire.HttpMessage(kind="request", method="CONNECT",
                               path="api.echo.example:443", headers=[], body=b"")
    chan.send(wire.http_serialize(connect), layer="http", summary="CONNECT")
    net.run()
    assert wire.http_parse(inbox[0]).status == 200
    # relay something the API will answer, end to end
    req = wire.api_encode(wire.OobeEnvelope("registerDevice", {}))
    chan.send(wire.http_serialize(req), layer="http", summary="registerDevice")
    net.run()
    env = wire.oobe_decode_response(wire.http_parse(inbox[1]))
    assert "error" in env.args
    # the upstream leg is a secured channel; payloads there stay hidden
    upstream = [e for e in trace_events(net)
                if e["lan"] == "cloud" and e["summary"] == "tunnel-data"]
    assert upstream and all(ev["secured"] and "payload" not in ev for ev in upstream)


def test_tunnel_unknown_upstream_is_502():
    net, cloud, dev = make_world()
    chan, inbox, closed = tunnel_probe(net, dev.enter_setup())
    connect = wire.HttpMessage(kind="request", method="CONNECT",
                               path="nowhere.example:443", headers=[], body=b"")
    chan.send(wire.http_serialize(connect), layer="http", summary="CONNECT")
    net.run()
    assert wire.http_parse(inbox[0]).status == 502
    assert closed


def test_tunnel_closes_on_bytes_that_do_not_parse():
    net, cloud, dev = make_world()
    chan, inbox, closed = tunnel_probe(net, dev.enter_setup())
    chan.send(b"\x16\x03\x01 not http", layer="http", summary="junk")
    net.run()
    assert closed and not inbox


def test_tunnel_rejects_non_connect_preamble():
    net, cloud, dev = make_world()
    chan, inbox, closed = tunnel_probe(net, dev.enter_setup())
    req = wire.HttpMessage(kind="request", method="GET", path="/", headers=[],
                           body=b"")
    chan.send(wire.http_serialize(req), layer="http", summary="GET")
    net.run()
    assert closed and not inbox


def paired_in_setup():
    """A paired device in setup with its Wi-Fi up, and call(method), which
    sends a pairing call from a peer on the home LAN: the pairing API
    listens on every address the device holds. Answers go to replies."""
    net, cloud, dev = make_world()
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    pairing = dev.enter_setup()
    connect_wifi(net, dev, OobeProbe(net, pairing))
    peer = net.add_host("peer")
    net.attach(peer, "home")
    replies = []

    def call(method):
        chan = net.open_channel(peer, dev.host.addr("home"), wire.OOBE_PORT)
        chan.handler = lambda end, data: replies.append(
            wire.oobe_decode_response(wire.http_parse(data)))
        chan.send(wire.http_serialize(wire.oobe_encode(wire.OobeEnvelope(method, {}))),
                  layer="oobe", summary=method)
    return net, dev, call, replies


def test_a_second_setup_complete_leaves_setup_once():
    net, dev, call, replies = paired_in_setup()
    call("setupComplete")
    call("setupComplete")
    net.run()
    assert dev.setup is None
    assert [(r.method, r.args) for r in replies] == [("setupComplete", {"ok": True})] * 2
    assert [e["summary"] for e in trace_events(net)].count("mode:paired") == 1


def test_a_link_code_minted_after_setup_has_ended_is_not_handed_out():
    # setupComplete ends the stay 5 ms after it lands; a getLinkCode sent
    # 2 ms after it waits on a cloud round trip that ends later still
    net, dev, call, replies = paired_in_setup()
    call("setupComplete")
    net.scheduler.at(2, call, "getLinkCode")
    net.run()
    assert dev.setup is None
    assert [r.method for r in replies] == ["setupComplete"]


def poll_with_code(dev, code):
    """Put dev in setup holding code, and send its first checkLinkCode."""
    dev.enter_setup()
    dev.setup.link_code = code
    dev._poll_link_code(dev.setup)


def test_each_api_reply_answers_the_oldest_waiting_call():
    # a reply the device cannot read still answers its call, so the next
    # reply reaches the next call rather than the one before it
    net = Network()
    net.add_lan("cloud", "10.0.0")
    net.add_lan("home", "192.168.50", nat=True)
    api = net.add_host("api")
    net.register_name(wire.API_NAME, net.attach(api, "cloud"))
    bodies = iter([b'{"method":"createLinkCode","args":[1]}',
                   b'{"method":"checkLinkCode","args":{"status":"pending"}}'])

    def answer(end, data):
        end.send(wire.http_serialize(wire.HttpMessage(
            kind="response", status=200, reason="OK", body=next(bodies))),
            layer="http", summary="scripted")
    api.listen(wire.TLS_PORT, lambda chan: setattr(chan, "handler", answer))
    dev = EchoDevice(net, SERIAL, random.Random("t:dev"), [])
    net.attach(dev.host, "home")
    created, checked = [], []
    dev._on_link_code_checked = lambda session, args: checked.append(args)
    dev._api_call("createLinkCode", {"serial": SERIAL}, created.append)
    poll_with_code(dev, "CODE1")
    net.run()
    assert created == [{"error": "unparseable-reply"}]
    assert checked == [{"status": "pending"}]


# ---------------------------------------------------------------------------
# post-pairing state and the voice-service link

def test_provision_paired_brings_up_comms():
    net, cloud, dev = make_world()
    grant = cloud.provision_grant(SERIAL, "alice")
    dev.provision_paired("home", grant)
    net.run()
    assert dev.setup is None and SERIAL in cloud.avs_sessions
    assert dev.identity.to_dict() == grant["keypair"]
    summaries = [e["summary"] for e in trace_events(net)]
    assert "avs:connected" in summaries
    assert f"sip:bind:{SERIAL}" in " ".join(summaries) or any(
        s.startswith("sip:bind") for s in summaries)


def capture_avs(cloud):
    """Every frame the voice service receives, in arrival order."""
    frames = []
    avs = cloud.hosts["avs"]
    accept = avs.listeners[wire.TLS_PORT]

    def accept_and_capture(chan):
        accept(chan)
        handler = chan.handler

        def capture(end, data):
            frames.append(data)
            handler(end, data)
        chan.handler = capture
    avs.listeners[wire.TLS_PORT] = accept_and_capture
    return frames


def hellos(frames):
    return [f for f in frames if wire.control_decode(f).name == "NegotiationCommand"]


def test_negotiation_payload_is_signed_by_granted_identity():
    net, cloud, dev = make_world()
    frames = capture_avs(cloud)
    grant = cloud.provision_grant(SERIAL, "alice")
    dev.provision_paired("home", grant)
    net.run()
    [hello] = hellos(frames)
    msg = wire.control_decode(hello)
    assert (msg.interface, msg.name) == ("System", "NegotiationCommand")
    body = dict(msg.payload)
    sig = bytes.fromhex(body.pop("signature"))
    signed = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    assert crypto.verify_detached(dev.identity.public, signed, sig)
    assert not crypto.verify_detached(dev.keypair.public, signed, sig)


def test_replay_resends_the_original_hello_bytes():
    net, cloud, dev = make_world()
    frames = capture_avs(cloud)
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    net.run()
    [hello] = hellos(frames)
    dev.replay_negotiation()
    net.run()
    assert hellos(frames) == [hello, hello]
    assert "avs:rejected:replayed-timestamp" in [e["summary"] for e in trace_events(net)]
    # both go out as secured control events that show the name and no payload
    sent = [e for e in trace_events(net) if e["summary"] == "System.NegotiationCommand"]
    assert [(e["src"], e["dst"], e["layer"], e["secured"], e.get("payload")) for e in sent] == \
        [(dev.host.name, "avs", "control", True, None)] * 2


def test_replay_without_capture_refused():
    net, cloud, dev = make_world()
    with pytest.raises(NetError, match="nothing captured"):
        dev.replay_negotiation()


def test_connect_avs_requires_grant():
    net, cloud, dev = make_world()
    with pytest.raises(NetError, match="grant"):
        dev.connect_avs()


def test_refresh_round_trip():
    net, cloud, dev = make_world()
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    net.run()
    cloud.refresh(SERIAL)
    net.run()
    summaries = [e["summary"] for e in trace_events(net)]
    assert "System.Refresh" in summaries
    assert "System.RefreshAck" in summaries
    assert ("avs", "avs:refresh-ack") in [(e["src"], e["summary"]) for e in trace_events(net)]


def test_a_second_hello_at_the_same_time_leaves_comms_on_the_accepted_session():
    serial = "EK-KITCH-0001"
    result = run_scenario({
        "name": "avs_twice",
        "topology": {
            "lans": [{"name": "home-a", "prefix": "192.168.50", "nat": True}],
            "accounts": [{"id": "alice", "password": "pw-alice"}],
            "devices": [{"serial": serial, "host": "kitchen", "state": "paired",
                         "account": "alice", "lan": "home-a"},
                        {"serial": "EK-DEN-0002", "host": "den", "state": "paired",
                         "account": "alice", "lan": "home-a"}]},
        "actions": [{"at": 1000, "op": "connect_avs", "device": serial}] * 2,
        "assertions": [{"kind": "count", "layer": "sys", "summary": "avs:unparseable",
                        "equals": 0}]})
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    # the second hello repeats the first one's timestamp, so only the first is taken
    assert summaries.count(f"avs:accepted:{serial}") == 2   # at t=0, and the first at 1000
    assert summaries.count("avs:rejected:replayed-timestamp") == 1
    assert result.exit_code == 0, result.verdicts
    dev, cloud = result.world.devices[serial], result.world.cloud
    assert dev.comms.control.peer is cloud.avs_sessions[serial]   # the cloud's end of it
    assert not dev.comms.control.closed and dev.comms.registered


def test_pair_scenario_leaves_no_setup_residue():
    result = run_scenario(load_scenario("pair"))
    assert result.exit_code == 0
    dev = result.world.devices["EK-KITCH-0001"]
    net = result.world.network
    assert dev.setup is None and dev.grant is not None
    assert 8080 not in dev.host.listeners and 443 not in dev.host.listeners
    assert not any(name.startswith("pair:") for name in net.lans)
    # the torn-down prefix went back to the front of the pool
    assert net._pairing_prefixes[0] == "192.168.11"


MISSHAPEN_CONTROL = [
    ("SipClient", "ConfigureCommsResponse", None),
    ("SipClient", "ConfigureCommsResponse", [1]),
    ("SipClient", "ConfigureCommsResponse", {}),
    ("SipClient", "ConfigureCommsResponse", {"registrar": None}),
    ("SipClient", "ConfigureCommsResponse", {"registrar": 7}),
    ("SipClient", "ConfigureCommsResponse", {"error": "no negotiated session"}),
    ("SipClient", "BeginCall", "call"),
    ("SipClient", "BeginCall", {"callee": "sip:user-bob@echo.example",
                                "call_type": "drop_in"}),
    ("SipClient", "BeginCall", {"callee": ["x"], "call_type": "drop_in", "token": "t"}),
    ("System", "NegotiationRejected", None),
    ("System", "NegotiationRejected", [1]),
    ("System", "NegotiationRejected", {"reason": {"why": 1}}),
]


@pytest.mark.parametrize("interface,name,payload", MISSHAPEN_CONTROL,
                         ids=[f"{n}-{json.dumps(p)}" for _, n, p in MISSHAPEN_CONTROL])
def test_misshapen_control_from_the_cloud_is_noted_and_dropped(interface, name, payload):
    net, cloud, dev = make_world()
    # a voice service that accepts the hello, then sends one misshapen message
    fake = net.add_host("fake-avs")
    net.register_name(wire.AVS_NAME, net.attach(fake, "cloud"))

    def on_control(end, data):
        if wire.control_decode(data).name == "NegotiationCommand":
            send_control(end, "System", "NegotiationAccepted", {"session": "s-1"})
            send_control(end, interface, name, payload)
    fake.listen(wire.TLS_PORT, lambda chan: setattr(chan, "handler", on_control))
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    net.run()
    notes = [e["summary"] for e in trace_events(net)
             if e["layer"] == "sys" and e["src"] == dev.host.name]
    assert notes[-1] == "avs:unparseable"
    assert dev.comms.sip is None and not dev.comms.calls


def test_undecodable_control_from_the_cloud_is_noted():
    net, cloud, dev = make_world()
    fake = net.add_host("fake-avs")
    net.register_name(wire.AVS_NAME, net.attach(fake, "cloud"))
    fake.listen(wire.TLS_PORT, lambda chan: setattr(
        chan, "handler", lambda end, data: end.send(b"\xff not json", layer="control",
                                                    summary="junk")))
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    net.run()
    notes = [e["summary"] for e in trace_events(net)
             if e["layer"] == "sys" and e["src"] == dev.host.name]
    assert notes[-1] == "avs:unparseable"


@pytest.mark.parametrize("args", [{"ssid": "Wren", "credential": 7}, {"ssid": "Wren"},
                                  {"credential": "armor", "ssid": ["Wren"]}])
def test_connect_without_its_string_args_is_400(args):
    net, cloud, dev = make_world()
    probe = OobeProbe(net, dev.enter_setup())
    assert probe.call("connectToAP", args) == (400, {"error": "bad args"})
    assert dev.setup.wifi == "disconnected"


# ---------------------------------------------------------------------------
# link-code polling against a hostile device API

def _grant(**fields):
    grant = {"keypair": crypto.keygen(random.Random("t:grant")).to_dict(),
             "auth_token": "token", "friendly_name": "Echo-0001"}
    grant.update(fields)
    return {k: v for k, v in grant.items() if v is not None}


HOSTILE_CHECKS = {
    "no-grant": {"status": "registered"},
    "grant-not-object": {"status": "registered", "grant": [1]},
    "keypair-not-base64": {"status": "registered",
                           "grant": _grant(keypair={"sign_priv": "!!", "sign_pub": "!!",
                                                    "wrap_priv": "!!", "wrap_pub": "!!",
                                                    "key_id": "k"})},
    "keypair-33-byte-key": {"status": "registered", "grant": _grant(keypair={
        **_grant()["keypair"], "sign_priv": _grant()["keypair"]["sign_priv"][:-1] + "9"})},
    "no-friendly-name": {"status": "registered", "grant": _grant(friendly_name=None)},
    "token-not-string": {"status": "registered", "grant": _grant(auth_token=7)},
    "no-status": {},
    "error": {"error": "unknown code"},
}


@pytest.mark.parametrize("reply", HOSTILE_CHECKS.values(), ids=HOSTILE_CHECKS.keys())
def test_hostile_check_reply_is_noted_and_polled_again(reply):
    net = Network()
    net.add_lan("cloud", "10.0.0")
    net.add_lan("home", "192.168.50", nat=True)
    api = net.add_host("api")
    net.register_name(wire.API_NAME, net.attach(api, "cloud"))
    body = json.dumps({"method": "checkLinkCode", "args": reply}).encode()

    def answer(end, data):
        end.send(wire.http_serialize(wire.HttpMessage(
            kind="response", status=200, reason="OK", body=body)), layer="http", summary="hostile")
    api.listen(wire.TLS_PORT, lambda chan: setattr(chan, "handler", answer))
    dev = EchoDevice(net, SERIAL, random.Random("t:dev"), [])
    net.attach(dev.host, "home")
    poll_with_code(dev, "CODE1")
    net.run()
    notes = [e["summary"] for e in trace_events(net) if e["layer"] == "sys"]
    assert notes.count("link-code:check-failed") == LINK_POLL_MAX
    assert notes[-1] == "link-code:gave-up"
    assert dev.grant is None and dev.identity is None
