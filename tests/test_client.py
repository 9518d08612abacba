"""Companion app pairing flow, and the two attackers on the setup network."""

import random

import pytest

from echo_testbed import crypto, wire
from echo_testbed.calling import send_reply
from echo_testbed.cli import run_scenario
from echo_testbed.client import (
    CompanionApp,
    Eavesdropper,
    Hijacker,
    WifiCredential,
)
from echo_testbed.cloud import CloudServices
from echo_testbed.device import EchoDevice, WifiNetwork
from echo_testbed.netsim import Network, Observation, PairingNetwork

from trace_reader import trace_events

SERIAL = "EK-TEST-0001"
SSID = "Wren"
PASS = "wren-pass-7788"
ACCOUNT_PW = "pw-alice-1"


def make_world(*, visible=True, app_passphrase=PASS):
    net = Network()
    net.add_lan("cloud", "10.0.0")
    net.add_lan("home", "192.168.50", nat=True)
    cloud = CloudServices(net, random.Random("c:cloud"))
    cloud.provision_account("alice", ACCOUNT_PW)
    dev = EchoDevice(net, SERIAL, random.Random("c:dev"),
                     [WifiNetwork(SSID, "home", PASS)] if visible else [])
    cloud.provision_factory(dev.serial, dev.cert, dev.device_secret)
    cred = WifiCredential(SSID, app_passphrase)
    app = CompanionApp(net, "phone", "alice", ACCOUNT_PW, cred,
                       random.Random("c:ph"))
    app.join_home("home")
    return net, cloud, dev, app


def summaries(net):
    return [e["summary"] for e in trace_events(net)]


# ---------------------------------------------------------------------------
# credentials

def test_wifi_credential_validation():
    WifiCredential(SSID, PASS).validate()
    WifiCredential(SSID, "", security="open").validate()
    with pytest.raises(ValueError):
        WifiCredential(SSID, "short").validate()
    with pytest.raises(ValueError):
        WifiCredential("", PASS).validate()
    with pytest.raises(ValueError):
        WifiCredential(SSID, PASS, security="wep").validate()


def test_wifi_credential_round_trips():
    cred = WifiCredential(SSID, PASS)
    assert WifiCredential.from_canonical_bytes(cred.canonical_bytes()) == cred
    with pytest.raises(ValueError):
        WifiCredential.from_canonical_bytes(b'{"ssid": "x"}')
    with pytest.raises(ValueError):
        WifiCredential.from_canonical_bytes(b"\xff\xfe")


# ---------------------------------------------------------------------------
# the happy pairing dialogue

def test_full_pairing_happy_path():
    net, cloud, dev, app = make_world()
    app.start_pairing(dev.enter_setup())
    dialogue = app.dialogue
    net.run()
    assert app.outcome == "paired" and app.dialogue is None
    assert crypto.verify_certificate(dialogue.cert)
    assert dev.setup is None
    assert dev.grant["friendly_name"] == "Echo-0001"
    assert cloud.registry[SERIAL].account == "alice"
    assert cloud.registry[SERIAL].registered
    for expected in ("phone:link-code", "register-device:alice",
                     "grant:stored", "mode:paired", "avs:connected",
                     "phone:done:paired"):
        assert any(s.startswith(expected) for s in summaries(net)), expected


def test_pairing_aborts_when_home_ssid_not_visible():
    net, cloud, dev, app = make_world(visible=False)
    app.start_pairing(dev.enter_setup())
    net.run()
    assert app.outcome == "home-network-not-visible"
    assert dev.setup.wifi == "disconnected"
    assert dev.grant is None


def test_pairing_surfaces_device_side_auth_failure():
    net, cloud, dev, app = make_world(app_passphrase="wrong-pass-22")
    app.start_pairing(dev.enter_setup())
    net.run()
    assert app.outcome == "device-error:auth-failed"
    assert dev.setup.wifi == "disconnected"


def test_pairing_fails_on_bad_account_password():
    net, cloud, dev, app = make_world()
    app.password = "not-her-password"
    app.start_pairing(dev.enter_setup())
    net.run(200_000)
    assert app.outcome == "register-failed"
    assert SERIAL not in cloud.registry
    assert any(s == "register-device-refused:bad-credentials"
               for s in summaries(net))


# ---------------------------------------------------------------------------
# eavesdropper

def test_eavesdropper_recovers_exactly_the_open_leaks():
    net, cloud, dev, app = make_world()
    pairing = dev.enter_setup()
    eve = Eavesdropper(net, "eve")
    eve.join(pairing)
    app.start_pairing(pairing)
    dialogue = app.dialogue
    net.run()
    assert app.outcome == "paired"
    # the two things the open network gives away
    assert eve.link_code is not None
    assert eve.link_code == dialogue.link_code
    blob = crypto.EncryptedCredentialBlob.from_armor(eve.credential_armor)
    assert blob.ciphertext
    # and the things it never gives away
    all_clear = b"".join(eve.cleartext)
    assert eve.cleartext and all(type(data) is bytes for data in eve.cleartext)   # no records
    assert PASS.encode() not in all_clear
    assert ACCOUNT_PW.encode() not in all_clear
    # the tunneled registration showed nothing but lengths
    assert eve.secured_lengths


def test_eavesdropper_cannot_decrypt_captured_blob():
    net, cloud, dev, app = make_world()
    pairing = dev.enter_setup()
    eve = Eavesdropper(net, "eve")
    eve.join(pairing)
    app.start_pairing(pairing)
    net.run()
    blob = crypto.EncryptedCredentialBlob.from_armor(eve.credential_armor)
    with pytest.raises(crypto.CryptoError):
        crypto.decrypt_credential(blob, crypto.keygen(random.Random("eve")))
    # contrast: the device's own factory key opens it
    cred = crypto.decrypt_credential(blob, dev.keypair)
    assert cred.passphrase == PASS


# ---------------------------------------------------------------------------
# hijacker

def hijack_world(*, bound_to=None, uplink=True, prepare=None):
    net, cloud, dev, app = make_world()
    net.add_lan("cell", "10.9.0", nat=True)
    cloud.provision_account("mallory", "mallory-pw-1")
    if bound_to is not None:
        cloud.provision_grant(SERIAL, bound_to)
    if prepare is not None:
        prepare(cloud)
    mallet = Hijacker(net, "mallet", "mallory", "mallory-pw-1")
    pairing = dev.enter_setup()
    mallet.join(pairing)
    if uplink:
        mallet.bring_uplink("cell")
    app.start_pairing(pairing)
    net.run()
    return net, cloud, dev, app, mallet


def hung_up(net, host_name):
    """Whether host_name has closed every channel it is an end of."""
    return not [c for c in net.channels if not c.closed
                and host_name in (end.host.name for end in c.ends)]


def test_hijack_refused_while_device_is_bound():
    net, cloud, dev, app, mallet = hijack_world(bound_to="alice")
    assert mallet.result == "refused:device already registered"
    assert app.outcome == "paired"
    assert cloud.registry[SERIAL].account == "alice"
    assert any(s == "hijack:refused" for s in summaries(net))
    assert hung_up(net, "mallet")   # one call, one reply


def test_hijack_wins_after_deregistration():
    def deregistered(cloud):
        cloud.provision_grant(SERIAL, "alice")
        cloud.deregister_device(SERIAL)

    net, cloud, dev, app, mallet = hijack_world(prepare=deregistered)
    assert mallet.result == "hijacked"
    assert cloud.registry[SERIAL].account == "mallory"
    assert app.outcome == "register-failed"
    # the attacker's WAN round trip beats the owner's tunneled one
    assert any(s == "hijack:succeeded" for s in summaries(net))
    assert hung_up(net, "mallet")


def test_hijacker_without_uplink_has_no_route():
    net, cloud, dev, app, mallet = hijack_world(uplink=False)
    assert mallet.result == "no-route"
    assert app.outcome == "paired"
    assert cloud.registry[SERIAL].account == "alice"


# ---------------------------------------------------------------------------
# a reply whose args is not an object is refused, never raised

HOSTILE_ARGS = [b"[1]", b'"code"', b"null"]


def hostile_peer(host, port, args):
    """Make host answer every call on port with args that are not an object."""
    body = b'{"method":"getRegistrationState","args":' + args + b"}"
    reply = wire.http_serialize(wire.HttpMessage(kind="response", status=200,
                                                 reason="OK", body=body))

    def accept(chan):
        chan.handler = lambda end, data: end.send(reply, layer="http", summary="hostile")
    host.listen(port, accept)


def hostile_api(net, args):
    """A network whose api name resolves to a hostile peer."""
    net.add_lan("cloud", "10.0.0")
    api = net.add_host("api")
    net.register_name(wire.API_NAME, net.attach(api, "cloud"))
    hostile_peer(api, wire.TLS_PORT, args)


@pytest.mark.parametrize("args", HOSTILE_ARGS)
def test_companion_app_ends_on_a_hostile_reply(args):
    net = Network()
    fake = net.add_host("fake-echo")
    hostile_peer(fake, wire.OOBE_PORT, args)
    app = CompanionApp(net, "phone", "alice", ACCOUNT_PW, WifiCredential(SSID, PASS),
                       random.Random("c:ph"))
    app.start_pairing(PairingNetwork(net, fake, "Amazon-EVL"))
    net.run()
    assert app.outcome == "protocol-error"


@pytest.mark.parametrize("args", HOSTILE_ARGS)
def test_device_api_client_answers_a_hostile_reply_with_an_error(args):
    net = Network()
    hostile_api(net, args)
    net.add_lan("home", "192.168.50", nat=True)
    dev = EchoDevice(net, SERIAL, random.Random("c:dev"), [])
    net.attach(dev.host, "home")
    answers = []
    dev._api_call("createLinkCode", {"serial": SERIAL}, answers.append)
    net.run()
    assert answers == [{"error": "unparseable-reply"}]


@pytest.mark.parametrize("args", HOSTILE_ARGS)
def test_hijacker_records_a_hostile_reply(args):
    net = Network()
    hostile_api(net, args)
    net.add_lan("cell", "10.9.0", nat=True)
    mallet = Hijacker(net, "mallet", "mallory", "mallory-pw-1")
    mallet.bring_uplink("cell")
    mallet.on_link_code("ABCDE")
    net.run()
    assert mallet.result == "protocol-error"


def scripted_echo(net, replies):
    """A fake device whose pairing API answers each method with replies[method]."""
    fake = net.add_host("fake-echo")

    def answer(end, data):
        env = wire.oobe_decode(wire.http_parse(data))
        send_reply(end, env.method, replies[env.method])
    fake.listen(wire.OOBE_PORT, lambda chan: setattr(chan, "handler", answer))
    return fake


def pair_with(replies):
    net = Network()
    fake = scripted_echo(net, {"ping": {"pong": True}, **replies})
    app = CompanionApp(net, "phone", "alice", ACCOUNT_PW, WifiCredential(SSID, PASS),
                       random.Random("c:ph"))
    app.start_pairing(PairingNetwork(net, fake, "Amazon-EVL"))
    net.run()
    return app.outcome


FAKE_CERT = crypto.self_sign(crypto.keygen(random.Random("c:fake")), "EK-FAKE-0001").to_dict()


@pytest.mark.parametrize("certificate", [[1], "cert", None, 7])
def test_companion_app_refuses_a_certificate_that_is_not_an_object(certificate):
    assert pair_with({"getDeviceDetails": {"certificate": certificate}}) == "bad-certificate"


def test_companion_app_refuses_a_forged_certificate_and_seals_nothing():
    # the subject is changed after signing, so the self-signature fails; the
    # passphrase is never sealed to the key the certificate carries
    net = Network()
    fake = scripted_echo(net, {"ping": {"pong": True},
                               "getDeviceDetails": {"certificate": {**FAKE_CERT,
                                                                    "subject": SERIAL}},
                               "getScanList": {"networks": [{"ssid": SSID}]},
                               "connectToAP": {}, "getRegistrationState": {}})
    app = CompanionApp(net, "phone", "alice", ACCOUNT_PW, WifiCredential(SSID, PASS),
                       random.Random("c:ph"))
    app.start_pairing(PairingNetwork(net, fake, "Amazon-EVL"))
    net.run()
    assert app.outcome == "bad-certificate"
    assert [e["summary"] for e in trace_events(net) if e["src"] == "phone"
            and e["layer"] == "oobe"] == ["ping", "getDeviceDetails"]


@pytest.mark.parametrize("networks,outcome", [
    ("Wren", "protocol-error"), ([1], "protocol-error"), ({"ssid": SSID}, "protocol-error"),
    ([{"ssid": SSID}, "x"], "protocol-error"), ([{"ssid": [1]}], "home-network-not-visible"),
])
def test_companion_app_ends_on_a_scan_list_that_is_not_objects(networks, outcome):
    assert pair_with({"getDeviceDetails": {"certificate": FAKE_CERT},
                      "getScanList": {"networks": networks}}) == outcome


@pytest.mark.parametrize("credential", [7, None, [1]])
def test_eavesdropper_ignores_a_credential_that_is_not_a_string(credential):
    net = Network()
    eve = Eavesdropper(net, "eve")
    data = wire.http_serialize(wire.oobe_encode(
        wire.OobeEnvelope("connectToAP", {"ssid": SSID, "credential": credential})))
    eve._observe(Observation(length=len(data), data=data))
    assert eve.credential_armor is None
    assert net.trace.jsonl() == ""


# ---------------------------------------------------------------------------
# a dialogue or setup stay that has ended never acts on the next

def done_notes(net):
    return [(e["src"], e["summary"]) for e in trace_events(net)
            if e["summary"].startswith("phone:done:")]


def test_a_paired_device_re_pairs_onto_its_own_lan():
    net, cloud, dev, app = make_world()
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    app.start_pairing(dev.enter_setup())
    net.run()
    assert app.outcome == "paired" and dev.setup is None
    assert "mode:wifi-connected" in summaries(net)


def test_a_re_paired_device_keeps_one_voice_and_one_sip_channel():
    net, cloud, dev, app = make_world()
    dev.provision_paired("home", cloud.provision_grant(SERIAL, "alice"))
    net.scheduler.at(10, dev.enter_setup)
    net.scheduler.at(20, lambda: app.start_pairing(dev.setup.pairing))
    net.run()
    assert app.outcome == "paired"
    dialled = sorted(chan.ends[1].host.name for chan in net.channels
                     if chan.ends[0].host is dev.host and not chan.closed)
    assert dialled == ["avs", "sip"]
    notes = summaries(net)
    re_paired = notes.index("mode:paired")
    assert sum(n.startswith("sip:bind:") for n in notes[re_paired:]) == 1


RE_PAIR = [{"at": 100, "op": "enter_setup", "device": "EK-A-0001"},
           {"at": 110, "op": "start_pairing", "device": "EK-A-0001", "client": "phone"}]


def run_re_pair(*moves, **speaker):
    """Run a home where speaker a (EK-A-0001) is re-paired by the phone at
    100-110 beside speaker b (EK-B-0002), with moves added; return the run
    and the open channels a dialled, by the host they reach."""
    devices = [{"serial": serial, "host": host, "state": "paired", "account": "alice",
                "lan": "home", **speaker} for serial, host in (("EK-A-0001", "a"),
                                                               ("EK-B-0002", "b"))]
    result = run_scenario({
        "name": "re-pair", "seed": "re-pair-v1",
        "topology": {"lans": [{"name": "home", "prefix": "192.168.50"}],
                     "accounts": [{"id": "alice", "password": ACCOUNT_PW}],
                     "wifi": [{"ssid": SSID, "lan": "home", "passphrase": PASS}],
                     "devices": devices,
                     "clients": [{"name": "phone", "account": "alice", "wifi": SSID}]},
        "actions": RE_PAIR + list(moves), "assertions": []})
    net = result.world.network
    dialled = sorted(chan.ends[1].host.name for chan in net.channels
                     if chan.ends[0].host.name == "a" and not chan.closed)
    return result, dialled


def re_pair_window():
    """The ms a's re-pair ends, and the ms its new SIP binding is made."""
    events = trace_events(run_re_pair()[0].world.network)
    paired = next(e["t_ms"] for e in events if e["summary"] == "mode:paired")
    bound = [e["t_ms"] for e in events if e["summary"] == "sip:bind:sip:dev-EK-A-0001@echo.example"]
    return paired, bound[-1]


def test_a_re_paired_device_is_reachable_while_it_dials_again():
    paired, bound = re_pair_window()
    assert bound > paired + 2   # a voice session and a registration to re-make
    for at in range(paired, bound + 1):
        refresh, _ = run_re_pair({"at": at, "op": "refresh", "device": "EK-A-0001"})
        call, dialled = run_re_pair({"at": at, "op": "start_call", "device": "EK-B-0002",
                                     "callee": "sip:dev-EK-A-0001@echo.example",
                                     "call_type": "call"})
        assert (refresh.exit_code, refresh.error, call.exit_code, call.error) == (0, None, 0, None)
        assert [e["summary"] for e in trace_events(refresh.world.network)
                ].count("avs:refresh-ack") == 1
        assert any(e["summary"].startswith("keys:recorded:answer:")
                   for e in trace_events(call.world.network))
        assert dialled == ["avs", "sip"]


@pytest.mark.parametrize("hangs_up", ["EK-A-0001", "EK-B-0002"])
def test_a_call_under_way_follows_a_re_paired_caller(hangs_up):
    _, bound = re_pair_window()
    result, dialled = run_re_pair(
        {"at": 50, "op": "start_call", "device": "EK-A-0001",
         "callee": "sip:dev-EK-B-0002@echo.example", "call_type": "call"},
        {"at": bound + 100, "op": "end_call", "device": hangs_up},
        auto_bye=False)
    assert (result.exit_code, result.error) == (0, None)
    assert dialled == ["avs", "sip"]
    # the BYE reaches the other speaker, whichever hung up, and the call ends
    events = trace_events(result.world.network)
    byes = [e["dst"] for e in events if e["summary"] == "BYE" and e["src"] == "sip"]
    assert byes == ["b" if hangs_up == "EK-A-0001" else "a"]
    assert all(call.state == "closed" for dev in result.world.devices.values()
               for call in dev.comms.calls.values())
    assert [e["summary"] for e in events].count("call:closed:call-EK-A-0001-1") == 1


def test_a_device_pairs_enters_setup_and_pairs_again():
    net, cloud, dev, app = make_world()
    for _ in range(2):
        app.start_pairing(dev.enter_setup())
        net.run()
    assert done_notes(net) == [("phone", "phone:done:paired")] * 2
    # nothing carries over: each dialogue fetched a link code of its own
    codes = [e["payload"]["code"] for e in trace_events(net)
             if e["summary"] == "phone:link-code"]
    assert len(codes) == 2 and codes[0] != codes[1]


def test_a_second_start_pairing_restarts_the_dialogue():
    net, cloud, dev, app = make_world()
    pairing = dev.enter_setup()
    net.scheduler.at(24, app.start_pairing, pairing)
    net.scheduler.at(61, app.start_pairing, pairing)
    net.run()
    assert done_notes(net) == [("phone", "phone:done:restarted"), ("phone", "phone:done:paired")]
    assert app.dialogue is None and dev.setup is None


@pytest.mark.parametrize("rival_at", [
    2320,   # the rival is polling the device when the setup network goes down
    2059,   # the rival's CONNECT reaches the device after it went down
])
def test_teardown_ends_the_losing_phone_as_device_gone(rival_at):
    net, cloud, dev, app = make_world()
    rival = CompanionApp(net, "rival", "alice", ACCOUNT_PW, WifiCredential(SSID, PASS),
                         random.Random("c:rival"))
    rival.join_home("home")
    pairing = dev.enter_setup()
    net.scheduler.at(20, app.start_pairing, pairing)
    net.scheduler.at(rival_at, rival.start_pairing, pairing)
    net.run()
    assert done_notes(net) == [("phone", "phone:done:paired"), ("rival", "phone:done:device-gone")]
    assert (app.outcome, rival.outcome) == ("paired", "device-gone")


def test_a_device_whose_wifi_is_isolated_answers_each_link_code_call():
    net, cloud, dev, app = make_world()
    net.add_lan("shed", "192.168.60", isolated=True)
    dev.visible_wifi = {SSID: WifiNetwork(SSID, "shed", PASS)}
    pairing = dev.enter_setup()
    # the service is out of reach, so each getLinkCode is refused at once
    for _ in range(2):
        app.start_pairing(pairing)
        net.run()
    assert done_notes(net) == [("phone", "phone:done:device-error:cloud-unreachable")] * 2
    assert dev.setup.waiting == []
