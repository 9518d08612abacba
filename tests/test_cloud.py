"""Service-side logic: the device API, the voice-service gate, SIP routing."""

import importlib.util
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from echo_testbed import cloud as cloud_module, crypto, netsim, wire
from echo_testbed.calling import (MEDIA_CADENCE_MS, CommsEndpoint, device_uri, make_sip_request,
                                  make_sip_response, send_sip)
from echo_testbed.cli import BUILTINS, load_scenario, run_scenario
from echo_testbed.cloud import CALL_TOKEN_TTL_MS, CloudServices, LINK_CODE_TTL_MS
from echo_testbed.device import DEVICE_TYPE
from echo_testbed.netsim import NetError, Network

from trace_reader import check_invariants, trace_events

SERIAL = "EK-TEST-0001"


def make_cloud():
    net = Network()
    net.add_lan("cloud", "10.0.0")
    net.add_lan("home", "192.168.50", nat=True)
    cloud = CloudServices(net, random.Random("s:cloud"))
    cloud.provision_account("alice", "pw-alice")
    return net, cloud


def factory_device(net, cloud, serial=SERIAL):
    kp = crypto.keygen(random.Random(f"s:{serial}"))
    cert = crypto.self_sign(kp, serial)
    secret = "aa" * 16
    cloud.provision_factory(serial, cert, secret)
    return kp, cert, secret


class Probe:
    """A bare host on the home LAN that can speak to any cloud service."""

    def __init__(self, net, name="cust"):
        self.net = net
        self.host = net.add_host(name)
        net.attach(self.host, "home")
        self.api_replies = []
        self.ctrl_replies = []
        self.sip_replies = []

    def api(self, method, args):
        addr = self.net.lookup("api.echo.example", self.host)
        chan = self.net.open_channel(self.host, addr, 443, secured=True)
        chan.handler = lambda end, data: self.api_replies.append(
            (wire.http_parse(data).status,
             wire.oobe_decode_response(wire.http_parse(data)).args))
        chan.send(wire.http_serialize(wire.api_encode(
            wire.OobeEnvelope(method, args))), layer="http", summary=method)
        self.net.run()
        return self.api_replies[-1]

    def avs_channel(self):
        addr = self.net.lookup("avs.echo.example", self.host)
        chan = self.net.open_channel(self.host, addr, 443, secured=True)
        chan.handler = lambda end, data: self.ctrl_replies.append(
            wire.control_decode(data))
        return chan

    def control(self, chan, interface, name, payload):
        msg = wire.ControlMessage(interface=interface, name=name, payload=payload)
        chan.send(wire.control_encode(msg), layer="control", summary=msg.qualified)
        self.net.run()

    def negotiate(self, payload, chan=None):
        chan = chan or self.avs_channel()
        self.control(chan, "System", "NegotiationCommand", payload)
        return self.ctrl_replies[-1], chan

    def sip(self, msg):
        addr = self.net.lookup("sip.echo.example", self.host)
        chan = self.net.open_channel(self.host, addr, 443, secured=True)
        chan.handler = lambda end, data: self.sip_replies.append(
            wire.sip_parse(data))
        chan.send(wire.sip_serialize(msg), layer="sip", summary="probe")
        self.net.run()
        return self.sip_replies[-1]


def nego_payload(grant, serial, ts, *, sign_with=None, auth_token=None):
    body = {"auth_token": auth_token or grant["auth_token"],
            "device_type": DEVICE_TYPE, "serial": serial, "timestamp": ts}
    signed = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    kp = sign_with or crypto.AsymKeypair.from_dict(grant["keypair"])
    body["signature"] = crypto.sign_detached(kp, signed).hex()
    return body


def notes(net):
    return [e["summary"] for e in trace_events(net) if e["layer"] == "sys"]


# ---------------------------------------------------------------------------
# provisioning and names

def test_service_names_resolve_and_sit_on_the_cloud_lan():
    net, cloud = make_cloud()
    probe = Probe(net)
    for name in ("api", "avs", "sip", "relay", "gateway"):
        addr = net.lookup(f"{name}.echo.example", probe.host)
        host, lan = net.whereis(addr)
        assert lan.name == "cloud"
        assert host.name == name


def test_provision_factory_rejects_forged_certificate():
    net, cloud = make_cloud()
    kp = crypto.keygen(random.Random("forge"))
    good = crypto.self_sign(kp, SERIAL)
    forged = crypto.DeviceCertificate(subject="EK-OTHER-9999", public=good.public,
                                      signature=good.signature)
    with pytest.raises(ValueError):
        cloud.provision_factory("EK-OTHER-9999", forged, "00" * 16)


def test_provision_grant_requires_known_account():
    net, cloud = make_cloud()
    with pytest.raises(ValueError):
        cloud.provision_grant(SERIAL, "nobody")


def test_a_grant_keeps_the_key_objects_but_not_the_cloud_keypair_it_was_minted_as():
    net, cloud = make_cloud()
    grant = cloud.provision_grant(SERIAL, "alice")
    written = grant["keypair"]
    sign_pub, wrap_pub = (crypto._unb64(written[k]) for k in ("sign_pub", "wrap_pub"))
    # the registries are weak: an entry would mean the cloud's keypair lives on
    assert sign_pub not in crypto._SIGNERS and wrap_pub not in crypto._RECIPIENTS
    identity = crypto.AsymKeypair.from_dict(written)
    assert sign_pub not in crypto._SIGNERS
    with mock.patch.object(crypto.Ed25519PrivateKey, "from_private_bytes") as build:
        signature = crypto.sign_detached(identity, b"hello")
    build.assert_not_called()
    assert crypto._SIGNERS[sign_pub] is identity
    crypto.Ed25519PublicKey.from_public_bytes(sign_pub).verify(signature, b"hello")


def test_a_grant_records_its_signing_key_object_alone():
    net, cloud = make_cloud()
    made = cloud.provision_grant(SERIAL, "alice")["keypair"].made
    assert isinstance(made[1], crypto.Ed25519PrivateKey)
    assert not any(isinstance(held, crypto.X25519PrivateKey) for held in made)


# ---------------------------------------------------------------------------
# link code API

def test_create_link_code_needs_factory_secret():
    net, cloud = make_cloud()
    _, _, secret = factory_device(net, cloud)
    probe = Probe(net)
    status, args = probe.api("createLinkCode", {"serial": SERIAL,
                                                "secret": "deadbeef"})
    assert status == 403 and args["error"] == "bad device identity"
    status, args = probe.api("createLinkCode", {"serial": SERIAL,
                                                "secret": secret})
    assert status == 200
    assert len(args["code"]) == 5
    assert args["code"] in cloud.link_codes


def test_check_link_code_lifecycle():
    net, cloud = make_cloud()
    _, _, secret = factory_device(net, cloud)
    probe = Probe(net)
    _, args = probe.api("createLinkCode", {"serial": SERIAL, "secret": secret})
    code = args["code"]
    status, args = probe.api("checkLinkCode", {"code": "ZZZZZ", "secret": secret})
    assert status == 403 and args["error"] == "unknown code"
    status, args = probe.api("checkLinkCode", {"code": code, "secret": "bad"})
    assert status == 403 and args["error"] == "unknown code"
    status, args = probe.api("checkLinkCode", {"code": code, "secret": secret})
    assert args == {"status": "pending"}
    _, args = probe.api("registerDevice", {"account": "alice",
                                           "password": "pw-alice",
                                           "link_code": code})
    assert args == {"ok": True}
    status, args = probe.api("checkLinkCode", {"code": code, "secret": secret})
    assert status == 200 and args["status"] == "registered"
    grant = args["grant"]
    assert grant["account"] == "alice"
    # the grant is minted once; a re-check hands back the same one
    status, args2 = probe.api("checkLinkCode", {"code": code, "secret": secret})
    assert args2["grant"] == grant
    assert notes(net).count(f"grant:issued:{SERIAL}") == 1


def test_link_code_expires_after_ttl():
    net, cloud = make_cloud()
    _, _, secret = factory_device(net, cloud)
    probe = Probe(net)
    _, args = probe.api("createLinkCode", {"serial": SERIAL, "secret": secret})
    code = args["code"]
    net.scheduler.at(LINK_CODE_TTL_MS + 1, lambda: None)
    net.run()
    status, args = probe.api("checkLinkCode", {"code": code, "secret": secret})
    assert args == {"status": "expired"}
    status, args = probe.api("registerDevice", {"account": "alice",
                                                "password": "pw-alice",
                                                "link_code": code})
    assert status == 403 and args["error"] == "expired link code"


def test_register_device_refusal_ladder():
    net, cloud = make_cloud()
    _, _, secret = factory_device(net, cloud)
    probe = Probe(net)
    _, args = probe.api("createLinkCode", {"serial": SERIAL, "secret": secret})
    code = args["code"]
    status, args = probe.api("registerDevice", {"account": "alice",
                                                "password": "wrong",
                                                "link_code": code})
    assert status == 403 and args["error"] == "bad credentials"
    status, args = probe.api("registerDevice", {"account": "alice",
                                                "password": "pw-alice",
                                                "link_code": "XXXXX"})
    assert status == 403 and args["error"] == "unknown link code"
    _, args = probe.api("registerDevice", {"account": "alice",
                                           "password": "pw-alice",
                                           "link_code": code})
    assert args == {"ok": True}
    status, args = probe.api("registerDevice", {"account": "alice",
                                                "password": "pw-alice",
                                                "link_code": code})
    assert status == 403 and args["error"] == "code already used"


def test_cross_account_registration_blocked_until_deregistered():
    net, cloud = make_cloud()
    _, _, secret = factory_device(net, cloud)
    cloud.provision_account("mallory", "pw-mallory")
    cloud.provision_grant(SERIAL, "alice")
    probe = Probe(net)

    def try_register(account, password):
        _, args = probe.api("createLinkCode", {"serial": SERIAL,
                                               "secret": secret})
        return probe.api("registerDevice", {"account": account,
                                            "password": password,
                                            "link_code": args["code"]})

    status, args = try_register("mallory", "pw-mallory")
    assert status == 403 and args["error"] == "device already registered"
    # the bound account itself may re-run setup
    status, args = try_register("alice", "pw-alice")
    assert args == {"ok": True}
    # once deregistered, anyone may claim the device
    cloud.deregister_device(SERIAL)
    status, args = try_register("mallory", "pw-mallory")
    assert args == {"ok": True}


@pytest.mark.parametrize("method,args", [
    ("createLinkCode", {"serial": [1], "secret": "aa"}),
    ("createLinkCode", {"serial": SERIAL}),
    ("checkLinkCode", {"code": {}, "secret": "aa"}),
    ("registerDevice", {"account": [1], "password": "pw-alice", "link_code": "ABCDE"}),
    ("registerDevice", {"account": "alice", "password": "pw-alice", "link_code": [1]}),
])
def test_api_call_without_its_string_args_is_400(method, args):
    net, cloud = make_cloud()
    factory_device(net, cloud)
    probe = Probe(net)
    assert probe.api(method, args) == (400, {"error": "bad args"})
    assert not cloud.link_codes


def test_unknown_api_method_is_400():
    net, cloud = make_cloud()
    probe = Probe(net)
    status, args = probe.api("selfDestruct", {})
    assert status == 400 and args["error"] == "unknown method"


# ---------------------------------------------------------------------------
# voice-service admission, checks in order

def granted(net, cloud):
    factory_device(net, cloud)
    return cloud.provision_grant(SERIAL, "alice")


def test_negotiation_accepts_a_fresh_signed_command():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reply, chan = probe.negotiate(nego_payload(grant, SERIAL,
                                               net.scheduler.now))
    assert reply.name == "NegotiationAccepted"
    assert reply.payload["session"].startswith("avs-")
    assert cloud.avs_sessions[SERIAL] is not None


def test_negotiation_rejects_unregistered_serial_first():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    # wrong serial AND garbage signature: the registry check speaks first
    bad = nego_payload(grant, "EK-GHOST-0000", net.scheduler.now)
    bad["signature"] = "00"
    reply, _ = probe.negotiate(bad)
    assert reply.payload["reason"] == "not-registered"


def test_negotiation_rejects_deregistered_device():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    cloud.deregister_device(SERIAL)
    probe = Probe(net)
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL, net.scheduler.now))
    assert reply.payload["reason"] == "not-registered"


def test_negotiation_rejects_wrong_signer_before_token_checks():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    stranger = crypto.keygen(random.Random("stranger"))
    # stale timestamp too, but the signature check comes earlier
    bad = nego_payload(grant, SERIAL, -99_999, sign_with=stranger)
    reply, _ = probe.negotiate(bad)
    assert reply.payload["reason"] == "bad-signature"


@pytest.mark.parametrize("signature", ["zz", "abc"], ids=["not-hex", "odd-length"])
def test_negotiation_judges_a_signature_that_is_not_hex_a_bad_one(signature):
    net, cloud = make_cloud()
    hello = nego_payload(granted(net, cloud), SERIAL, net.scheduler.now)
    hello["signature"] = signature
    reply, _ = Probe(net).negotiate(hello)
    assert reply.payload["reason"] == "bad-signature"


def test_a_session_whose_device_hangs_up_is_dropped():
    net, cloud = make_cloud()
    reply, chan = Probe(net).negotiate(nego_payload(granted(net, cloud), SERIAL,
                                                    net.scheduler.now))
    assert reply.name == "NegotiationAccepted"
    chan.close()
    net.run()
    assert SERIAL not in cloud.avs_sessions
    with pytest.raises(NetError, match="has no voice-service session"):
        cloud.start_call(SERIAL, CALLEE, "call")


def test_negotiation_rejects_garbage_token():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    bad = nego_payload(grant, SERIAL, net.scheduler.now, auth_token="AAAA")
    reply, _ = probe.negotiate(bad)
    assert reply.payload["reason"] == "bad-token"


@pytest.mark.parametrize("auth_token", [7, "!!not base64"], ids=["int", "not-base64"])
def test_negotiation_notes_a_token_that_is_not_base64_text(auth_token):
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL, net.scheduler.now,
                                            auth_token=auth_token))
    assert reply.payload["reason"] == "bad-token"
    assert "avs:rejected:bad-token" in notes(net)


def test_negotiation_rejects_token_minted_for_another_device():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    other_kp = crypto.keygen(random.Random("s:other"))
    cloud.provision_factory("EK-OTHER-0002", crypto.self_sign(other_kp,
                                                              "EK-OTHER-0002"),
                            "bb" * 16)
    other_grant = cloud.provision_grant("EK-OTHER-0002", "alice")
    probe = Probe(net)
    crossed = nego_payload(grant, SERIAL, net.scheduler.now,
                           auth_token=other_grant["auth_token"])
    reply, _ = probe.negotiate(crossed)
    assert reply.payload["reason"] == "token-mismatch"


def test_negotiation_rejects_stale_and_future_timestamps():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    # margins past the window are generous because the command spends a
    # few virtual ms in flight before the service checks it
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL,
                                            net.scheduler.now - 31_000))
    assert reply.payload["reason"] == "stale-timestamp"
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL,
                                            net.scheduler.now + 31_000))
    assert reply.payload["reason"] == "stale-timestamp"


def test_negotiation_rejects_replayed_timestamp():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    ts = net.scheduler.now
    first = nego_payload(grant, SERIAL, ts)
    reply, _ = probe.negotiate(first)
    assert reply.name == "NegotiationAccepted"
    # byte-for-byte replay, still inside the freshness window
    reply, _ = probe.negotiate(first)
    assert reply.payload["reason"] == "replayed-timestamp"
    # and anything at or below the high-water mark
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL, ts - 1))
    assert reply.payload["reason"] == "replayed-timestamp"


def test_a_refused_hello_closes_its_channel_after_the_rejection_lands():
    result = run_scenario(load_scenario("avs_replay"))
    net = result.world.network
    assert result.exit_code == 0
    # the device still hears why: the rejection was in flight at the close
    assert notes(net)[-2:] == ["avs:rejected:stale-timestamp", "avs:refused:stale-timestamp"]
    assert [c.cid for c in net.channels if not c.closed] == [1, 2]
    kitchen, avs = net.hosts["kitchen"], net.hosts["avs"]
    assert sorted(net._open[kitchen, "home-a"]) == [1, 2]
    assert sorted(net._open[avs, "cloud"]) == [1]


def test_unparseable_avs_bytes_are_noted_never_accepted():
    net, cloud = make_cloud()
    granted(net, cloud)
    probe = Probe(net)
    chan = probe.avs_channel()
    chan.send(b"\xff\xfenot-a-control-message", layer="control", summary="junk")
    net.run()
    assert "avs:unparseable" in notes(net)
    assert SERIAL not in cloud.avs_sessions


def test_configure_comms_requires_negotiated_session():
    net, cloud = make_cloud()
    granted(net, cloud)
    probe = Probe(net)
    probe.control(probe.avs_channel(), "SipClient", "ConfigureCommsRequest",
                  {"serial": SERIAL})
    assert probe.ctrl_replies[-1].payload == {"error": "no negotiated session"}


@pytest.mark.parametrize("payload", [[1], [], "text", 7, True, {"serial": [1]},
                                     {"serial": SERIAL, "signature": 5}])
def test_misshapen_negotiation_payload_is_unparseable(payload):
    net, cloud = make_cloud()
    granted(net, cloud)
    probe = Probe(net)
    probe.control(probe.avs_channel(), "System", "NegotiationCommand", payload)
    assert "avs:unparseable" in notes(net)
    assert probe.ctrl_replies == []
    assert SERIAL not in cloud.avs_sessions


@pytest.mark.parametrize("payload,reason", [
    (None, "not-registered"), ({"serial": SERIAL}, "bad-signature"),
    ({"signature": "00"}, "not-registered")])
def test_hello_without_serial_or_signature_is_judged_not_unparseable(payload, reason):
    # a null hello counts as {}, a missing field as ""
    net, cloud = make_cloud()
    granted(net, cloud)
    reply, _ = Probe(net).negotiate(payload)
    assert (reply.name, reply.payload) == ("NegotiationRejected", {"reason": reason})
    assert "avs:unparseable" not in notes(net)


@pytest.mark.parametrize("payload", [[1], "text", 7, None, {}, {"serial": [1]}])
def test_non_object_comms_request_gets_the_error_response(payload):
    # on a negotiated session, so the payload itself is what gets judged
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reply, chan = probe.negotiate(nego_payload(grant, SERIAL, net.scheduler.now))
    assert reply.name == "NegotiationAccepted"
    probe.control(chan, "SipClient", "ConfigureCommsRequest", payload)
    assert probe.ctrl_replies[-1].payload == {"error": "no negotiated session"}


def test_only_listed_sipclient_names_are_noted():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    _, chan = probe.negotiate(nego_payload(grant, SERIAL, net.scheduler.now))
    probe.control(chan, "SipClient", "WarmUp", {})
    probe.control(chan, "SipClient", "CallDisconnected", {"call_id": "c-1"})
    probe.control(chan, "SipClient", "SelfDestruct", {"now": True})
    events = [(e["summary"], e.get("payload")) for e in trace_events(net) if e["layer"] == "sys"]
    assert events[-2:] == [("ctrl:SipClient.WarmUp", {}),
                           ("ctrl:SipClient.CallDisconnected", {"call_id": "c-1"})]


def test_directives_require_a_session():
    net, cloud = make_cloud()
    granted(net, cloud)
    for op in (lambda: cloud.start_call(SERIAL, "tel:+1555", "call"),
               lambda: cloud.end_call(SERIAL),
               lambda: cloud.refresh(SERIAL)):
        with pytest.raises(NetError, match="no voice-service session"):
            op()


# ---------------------------------------------------------------------------
# SIP registrar

def test_register_rejects_garbage_token():
    _register_refused_for_bad_token("AAAA")


def test_register_rejects_a_token_that_is_not_base64():
    _register_refused_for_bad_token("!!not-base64")


def _register_refused_for_bad_token(token):
    net, cloud = make_cloud()
    granted(net, cloud)
    probe = Probe(net)
    reg = make_sip_request("REGISTER", "sip:echo.example",
                           from_uri=device_uri(SERIAL),
                           to_uri=device_uri(SERIAL), call_id="reg-x", cseq=1,
                           via="192.168.50.2",
                           headers=[("X-authtoken", token)])
    resp = probe.sip(reg)
    assert resp.status == 403
    assert "sip:bind-refused:bad-token" in notes(net)
    assert device_uri(SERIAL) not in cloud.bindings


def test_register_rejects_spoofed_from_uri():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reg = make_sip_request("REGISTER", "sip:echo.example",
                           from_uri=device_uri("EK-GHOST-0000"),
                           to_uri=device_uri(SERIAL), call_id="reg-x", cseq=1,
                           via="192.168.50.2",
                           headers=[("X-authtoken", grant["auth_token"])])
    resp = probe.sip(reg)
    assert resp.status == 403
    assert "sip:bind-refused:identity" in notes(net)


def test_register_rejects_deregistered_device_token():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    cloud.deregister_device(SERIAL)
    probe = Probe(net)
    reg = make_sip_request("REGISTER", "sip:echo.example",
                           from_uri=device_uri(SERIAL),
                           to_uri=device_uri(SERIAL), call_id="reg-x", cseq=1,
                           via="192.168.50.2",
                           headers=[("X-authtoken", grant["auth_token"])])
    resp = probe.sip(reg)
    assert resp.status == 403
    assert "sip:bind-refused:identity" in notes(net)


def test_register_binds_device_and_account_aliases():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reg = make_sip_request("REGISTER", "sip:echo.example",
                           from_uri=device_uri(SERIAL),
                           to_uri=device_uri(SERIAL), call_id="reg-x", cseq=1,
                           via="192.168.50.2",
                           headers=[("Contact", "<sip:dev@192.168.50.2>"),
                                    ("X-authtoken", grant["auth_token"]),
                                    ("X-intercom", "yes")])
    resp = probe.sip(reg)
    assert resp.status == 200
    dev_bindings = cloud.bindings[device_uri(SERIAL)]
    alias_bindings = cloud.bindings["sip:user-alice@echo.example"]
    assert len(dev_bindings) == 1 and dev_bindings[0].intercom
    assert alias_bindings == dev_bindings
    # re-registration replaces, not duplicates
    probe.sip(reg)
    assert len(cloud.bindings[device_uri(SERIAL)]) == 1


def _register_on(net, probe, grant, serial=SERIAL):
    """REGISTER on a fresh SIP channel; returns the probe's end of it."""
    addr = net.lookup("sip.echo.example", probe.host)
    chan = net.open_channel(probe.host, addr, 443, secured=True)
    chan.handler = lambda end, data: probe.sip_replies.append(wire.sip_parse(data))
    reg = make_sip_request("REGISTER", "sip:echo.example", from_uri=device_uri(serial),
                           to_uri=device_uri(serial), call_id="reg-x", cseq=1,
                           via="192.168.50.2",
                           headers=[("X-authtoken", grant["auth_token"])])
    chan.send(wire.sip_serialize(reg), layer="sip", summary="probe")
    net.run()
    assert probe.sip_replies[-1].status == 200
    return chan


def _scan_binding(cloud, chan):
    """The registrar's binding for a channel, by scanning every binding list."""
    for blist in cloud.bindings.values():
        for b in blist:
            if b.chan is chan:
                return b
    return None


def _assert_chan_index_matches_scan(cloud, *chans):
    known = {b.chan for blist in cloud.bindings.values() for b in blist}
    for chan in known | set(cloud._chan_bindings) | set(chans):
        assert cloud._chan_bindings.get(chan) is _scan_binding(cloud, chan)


def test_reregistration_on_a_new_channel_retires_the_old_one():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    old = _register_on(net, probe, grant)
    new = _register_on(net, probe, grant)
    _assert_chan_index_matches_scan(cloud, old.peer, new.peer)
    assert cloud._chan_bindings.get(old.peer) is None
    assert cloud._chan_bindings[new.peer].chan is new.peer
    # an INVITE on the retired channel has no caller binding
    inv = make_sip_request("INVITE", "tel:+15551230100", from_uri=device_uri(SERIAL),
                           to_uri="tel:+15551230100", call_id="c-1", cseq=1,
                           via="192.168.50.2")
    old.send(wire.sip_serialize(inv), layer="sip", summary="probe")
    net.run()
    assert probe.sip_replies[-1].status == 403


def test_reregistration_under_another_account_matches_the_scan():
    net, cloud = make_cloud()
    cloud.provision_account("bob", "pw-bob")
    probe = Probe(net)
    first = _register_on(net, probe, granted(net, cloud))
    cloud.deregister_device(SERIAL)
    second = _register_on(net, probe, cloud.provision_grant(SERIAL, "bob"))
    _assert_chan_index_matches_scan(cloud, first.peer, second.peer)
    # the device left alice's account: a call to her alias no longer forks to it
    assert all(b.serial != SERIAL for b in cloud.bindings["sip:user-alice@echo.example"])
    assert [b.chan for b in cloud.bindings["sip:user-bob@echo.example"]] == [second.peer]


def test_deregistration_unbinds_the_device_and_drops_its_session():
    net, cloud = make_cloud()
    grant = granted(net, cloud)
    probe = Probe(net)
    reply, _ = probe.negotiate(nego_payload(grant, SERIAL, net.scheduler.now))
    assert reply.name == "NegotiationAccepted"
    chan = _register_on(net, probe, grant)
    cloud.deregister_device(SERIAL)
    assert not cloud.bindings.get(device_uri(SERIAL))
    assert all(b.serial != SERIAL for b in cloud.bindings["sip:user-alice@echo.example"])
    assert SERIAL not in cloud.avs_sessions
    _assert_chan_index_matches_scan(cloud, chan.peer)
    # the removed device's channel can no longer place calls
    inv = make_sip_request("INVITE", "tel:+15551230100", from_uri=device_uri(SERIAL),
                           to_uri="tel:+15551230100", call_id="c-1", cseq=1,
                           via="192.168.50.2")
    chan.send(wire.sip_serialize(inv), layer="sip", summary="probe")
    net.run()
    assert probe.sip_replies[-1].status == 403


def _fleet_calls_20_homes():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("fleet_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fleet_calls(1, homes=20)


def test_chan_index_matches_scan_after_every_register(monkeypatch):
    register = CloudServices._SIP_REQUESTS["REGISTER"]
    checked = []

    def checked_register(self, chan, msg):
        register(self, chan, msg)
        _assert_chan_index_matches_scan(self, chan)
        checked.append(chan)

    monkeypatch.setitem(CloudServices._SIP_REQUESTS, "REGISTER", checked_register)
    for name in BUILTINS:
        assert run_scenario(load_scenario(name)).exit_code == 0
    assert run_scenario(_fleet_calls_20_homes()).exit_code == 0
    assert len(checked) >= len(BUILTINS) + 20


def test_invite_without_binding_is_forbidden():
    net, cloud = make_cloud()
    granted(net, cloud)
    probe = Probe(net)
    inv = make_sip_request("INVITE", device_uri("EK-OTHER-0002"),
                           from_uri=device_uri(SERIAL),
                           to_uri=device_uri("EK-OTHER-0002"),
                           call_id="c-1", cseq=1, via="192.168.50.2")
    resp = probe.sip(inv)
    assert resp.status == 403


CALLEE = "sip:user-alice@echo.example"


def _invite_on(net, cloud, probe, *, from_uri, token, body=b"", callee=CALLEE):
    """An INVITE to callee, sent on a channel SERIAL has registered; returns
    the proxy's answer and the trace's notes of the proxy."""
    chan = _register_on(net, probe, granted(net, cloud))
    inv = make_sip_request("INVITE", callee, from_uri=from_uri, to_uri=callee,
                           call_id="c-1", cseq=1, via="192.168.50.2",
                           headers=[("X-authtoken", token)], body=body)
    chan.send(wire.sip_serialize(inv), layer="sip", summary="INVITE")
    net.run()
    sip_notes = [(e["summary"], e.get("payload")) for e in trace_events(net)
                 if e["src"] == "sip" and e["layer"] == "sys"]
    return probe.sip_replies[-1], sip_notes


def _call_token(cloud, caller, callee=CALLEE):
    return crypto.mint_call_token(cloud.keypair, caller=caller, callee=callee,
                                  call_type="call", ttl=CALL_TOKEN_TTL_MS, now=0,
                                  rng=random.Random("t"))


def test_an_invite_from_another_devices_uri_with_its_token_is_a_spoof():
    # the token is valid for the From it names, but the channel is SERIAL's
    net, cloud = make_cloud()
    token = _call_token(cloud, device_uri("EK-OTHER-0002"))
    resp, sip_notes = _invite_on(net, cloud, Probe(net), from_uri=device_uri("EK-OTHER-0002"),
                                 token=token.b64())
    assert resp.status == 403
    assert sip_notes[-1] == ("call-token:rejected", {"call_id": "c-1", "reason": "uri-spoof"})
    assert token.nonce in cloud.nonce_cache   # spent: it cannot be tried again
    assert "c-1" not in cloud.calls and "c-1" not in cloud.recorded_keys


@pytest.mark.parametrize("token", ["%%%", "AAAA", "e30="])   # not base64, not JSON, {}
def test_an_invite_with_a_malformed_token_is_refused(token):
    net, cloud = make_cloud()
    resp, sip_notes = _invite_on(net, cloud, Probe(net), from_uri=device_uri(SERIAL),
                                 token=token)
    assert resp.status == 403
    assert sip_notes[-1] == ("call-token:rejected", {"call_id": "c-1"})
    assert "c-1" not in cloud.calls


def test_the_proxy_answers_an_invite_with_unreadable_sdp_with_404():
    net, cloud = make_cloud()
    resp, sip_notes = _invite_on(net, cloud, Probe(net), from_uri=device_uri(SERIAL),
                                 token=_call_token(cloud, device_uri(SERIAL)).b64(),
                                 body=b"v=0 not sdp")
    assert resp.status == 404
    assert sip_notes[-1] == ("call-token:accepted", {"call_id": "c-1"})
    assert "c-1" not in cloud.calls and "c-1" not in cloud.recorded_keys


OFFER = wire.sdp_encode(wire.SdpBody(
    session_id="1", media_port=5004, candidates=[wire.Candidate("host", "192.168.50.2", 5004)],
    crypto_suite=wire.SDES_SUITE, key_salt=bytes(46)))


def test_the_proxy_answers_an_offer_of_a_suite_it_does_not_implement_with_404():
    # RFC 4568 7.1.2: the proxy keys each call as SDES_SUITE, so an offer of
    # any other suite is refused before a call exists
    net, cloud = make_cloud()
    with mock.patch.object(cloud_module, "ProxyCall", wraps=cloud_module.ProxyCall) as made:
        resp, sip_notes = _invite_on(
            net, cloud, Probe(net), from_uri=device_uri(SERIAL),
            token=_call_token(cloud, device_uri(SERIAL)).b64(),
            body=OFFER.replace(wire.SDES_SUITE.encode(), b"AES_CM_128_HMAC_SHA1_80"))
    assert resp.status == 404
    assert sip_notes[-1] == ("call-token:accepted", {"call_id": "c-1"})
    assert made.call_count == 0 and "c-1" not in cloud.recorded_keys


def test_the_proxy_answers_an_invite_to_a_uri_it_routes_nowhere_with_404():
    # neither a device's nor an account's URI, nor a gateway's
    callee = "sip:carol@elsewhere.example"
    net, cloud = make_cloud()
    resp, sip_notes = _invite_on(net, cloud, Probe(net), from_uri=device_uri(SERIAL),
                                 token=_call_token(cloud, device_uri(SERIAL), callee).b64(),
                                 body=OFFER, callee=callee)
    assert resp.status == 404
    assert sip_notes[-1] == ("keys:recorded:offer:c-1", None)
    assert "c-1" not in cloud.calls


def test_a_bye_before_the_gateway_answers_ends_the_call_unanswered():
    net, cloud = make_cloud()
    probe = Probe(net)
    chan = _register_on(net, probe, granted(net, cloud))
    tel, caller = "tel:+15551230100", device_uri(SERIAL)
    token = _call_token(cloud, caller, tel).b64()
    for method, cseq, extra in (("INVITE", 1, dict(headers=[("X-authtoken", token)], body=OFFER)),
                                ("BYE", 2, {})):
        msg = make_sip_request(method, tel, from_uri=caller, to_uri=tel, call_id="c-1",
                               cseq=cseq, via="192.168.50.2", **extra)
        chan.send(wire.sip_serialize(msg), layer="sip", summary=method)
    net.run()
    assert [(r.status, r.cseq_method) for r in probe.sip_replies[1:]] == [
        (100, "INVITE"), (200, "BYE")]
    assert not any(s.startswith("gateway:answered") for s in notes(net))
    assert not cloud.hosts["gateway"].listeners


def test_the_relay_closes_a_channel_from_a_host_outside_the_call(monkeypatch):
    # an outsider dials the relay port as soon as it is allocated, before
    # either party: it is turned away at once, and the call's media flows
    # as before
    allocate = CloudServices._relay_allocate
    closed_at_once, got = [], []

    def allocate_and_intrude(self, call):
        allocate(self, call)
        net = self.network
        net.add_lan("street", "198.51.100")
        outsider = net.add_host("outsider")
        net.attach(outsider, "street")
        end = net.open_channel(outsider, self.hosts["relay"].addr("cloud"), call.media_port)
        end.handler = lambda e, data: got.append(data)
        closed_at_once.append(end.closed)
    monkeypatch.setattr(CloudServices, "_relay_allocate", allocate_and_intrude)
    result = run_scenario(load_scenario("call_cross_lan_fork"))
    assert (result.exit_code, result.error) == (0, None), result.verdicts
    assert closed_at_once == [True]
    assert got == []
    events = trace_events(result.world.network)
    assert not [e for e in events if "outsider" in (e["src"], e["dst"])]


# ---------------------------------------------------------------------------
# routing rules, exercised through whole-world runs

def _scenario(devices, actions, name="sip-routing"):
    return {
        "name": name,
        "seed": name,
        "topology": {
            "lans": [{"name": "home-a", "prefix": "192.168.50", "nat": True},
                     {"name": "home-b", "prefix": "192.168.60", "nat": True}],
            "accounts": [{"id": "alice", "password": "pw-alice"},
                         {"id": "bob", "password": "pw-bob"}],
            "devices": devices,
        },
        "actions": actions,
        "assertions": [],
    }


def _dev(serial, host, account, lan, **extra):
    entry = {"serial": serial, "host": host, "state": "paired",
             "account": account, "lan": lan}
    entry.update(extra)
    return entry


def test_intercom_across_accounts_is_refused():
    scn = _scenario(
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a"),
         _dev("EK-BBBB-0002", "den", "bob", "home-b")],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "sip:dev-EK-BBBB-0002@echo.example",
          "call_type": "intercom"}])
    result = run_scenario(scn)
    assert result.exit_code == 0
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert "call-refused:drop-in-not-permitted" in summaries
    assert "403-INVITE" in summaries
    assert "call-failed:403" in summaries
    assert not any(s.startswith("media-frame:") for s in summaries)


def test_intercom_skips_devices_with_drop_in_disabled():
    scn = _scenario(
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a"),
         _dev("EK-BBBB-0002", "den", "alice", "home-b", intercom=False)],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "sip:dev-EK-BBBB-0002@echo.example",
          "call_type": "intercom"}])
    result = run_scenario(scn)
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert "404-INVITE" in summaries
    assert "call-failed:404" in summaries


def test_calling_an_unbound_uri_is_not_found():
    scn = _scenario(
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a")],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "sip:dev-EK-GONE-0009@echo.example", "call_type": "call"}])
    result = run_scenario(scn)
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert "404-INVITE" in summaries and "call-failed:404" in summaries


def test_account_fork_excludes_the_caller_itself():
    # kitchen calls its own account alias: only the den leg exists
    scn = _scenario(
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a"),
         _dev("EK-AAAA-0002", "den", "alice", "home-b")],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "sip:user-alice@echo.example", "call_type": "call"}])
    result = run_scenario(scn)
    legs = [e for e in trace_events(result.world.network) if e["summary"] == "INVITE-leg"]
    assert len(legs) == 1 and legs[0]["dst"] == "den"


def test_busy_callee_answers_486_and_caller_hears_it():
    scn = _scenario(
        # kitchen holds the line open (no auto hangup), so den is mid-call
        # when bob's loft rings it
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a", auto_bye=False),
         _dev("EK-AAAA-0002", "den", "alice", "home-b"),
         _dev("EK-BBBB-0003", "loft", "bob", "home-b")],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "sip:dev-EK-AAAA-0002@echo.example", "call_type": "call"},
         {"at": 700, "op": "start_call", "device": "EK-BBBB-0003",
          "callee": "sip:dev-EK-AAAA-0002@echo.example", "call_type": "call"},
         {"at": 1500, "op": "end_call", "device": "EK-AAAA-0001"}])
    result = run_scenario(scn)
    assert result.exit_code == 0
    summaries = [e["summary"] for e in trace_events(result.world.network)]
    assert "486-INVITE" in summaries
    assert "call-failed:486" in summaries


def test_gateway_sinks_media_and_hangs_up_cleanly():
    scn = _scenario(
        [_dev("EK-AAAA-0001", "kitchen", "alice", "home-a")],
        [{"at": 100, "op": "start_call", "device": "EK-AAAA-0001",
          "callee": "tel:+15551230100", "call_type": "call"}])
    result = run_scenario(scn)
    assert result.exit_code == 0
    cloud = result.world.cloud
    events = trace_events(result.world.network)
    assert sum(e["layer"] == "media" and e["dst"] == "gateway" for e in events) == 6
    summaries = [e["summary"] for e in events]
    assert any(s.startswith("gateway:answered:") for s in summaries)
    assert any(s.startswith("gateway:hangup:") for s in summaries)
    assert not cloud.hosts["gateway"].listeners


def test_unreadable_answer_fails_the_leg_and_the_caller_hears_486():
    def answer_with_garbage(self, call):
        call.state = "established"
        self._send_sip(make_sip_response(call.invite, 200, body=b"not sdp"))
    with mock.patch.object(CommsEndpoint, "_answer", answer_with_garbage):
        result = run_scenario(load_scenario("intercom_same_lan"))
    assert result.error is None
    call_id = "call-EK-KITCH-0001-1"
    notes = [(e["src"], e["summary"]) for e in trace_events(result.world.network)
             if e["layer"] == "sys"]
    assert ("sip", f"keys:recorded:answer:{call_id}") not in notes
    assert ("sip", f"call:closed:{call_id}") in notes
    assert ("kitchen", "call-failed:486") in notes
    cloud = result.world.cloud
    assert not cloud.hosts["relay"].listeners
    assert all(end.closed for call in cloud.calls.values() for end in call.media_ends)


def test_relay_is_torn_down_with_the_call():
    result = run_scenario(load_scenario("call_cross_lan_fork"))
    cloud = result.world.cloud
    assert not cloud.hosts["relay"].listeners
    ends = [end for call in cloud.calls.values() for end in call.media_ends]
    assert len(ends) == 2 and all(end.closed for end in ends)
    assert any(e["summary"].startswith("call:closed:")
               for e in trace_events(result.world.network))


@pytest.mark.parametrize("name", ["call_cross_lan_fork", "token_reuse"])
def test_a_frame_relayed_after_hangup_is_dropped(name):
    # a hang-up at any ms of one media period mid-stream: frames already in
    # flight to the relay land after the call has closed
    for at in range(620, 620 + MEDIA_CADENCE_MS):
        scn = load_scenario(name)
        del scn["assertions"]
        for dev in scn["topology"]["devices"]:
            dev["frame_count"] = 60
        scn["actions"].append({"at": at, "op": "end_call", "device": "EK-KITCH-0001"})
        result = run_scenario(scn)
        assert (result.exit_code, result.error) == (0, None), at
        cloud = result.world.cloud
        assert not cloud.hosts["relay"].listeners, at
        assert all(end.closed for call in cloud.calls.values() for end in call.media_ends), at


def test_a_crossing_hangup_passes_on_both_answers_and_closes_once():
    # both ends send BYE in the same ms: the first 200 closes the call, and
    # the closed call still takes the other BYE's 200 and passes it on
    scn = load_scenario("intercom_same_lan")
    del scn["assertions"]
    devices = scn["topology"]["devices"]
    for dev in devices:
        dev["frame_count"] = 60
    scn["actions"] = [act for act in scn["actions"] if act["op"] != "end_call"] + [
        {"at": 500, "op": "end_call", "device": dev["serial"]} for dev in devices]
    result = run_scenario(scn)
    assert (result.exit_code, result.error) == (0, None)
    events = trace_events(result.world.network)
    assert sorted(e["dst"] for e in events
                  if e["src"] == "sip" and e["summary"] == "200-BYE") == ["den", "kitchen"]
    assert sum(e["summary"].startswith("call:closed:") for e in events) == 1
    assert all(call.state == "closed" for dev in result.world.devices.values()
               for call in dev.comms.calls.values())


def test_a_forked_call_answered_by_both_legs_at_once_keeps_one():
    # both callees answer in the same ms: the first 200 wins, and the proxy
    # confirms and then ends the other leg's dialog (RFC 3261 13.2.2.4, 16.7),
    # whose callee may not take the caller's place at the relay
    scn = load_scenario("call_cross_lan_fork")
    del scn["assertions"]
    for dev in scn["topology"]["devices"]:
        if dev["serial"] != "EK-KITCH-0001":
            dev["answer_delay_ms"] = 300
    result = run_scenario(scn)
    assert (result.exit_code, result.error) == (0, None)
    check_invariants(result)
    call_id = "call-EK-KITCH-0001-1"
    calls = {serial: dev.comms.calls[call_id] for serial, dev in result.world.devices.items()}
    frames = calls["EK-KITCH-0001"].media.frame_count
    assert calls["EK-KITCH-0001"].media.sent == frames
    events = trace_events(result.world.network)
    hangup = [e["t_ms"] for e in events if e["src"] == "kitchen" and e["summary"] == "BYE"]
    assert len(hangup) == 1
    # the caller's BYE ends the one callee still in the call; the proxy's
    # ACK and BYE, before it, end the other
    byes = {e["dst"]: e["t_ms"] for e in events if e["src"] == "sip" and e["summary"] == "BYE"}
    acks = {e["dst"] for e in events if e["src"] == "sip" and e["summary"] == "ACK"}
    assert sorted(byes) == ["den-fast", "loft-slow"] and acks == set(byes)
    kept = [host for host, t in byes.items() if t > hangup[0]]
    assert len(kept) == 1
    winner = next(s for s, dev in result.world.devices.items() if dev.host.name == kept[0])
    loser = next(s for s in calls if s not in (winner, "EK-KITCH-0001"))
    assert calls[winner].media.received == calls["EK-KITCH-0001"].media.received == frames
    assert calls[loser].media.received == 0
    assert sum(e["summary"] == "relay-forward" for e in events) == 2 * frames
    assert all(call.state == "closed" for call in calls.values())


def test_the_proxy_answers_a_cancel_for_no_live_call_with_481():
    # the caller cancels its live call, then its closed call and a call the
    # proxy never saw: only the first matches a transaction (RFC 3261 9.2)
    call_id = "call-EK-KITCH-0001-1"
    sip_ends = []   # the caller's end of its SIP channel
    send = netsim.Channel.send_from

    def cancel(cid):
        send_sip(sip_ends[0], make_sip_request(
            "CANCEL", "sip:user-bob@echo.example", from_uri=device_uri("EK-KITCH-0001"),
            to_uri="sip:user-bob@echo.example", call_id=cid, cseq=1, via="192.168.50.2"))

    def sending(chan, src, data, layer, summary, *args):
        send(chan, src, data, layer, summary, *args)
        if src.host.name == "kitchen" and summary == "ACK":
            sip_ends.append(src)
            cancel(call_id)
        elif src.host.name == "kitchen" and summary == "SipClient.CallDisconnected":
            cancel(call_id)
            cancel("no-such-call")
    scn = load_scenario("call_cross_lan_fork")
    del scn["assertions"]
    with mock.patch.object(netsim.Channel, "send_from", sending):
        result = run_scenario(scn)
    assert (result.exit_code, result.error) == (0, None)
    check_invariants(result)
    assert [e["summary"] for e in trace_events(result.world.network)
            if e["src"] == "sip" and e["summary"].endswith("-CANCEL")] \
        == ["200-CANCEL", "481-CANCEL", "481-CANCEL"]
