"""Acceptance gate: one test per release criterion, one printed verdict each.

Run `pytest -sv tests/test_acceptance.py` to see the checklist. Every test
re-derives its evidence from a fresh or shared scenario run; none of them
reach into another test module.
"""

import contextlib
import dataclasses
import json
import random
import string
import struct
import time

import pytest

from echo_testbed import crypto, wire
from echo_testbed.cli import BUILTINS, evaluate_assertion, load_scenario, run_scenario
from echo_testbed.client import WifiCredential
from echo_testbed.device import DEVICE_TYPE

from trace_reader import trace_events


@contextlib.contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def runs():
    """One shared run of every built-in scenario, keyed by name."""
    return {name: run_scenario(load_scenario(name)) for name in BUILTINS}


def expect_count(events, n: int, **filters):
    verdict = evaluate_assertion(events, {"kind": "count", "equals": n, **filters})
    assert verdict.ok, verdict.detail


def at_least_one(events, **filters) -> bool:
    verdict = evaluate_assertion(events, {"kind": "count", "equals": 0, **filters})
    return not verdict.ok


def sys_notes(events):
    return [e["summary"] for e in events if e["layer"] == "sys"]


# ---------------------------------------------------------------------------
# 1. pairing conformance

def test_criterion_1_pairing_conformance():
    started = time.perf_counter()
    r = run_scenario(load_scenario("pair"))
    elapsed = time.perf_counter() - started
    with criterion(1, "pairing run conforms, device ends provisioned, under 1s"):
        assert r.exit_code == 0, r.verdicts
        ordered = {"kind": "subsequence", "events": [
            ["oobe", "ping"],
            ["oobe", "getDeviceDetails"],
            ["oobe", "getScanList"],
            ["oobe", "connectToAP"],
            ["oobe", "getLinkCode"],
            ["http", "CONNECT"],
            ["http", "registerDevice"],
            ["oobe", "getRegistrationState"],
            ["oobe", "setupComplete"],
        ]}
        events = trace_events(r.world.network)
        verdict = evaluate_assertion(events, ordered)
        assert verdict.ok, verdict.detail
        assert at_least_one(events, layer="oobe", summary="getRegistrationState")

        dev = r.world.devices["EK-KITCH-0001"]
        assert dev.identity is not None
        assert dev.identity.sign_priv and dev.identity.wrap_priv
        claims = crypto.open_auth_token(r.world.cloud.keypair, dev.grant["auth_token"])
        assert claims["serial"] == "EK-KITCH-0001"
        assert claims["account"] == "alice"
        assert dev.grant["friendly_name"] == "Echo-0001"
        assert elapsed < 1.0, f"pair run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. vulnerability reproduction

def test_criterion_2_eavesdrop_and_hijack(runs):
    with criterion(2, "eavesdrop yields code+blob only; hijack gated on binding"):
        ev = runs["pair_eavesdrop"]
        assert ev.exit_code == 0, ev.verdicts
        eve = ev.world.attackers["eve"]
        assert eve.link_code is not None and len(eve.link_code) == 5
        blob = crypto.EncryptedCredentialBlob.from_armor(eve.credential_armor)
        assert blob.ciphertext
        sniffed = b"".join(eve.cleartext)
        assert b"wren-canary-8241a" not in sniffed
        assert b"cookie-canary-alice-91" not in sniffed
        assert "wren-canary-8241a" not in ev.jsonl
        assert "cookie-canary-alice-91" not in ev.jsonl

        hr = runs["hijack_registered"]
        assert hr.exit_code == 0, hr.verdicts
        attacker = hr.world.attackers["mallory-phone"]
        assert attacker.result == "refused:device already registered"
        assert hr.world.cloud.registry["EK-KITCH-0001"].account == "alice"

        hd = runs["hijack_deregistered"]
        assert hd.exit_code == 0, hd.verdicts
        attacker = hd.world.attackers["mallory-phone"]
        assert attacker.result == "hijacked"
        assert hd.world.cloud.registry["EK-KITCH-0001"].account == "mallory"
        owner = hd.world.clients["phone-alice"]
        assert owner.outcome.startswith("register-failed")


# ---------------------------------------------------------------------------
# 3. voice-service handshake

def _signed_body(dev, ts: int) -> dict:
    return {"auth_token": dev.grant["auth_token"], "device_type": DEVICE_TYPE,
            "serial": dev.serial, "timestamp": ts}


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def test_criterion_3_handshake_replay_and_bit_flips(runs):
    flips = 100
    with criterion(3, "signed hello accepted, replay refused, "
                      f"{flips}/{flips} tampered hellos rejected"):
        hs = run_scenario(load_scenario("avs_handshake"))
        assert hs.exit_code == 0, hs.verdicts
        events = trace_events(hs.world.network)
        assert at_least_one(events, layer="control", summary="System.Refresh")
        assert at_least_one(events, layer="control", summary="System.RefreshAck")

        rp = runs["avs_replay"]
        assert rp.exit_code == 0, rp.verdicts
        events = trace_events(rp.world.network)
        expect_count(events, 1, layer="sys", summary="avs:accepted:*")
        expect_count(events, 1, layer="sys",
                     summary="avs:rejected:stale-timestamp")

        # tamper harness: a bare host speaking the control wire directly
        world = hs.world
        net = world.network
        dev = world.devices["EK-KITCH-0001"]
        host = net.add_host("tamperer")
        net.attach(host, "home-a")
        replies = []

        def fresh_channel():
            addr = net.lookup("avs.echo.example", host)
            chan = net.open_channel(host, addr, 443, secured=True)
            chan.handler = lambda end, data: replies.append(wire.control_decode(data))
            return chan

        def send_hello(fields) -> None:
            msg = wire.ControlMessage(interface="System",
                                      name="NegotiationCommand", payload=fields)
            fresh_channel().send(wire.control_encode(msg), layer="control",
                                 summary="System.NegotiationCommand")
            net.run()

        def notes() -> list[str]:
            return [e["summary"] for e in trace_events(net) if e["layer"] == "sys"]

        def accepted() -> int:
            return sum(1 for s in notes() if s.startswith("avs:accepted:"))

        def unparseable() -> int:
            return notes().count("avs:unparseable")

        # the harness itself must be able to get a yes
        body = _signed_body(dev, net.scheduler.now + 1)
        sig = crypto.sign_detached(dev.identity, _canonical(body)).hex()
        send_hello({**body, "signature": sig})
        assert replies[-1].name == "NegotiationAccepted"
        baseline = accepted()

        rng = random.Random("flip-harness")
        rejected = 0
        for _ in range(flips):
            body = _signed_body(dev, net.scheduler.now + 1)
            sig = crypto.sign_detached(dev.identity, _canonical(body)).hex()
            original = _canonical(body)
            while True:
                pos = rng.randrange(len(original))
                mutated = bytes([original[i] ^ (1 << rng.randrange(8))
                                 if i == pos else original[i]
                                 for i in range(len(original))])
                try:
                    parsed = json.loads(mutated.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    parsed = None
                    break
                if not (isinstance(parsed, dict) and parsed == body):
                    break
                # a flip that parses back to the same fields proves nothing
            if isinstance(parsed, dict):
                send_hello({**parsed, "signature": sig})
                assert replies[-1].name == "NegotiationRejected", parsed
                rejected += 1
            else:
                # the flip broke the framing itself; the parser throws it out
                before = unparseable()
                chan = fresh_channel()
                chan.send(mutated, layer="control",
                          summary="System.NegotiationCommand")
                net.run()
                assert unparseable() == before + 1
                rejected += 1
        assert rejected == flips
        assert accepted() == baseline


# ---------------------------------------------------------------------------
# 4. intercom

def test_criterion_4_intercom_flow(runs):
    with criterion(4, "drop-in call sequence ordered, media stays home, "
                      "callee never acts"):
        r = runs["intercom_same_lan"]
        assert r.exit_code == 0, r.verdicts
        ordered = {"kind": "subsequence", "events": [
            ["control", "SipClient.BeginCall"],
            ["sip", "INVITE"],
            ["control", "SipClient.OutboundCallRequested"],
            ["sip", "200-INVITE"],
            ["control", "SipClient.OutboundCallAccepted"],
            ["media", "media-frame:*"],
            ["control", "SipClient.EndCall"],
            ["sip", "BYE"],
            ["control", "SipClient.CallDisconnected"],
        ]}
        events = trace_events(r.world.network)
        verdict = evaluate_assertion(events, ordered)
        assert verdict.ok, verdict.detail
        expect_count(events, 0, layer="media", lan="cloud")
        expect_count(events, 1, layer="sys", summary="auto-answer")
        # no ringing leg: the callee picks up without being asked
        expect_count(events, 0, layer="sip", summary="180-INVITE")


# ---------------------------------------------------------------------------
# 5. forked call

def test_criterion_5_fork_and_relay_secrecy(runs):
    with criterion(5, "fork: 2 legs, 1 winner, 1 cancel; relay tap opaque "
                      "without the recorded keys"):
        r = runs["call_cross_lan_fork"]
        assert r.exit_code == 0, r.verdicts
        events = trace_events(r.world.network)
        expect_count(events, 2, layer="sip", summary="INVITE-leg")
        expect_count(events, 1, layer="sip", summary="200-INVITE", dst="sip")
        expect_count(events, 1, layer="control",
                     summary="SipClient.OutboundCallAccepted")
        expect_count(events, 1, layer="sip", summary="CANCEL")
        locality = evaluate_assertion(
            events, {"kind": "locality", "layer": "media", "via": "relay"})
        assert locality.ok, locality.detail

        keys = r.world.cloud.recorded_keys
        assert len(keys) == 1
        key_pair = next(iter(keys.values()))
        forwards = [e for e in events
                    if e["layer"] == "media" and e["summary"] == "relay-forward"]
        assert len(forwards) == 12
        to_callee = [e for e in forwards if e["dst"] == "den-fast"]
        to_caller = [e for e in forwards if e["dst"] == "kitchen"]
        assert len(to_callee) == 6 and len(to_caller) == 6

        # each direction decrypts with the key its sender offered
        for events, master, prefix in (
                (to_callee, key_pair["offer"], b"CANARY:EK-KITCH-0001:"),
                (to_caller, key_pair["answer"], b"CANARY:EK-DEN-0002:")):
            ctx = crypto.srtp_derive(master[:32], master[32:])
            for ev in events:
                frame = crypto.srtp_unprotect(ctx, bytes.fromhex(ev["payload"]["hex"]))
                assert frame.startswith(prefix)

        # without the recorded master key the same packets stay sealed, even
        # granting the attacker the stream id from the packet header
        rng = random.Random("relay-snoop")
        for ev, wrong in ((to_callee[0], rng.randbytes(46)),
                          (to_caller[0], rng.randbytes(46)),
                          (to_callee[0], key_pair["answer"]),
                          (to_caller[0], key_pair["offer"])):
            packet = bytes.fromhex(ev["payload"]["hex"])
            ssrc = struct.unpack(">III", packet[:12])[2]
            ctx = dataclasses.replace(crypto.srtp_derive(wrong[:32], wrong[32:]), ssrc=ssrc)
            with pytest.raises(crypto.CryptoError):
                crypto.srtp_unprotect(ctx, packet)


# ---------------------------------------------------------------------------
# 6. call token properties

def _perturb(rng: random.Random, text: str) -> str:
    alphabet = string.ascii_letters + string.digits + ":@.+-_"
    while True:
        op = rng.randrange(3)
        pos = rng.randrange(len(text))
        if op == 0:
            out = text[:pos] + rng.choice(alphabet) + text[pos + 1:]
        elif op == 1:
            out = text[:pos] + rng.choice(alphabet) + text[pos:]
        else:
            out = text[:pos] + text[pos + 1:]
        if out != text:
            return out


def test_criterion_6_token_single_use_and_binding(runs):
    trials = 10_000
    with criterion(6, f"token reuse refused with 403; {trials} URI "
                      "perturbations, 0 false accepts"):
        r = runs["token_reuse"]
        assert r.exit_code == 0, r.verdicts
        events = trace_events(r.world.network)
        notes = sys_notes(events)
        assert notes.count("call-token:accepted") == 1
        assert notes.count("call-token:rejected") == 1
        expect_count(events, 1, layer="sip", summary="403-INVITE")

        kp = crypto.keygen(random.Random("token-kp"))
        caller = "sip:dev-EK-KITCH-0001@echo.example"
        callee = "sip:user-bob@echo.example"
        token = crypto.mint_call_token(kp, caller, callee, "regular",
                                       ttl=60_000, now=1_000,
                                       rng=random.Random("token-nonce"))
        assert crypto.verify_call_token(kp.public, token, caller, callee,
                                        2_000, set())
        rng = random.Random("uri-perturb")
        false_accepts = 0
        for i in range(trials):
            which = i % 3
            p_caller = _perturb(rng, caller) if which != 1 else caller
            p_callee = _perturb(rng, callee) if which != 0 else callee
            if crypto.verify_call_token(kp.public, token, p_caller, p_callee,
                                        2_000, set()):
                false_accepts += 1
        assert false_accepts == 0
        # the token itself never went stale; only the names failed to match
        assert crypto.verify_call_token(kp.public, token, caller, callee,
                                        2_000, set())


# ---------------------------------------------------------------------------
# 7. crypto known answers and round trips

AES_KAT = [
    # (key, iv, plaintext, ciphertext), all hex, independently computed with
    # `openssl enc -aes-256-cbc -nopad`
    ("00" * 32, "00" * 16, "00" * 16, "dc95c078a2408989ad48a21492842087"),
    ("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "000102030405060708090a0b0c0d0e0f",
     "0102030405060708090a0b0c0d0e0f10" * 2,
     "258816364f93d7b76b41e61b20f00bebaae3800f39c18e378e69751342fe4cfc"),
]


def test_criterion_7_crypto_kats_and_round_trips():
    with criterion(7, "AES KATs match openssl; 1000 credential and 1000 "
                      "media-frame round trips"):
        for key, iv, pt, ct in AES_KAT:
            got = crypto.aes256_cbc_encrypt(bytes.fromhex(key), bytes.fromhex(iv),
                                            bytes.fromhex(pt))
            assert got.hex() == ct
            back = crypto.aes256_cbc_decrypt(bytes.fromhex(key), bytes.fromhex(iv),
                                             bytes.fromhex(ct))
            assert back.hex() == pt

        kp = crypto.keygen(random.Random("kat-device"))
        cert = crypto.self_sign(kp, "EK-KAT-0001")
        rng = random.Random("kat-credentials")
        chars = string.ascii_letters + string.digits + " -_."
        for _ in range(1_000):
            cred = WifiCredential(
                ssid="".join(rng.choices(chars, k=rng.randint(1, 32))),
                passphrase="".join(rng.choices(chars, k=rng.randint(8, 63))))
            blob = crypto.encrypt_credential(cred, cert, rng)
            assert cred.passphrase.encode() not in blob.ciphertext
            out = crypto.decrypt_credential(blob, kp)
            assert (out.ssid, out.passphrase) == (cred.ssid, cred.passphrase)

        master = rng.randbytes(46)
        tx = crypto.srtp_derive(master[:32], master[32:])
        rx = crypto.srtp_derive(master[:32], master[32:])
        packets = []
        for i in range(1_000):
            frame = f"frame-{i}:".encode() + rng.randbytes(rng.randint(1, 120))
            packets.append((frame, crypto.srtp_protect(tx, frame)))
        for frame, packet in packets:
            assert crypto.srtp_unprotect(rx, packet) == frame
        replays_refused = 0
        for _, packet in packets:
            with pytest.raises(crypto.CryptoError):
                crypto.srtp_unprotect(rx, packet)
            replays_refused += 1
        assert replays_refused == 1_000


# ---------------------------------------------------------------------------
# 8. determinism and budget

def test_criterion_8_determinism_and_runtime():
    with criterion(8, "all built-ins pass, traces byte-identical on rerun, "
                      "suite under 30s"):
        started = time.perf_counter()
        for name in BUILTINS:
            first = run_scenario(load_scenario(name))
            second = run_scenario(load_scenario(name))
            assert first.exit_code == 0, (name, first.verdicts, first.error)
            assert second.exit_code == 0, name
            assert first.jsonl == second.jsonl, f"{name}: trace drifted"
            assert first.jsonl.endswith("\n")
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"built-in suite took {elapsed:.1f}s"
