"""Every built-in trace, and every benchmark workload's trace at seed 1, is
byte-identical to the digest the benchmark pins.

A refactor that changes no behaviour must leave these digests alone; a
change that means to alter a trace re-pins it in perfbench/pinned.json.
This test only reads perfbench/: the pins and the workload generators.
"""

import gc
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from echo_testbed import crypto
from echo_testbed.cli import BUILTINS, load_scenario, run_scenario
from echo_testbed.netsim import Written

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("pinned_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def _digest(result) -> str:
    assert result.exit_code == 0, (result.verdicts, result.error)
    return hashlib.sha256(result.jsonl.encode("utf-8")).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(PINNED["builtins"]) == sorted(BUILTINS)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_trace_matches_pinned_digest(name):
    assert _digest(run_scenario(load_scenario(name))) == PINNED["builtins"][name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_trace_at_seed_1_matches_pinned_digest(name):
    assert _digest(run_scenario(WORKLOADS[name](1))) == PINNED["workloads"][name]


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_checks_only_what_its_own_keypairs_made(name, monkeypatch):
    # every signature a built-in verifies and every key it unwraps was made
    # in the same run, so neither the full Ed25519 verify nor the unwrap's
    # X25519 exchange is reached
    wrapping = []
    wrap_key, x25519_public = crypto.wrap_key, crypto.X25519PublicKey

    def recording_wrap(*args):
        wrapping.append(True)
        try:
            return wrap_key(*args)
        finally:
            wrapping.pop()

    class NoVerify:
        @staticmethod
        def from_public_bytes(data):
            pytest.fail("a built-in reached the full Ed25519 verify")

    class WrapOnly:
        @staticmethod
        def from_public_bytes(data):
            if not wrapping:
                pytest.fail("a built-in reached the unwrap's X25519 exchange")
            return x25519_public.from_public_bytes(data)

    monkeypatch.setattr(crypto, "wrap_key", recording_wrap)
    monkeypatch.setattr(crypto, "Ed25519PublicKey", NoVerify)
    monkeypatch.setattr(crypto, "X25519PublicKey", WrapOnly)
    assert _digest(run_scenario(load_scenario(name))) == PINNED["builtins"][name]


def test_keypairs_leave_the_registries_with_their_run():
    result = run_scenario(load_scenario("call_cross_lan_fork"))
    digest = _digest(result)
    assert len(crypto._SIGNERS) and len(crypto._RECIPIENTS)
    del result
    gc.collect()
    assert len(crypto._SIGNERS) == 0 and len(crypto._RECIPIENTS) == 0
    assert _digest(run_scenario(load_scenario("call_cross_lan_fork"))) == digest


CALL_BUILTINS = ("intercom_same_lan", "call_cross_lan_fork", "token_reuse")   # media both ways


@pytest.mark.parametrize("name", CALL_BUILTINS)
def test_call_builtin_decrypts_only_what_its_own_contexts_protected(name, monkeypatch):
    # every media frame a call built-in receives was protected in the same
    # run and arrives once, so no receiver reaches the tag or the keystream
    receiving, received = [], 0
    srtp_unprotect = crypto.srtp_unprotect

    def recording_unprotect(*args):
        nonlocal received
        received += 1
        receiving.append(True)
        try:
            return srtp_unprotect(*args)
        finally:
            receiving.pop()

    def send_side_only(f):
        def checked(*args):
            if receiving:
                pytest.fail(f"a built-in's receiver reached {f.__name__}")
            return f(*args)
        return checked

    monkeypatch.setattr(crypto, "srtp_unprotect", recording_unprotect)
    monkeypatch.setattr(crypto, "_tag", send_side_only(crypto._tag))
    monkeypatch.setattr(crypto, "_ctr_crypt", send_side_only(crypto._ctr_crypt))
    assert _digest(run_scenario(load_scenario(name))) == PINNED["builtins"][name]
    assert received


def test_a_packet_nobody_reads_keeps_nothing_alive():
    # the gateway absorbs the caller's frames unread; each carries its own
    # record, so no packet outlives the run that made it
    def srtp_packets():
        return [obj for obj in gc.get_objects()
                if type(obj) is Written and type(obj.record[0]) is tuple]

    # the filter finds a packet srtp_protect has just made, so the empty
    # list below cannot come from a filter that matches nothing
    packet = crypto.srtp_protect(crypto.SrtpSender(bytes(46)), bytes(160))
    assert any(obj is packet for obj in srtp_packets())
    del packet
    scn = load_scenario("call_pstn")
    scn["topology"]["devices"][0]["frame_count"] = 200
    scn["assertions"] = [{"kind": "count", "layer": "media", "dst": "gateway", "equals": 200}]
    result = run_scenario(scn)
    digest = _digest(result)
    gc.collect()
    assert not srtp_packets()
    assert _digest(run_scenario(scn)) == digest
