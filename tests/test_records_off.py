"""Every run reads the same with every writer's record turned off.

The HTTP and SIP serializers, srtp_protect, sign_detached and wrap_key each
record what they made, so that a read of those very bytes skips its full
check, and a keypair's dict carries the key objects that keypair held.
This oracle turns every record off at once: wire._recorded answers
nothing, srtp_protect returns a plain copy of its packet, the keypair
registries keep nothing, and AsymKeypair.to_dict returns a plain dict.
Each built-in and each workload, at a small size, must then give the
trace, exit code and verdicts it gives with records on, and each parse,
verify and unprotect the same answer, while with records off every one of
them takes its full path, and each paired device builds its signing key
again. It is also the one test that feeds the full parser every message
the program writes.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from echo_testbed import crypto, wire
from echo_testbed.cli import BUILTINS, load_scenario, run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SIZES = {"fleet_calls": {"homes": 40}, "pairing_waves": {"speakers": 40},
         "media_stream": {"frames": 40}}
RUNS = [(name, None) for name in BUILTINS] + [(None, name) for name in sorted(SIZES)]


class _Forgetful(dict):
    """A registry that keeps nothing, so no keypair is found by its key."""

    def __setitem__(self, key, value):
        pass


def _records_off(monkeypatch) -> None:
    srtp_protect = crypto.srtp_protect
    monkeypatch.setattr(wire, "_recorded", lambda data, cls, version: None)
    monkeypatch.setattr(crypto, "srtp_protect",
                        lambda ctx, payload: bytes(srtp_protect(ctx, payload)))
    monkeypatch.setattr(crypto, "_SIGNERS", _Forgetful())
    monkeypatch.setattr(crypto, "_RECIPIENTS", _Forgetful())
    to_dict = crypto.AsymKeypair.to_dict
    monkeypatch.setattr(crypto.AsymKeypair, "to_dict", lambda self: dict(to_dict(self)))


def _observe(monkeypatch, counts: Counter, answers: list) -> None:
    """Note each parse's, verify's and unprotect's answer in answers, and
    count them, and the ones that took the full path, in counts."""
    def answering(owner, attr, what):
        f = getattr(owner, attr)

        def answer(*args):
            counts[what] += 1
            try:
                result = f(*args)
            except (wire.WireError, crypto.CryptoError) as exc:
                answers.append((attr, repr(exc)))
                raise
            answers.append((attr, repr(result)))
            return result
        monkeypatch.setattr(owner, attr, answer)

    answering(wire, "http_parse", "parse")
    answering(wire, "sip_parse", "parse")
    parse_message = wire._parse_message

    def full_parse(*args):
        counts["full parse"] += 1
        return parse_message(*args)
    monkeypatch.setattr(wire, "_parse_message", full_parse)

    # no run presents a bad signature, so each one is also tried with its
    # first bit flipped, which the full check refuses
    verify = crypto.verify_detached

    def verify_and_a_near_miss(public, data, signature):
        near_miss = bytes([signature[0] ^ 1]) + signature[1:]
        answers.append(("verify_detached", verify(public, data, near_miss)))
        result = verify(public, data, signature)
        answers.append(("verify_detached", result))
        counts["verify"] += 2
        return result
    monkeypatch.setattr(crypto, "verify_detached", verify_and_a_near_miss)
    ed25519_public = crypto.Ed25519PublicKey

    class FullVerify:
        @staticmethod
        def from_public_bytes(data):
            counts["full verify"] += 1
            return ed25519_public.from_public_bytes(data)
    monkeypatch.setattr(crypto, "Ed25519PublicKey", FullVerify)
    ed25519_private = crypto.Ed25519PrivateKey

    class FullBuild:
        @staticmethod
        def from_private_bytes(data):
            counts["key build"] += 1
            return ed25519_private.from_private_bytes(data)
    monkeypatch.setattr(crypto, "Ed25519PrivateKey", FullBuild)

    # an unprotect that computes the packet's tag takes the full path
    answering(crypto, "srtp_unprotect", "unprotect")
    unprotect, tag = crypto.srtp_unprotect, crypto._tag
    receiving = []

    def receive(*args):
        receiving.append(True)
        try:
            return unprotect(*args)
        finally:
            receiving.pop()

    def tagging(*args):
        counts["full unprotect"] += bool(receiving)
        return tag(*args)
    monkeypatch.setattr(crypto, "srtp_unprotect", receive)
    monkeypatch.setattr(crypto, "_tag", tagging)


def _scenario(builtin, workload) -> dict:
    return (load_scenario(builtin) if builtin
            else workloads.WORKLOADS[workload](1, **SIZES[workload]))


def _run(builtin, workload, monkeypatch, off: bool):
    counts, answers = Counter(), []
    with monkeypatch.context() as m:
        if off:
            _records_off(m)
        _observe(m, counts, answers)
        result = run_scenario(_scenario(builtin, workload))
    seen = (hashlib.sha256(result.jsonl.encode("utf-8")).hexdigest(), result.exit_code,
            result.error, [(v.kind, v.ok, v.detail) for v in result.verdicts])
    return seen, answers, counts


@pytest.mark.parametrize("builtin, workload", RUNS)
def test_a_run_reads_the_same_with_every_record_off(builtin, workload, monkeypatch):
    on, on_answers, on_counts = _run(builtin, workload, monkeypatch, off=False)
    off, off_answers, off_counts = _run(builtin, workload, monkeypatch, off=True)
    assert off == on
    assert off_answers == on_answers
    for what in ("parse", "verify", "unprotect"):
        # the same checks are made; with records off each takes the full
        # path, and with them on the records answer some of them
        full = f"full {what}"
        assert off_counts[what] == on_counts[what], what
        assert off_counts[full] == off_counts[what], what
        assert on_counts[full] < off_counts[full] or not off_counts[what], what
    assert off_counts["parse"] and off_counts["verify"]
    # with records off, each paired device builds again the Ed25519 key its
    # grant identity was minted with, as its grant's dict carries no object
    devices = _scenario(builtin, workload)["topology"].get("devices", [])
    assert off_counts["key build"] - on_counts["key build"] == sum(
        d.get("state") == "paired" for d in devices)
