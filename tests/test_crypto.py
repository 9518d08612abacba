"""Crypto tests.

The AES-256-CBC known answers below were produced with `openssl enc` ahead
of time and are frozen here; nothing in this file derives them from the
code under test.
"""

import base64
import dataclasses
import hashlib
import hmac
import json
import random
import struct
import tracemalloc

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import example, given, settings, strategies as st

from echo_testbed import crypto
from echo_testbed.client import WifiCredential
from echo_testbed.crypto import (
    SRTP_TAG_LEN,
    AsymKeypair,
    CallAuthToken,
    CryptoError,
    EncryptedCredentialBlob,
    SrtpKeys,
    SrtpReceiver,
    SrtpSender,
    aes256_cbc_decrypt,
    aes256_cbc_encrypt,
    canonical_json,
    decrypt_credential,
    encrypt_credential,
    keygen,
    mint_auth_token,
    mint_call_token,
    open_auth_token,
    self_sign,
    sign_detached,
    srtp_derive,
    srtp_protect,
    srtp_unprotect,
    unwrap_key,
    verify_call_token,
    verify_certificate,
    verify_detached,
    wrap_key,
)


def rng(seed=1234):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Canonical JSON: the bytes every signature and seal covers

@settings(max_examples=200, derandomize=True)
@given(obj=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from((float("nan"), float("-inf"))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8))
def test_canonical_json_is_json_dumps_sorted_and_compact(obj):
    # non-ASCII text, NaN and the infinities, nesting: the prebuilt encoder
    # writes what json.dumps writes with these settings
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# AES-256-CBC known answers (openssl enc -aes-256-cbc -nopad)

class TestAesKat:
    def test_all_zero_vector(self):
        key = bytes(32)
        iv = bytes(16)
        ct = aes256_cbc_encrypt(key, iv, bytes(16))
        assert ct.hex() == "dc95c078a2408989ad48a21492842087"
        assert aes256_cbc_decrypt(key, iv, ct) == bytes(16)

    def test_single_block_vector(self):
        key = bytes.fromhex("603deb1015ca71be2b73aef0857d7781"
                            "1f352c073b6108d72d9810a30914dff4")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("0102030405060708090a0b0c0d0e0f10")
        assert aes256_cbc_encrypt(key, iv, pt).hex() == "258816364f93d7b76b41e61b20f00beb"

    def test_two_block_chaining_vector(self):
        key = bytes.fromhex("603deb1015ca71be2b73aef0857d7781"
                            "1f352c073b6108d72d9810a30914dff4")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("0102030405060708090a0b0c0d0e0f10") * 2
        assert aes256_cbc_encrypt(key, iv, pt).hex() == (
            "258816364f93d7b76b41e61b20f00beb"
            "aae3800f39c18e378e69751342fe4cfc")

    def test_unaligned_plaintext_rejected(self):
        with pytest.raises(CryptoError):
            aes256_cbc_encrypt(bytes(32), bytes(16), b"short")

    def test_bad_key_size_rejected(self):
        with pytest.raises(CryptoError):
            aes256_cbc_encrypt(bytes(16), bytes(16), bytes(16))


# ---------------------------------------------------------------------------
# Keypairs, certificates, signatures

def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8 % len(out)] ^= 1 << bit % 8
    return bytes(out)


def _naming(kp: AsymKeypair, other: AsymKeypair) -> AsymKeypair:
    """kp's private keys loaded under public fields that name other, with
    both key objects already built."""
    liar = AsymKeypair.from_dict({**kp.to_dict(), "sign_pub": other.to_dict()["sign_pub"],
                                  "wrap_pub": other.to_dict()["wrap_pub"]})
    liar.ed25519, liar.x25519
    return liar


def _full_verify(public, data: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public.sign_pub).verify(signature, data)
        return True
    except InvalidSignature:
        return False


def _full_unwrap(keypair: AsymKeypair, wrapped: bytes) -> bytes | None:
    """X25519 from the keypair's private bytes, HKDF, then GCM; None on failure."""
    eph_pub, nonce, ct = wrapped[:32], wrapped[32:44], wrapped[44:]
    shared = X25519PrivateKey.from_private_bytes(keypair.wrap_priv).exchange(
        X25519PublicKey.from_public_bytes(eph_pub))
    kek = HKDF(SHA256(), length=32, salt=None, info=b"echo-testbed key wrap v1").derive(shared)
    try:
        return AESGCM(kek).decrypt(nonce, ct, eph_pub)
    except InvalidTag:
        return None


def _try_unwrap(keypair: AsymKeypair, wrapped: bytes) -> bytes | None:
    try:
        return unwrap_key(keypair, wrapped)
    except CryptoError:
        return None


class TestKeys:
    def test_keygen_deterministic(self):
        a = keygen(rng(7))
        b = keygen(rng(7))
        assert a == b
        assert a != keygen(rng(8))

    def test_round_trip_dict(self):
        kp = keygen(rng())
        assert AsymKeypair.from_dict(kp.to_dict()) == kp

    @pytest.mark.parametrize("damage", [
        lambda d: [1], lambda d: None, lambda d: {k: v for k, v in d.items() if k != "wrap_pub"},
        lambda d: {**d, "sign_priv": "!!not base64"}, lambda d: {**d, "sign_priv": 7},
        lambda d: {**d, "sign_priv": d["sign_priv"][:-1] + "9"},   # 33 bytes
        lambda d: {**d, "key_id": [1]}])
    def test_from_dict_refuses_anything_to_dict_did_not_write(self, damage):
        with pytest.raises(CryptoError):
            AsymKeypair.from_dict(damage(keygen(rng()).to_dict()))

    def test_key_objects_stay_out_of_repr_dict_and_equality(self):
        kp = keygen(rng())
        loaded = AsymKeypair.from_dict(kp.to_dict())
        unbuilt = AsymKeypair.from_dict(kp.to_dict())
        sign_detached(loaded, b"hello")
        unwrap_key(loaded, wrap_key(loaded.public, bytes(32), rng(6)))
        # a keypair that has signed and been wrapped to holds what it made
        signer = keygen(rng())
        sign_detached(signer, b"hello")
        wrap_key(signer.public, bytes(32), rng(6))
        assert signer._signatures and signer._wrapped_keys
        for k in (kp, loaded, unbuilt, signer):
            assert "PrivateKey" not in repr(k)
            assert "ed25519" not in repr(k) and "x25519" not in repr(k)
            assert "_signatures" not in repr(k) and "_wrapped_keys" not in repr(k)
            assert k.to_dict() == kp.to_dict()
            assert all(isinstance(v, str) for v in k.to_dict().values())
            assert k == kp and hash(k) == hash(kp)

    @pytest.mark.parametrize("carry", [lambda d: d, lambda d: json.loads(json.dumps(d)), dict],
                             ids=["written", "json", "copy"])
    def test_generated_and_loaded_keypairs_act_alike(self, carry):
        kp = keygen(rng())
        loaded = AsymKeypair.from_dict(carry(kp.to_dict()))
        for msg in (b"", b"hello", bytes(range(256))):
            signature = sign_detached(loaded, msg)
            assert signature == sign_detached(kp, msg)
            Ed25519PublicKey.from_public_bytes(kp.sign_pub).verify(signature, msg)
        key = rng(5).randbytes(32)
        assert unwrap_key(loaded, wrap_key(kp.public, key, rng(6))) == key
        assert unwrap_key(kp, wrap_key(loaded.public, key, rng(7))) == key

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        built = []

        def counting(real):
            class Counting:
                @staticmethod
                def from_private_bytes(data):
                    built.append(real.__name__)
                    return real.from_private_bytes(data)
            return Counting

        for name in ("Ed25519PrivateKey", "X25519PrivateKey"):
            monkeypatch.setattr(crypto, name, counting(getattr(crypto, name)))
        return built

    @pytest.mark.parametrize("carry, shared", [
        (lambda d: d, True), (lambda d: json.loads(json.dumps(d)), False), (dict, False)],
        ids=["written", "json", "copy"])
    def test_each_key_object_is_built_once(self, monkeypatch, carry, shared):
        kp = keygen(rng())
        wrapped = wrap_key(kp.public, bytes(32), rng(6))
        built = self._count_builds(monkeypatch)
        loaded = AsymKeypair.from_dict(carry(kp.to_dict()))
        assert built == []
        for k in (kp, loaded, kp, loaded):
            assert verify_detached(kp.public, b"hello", sign_detached(k, b"hello"))
            assert unwrap_key(k, wrapped) == bytes(32)
        # keygen hands over the objects it built; a keypair loaded from its
        # writer's own dict takes the writer's signing key, and builds its
        # X25519 key at its first unwrap; one loaded from anything else
        # builds each on first use
        assert sorted(built) == (["X25519PrivateKey"] if shared
                                 else ["Ed25519PrivateKey", "X25519PrivateKey"])
        assert (loaded.ed25519 is kp.ed25519) is shared
        assert loaded.x25519 is not kp.x25519

    @pytest.mark.parametrize("field", ["sign_priv", "wrap_priv"])
    def test_a_written_dict_edited_to_another_key_builds_that_key(self, monkeypatch, field):
        kp, other = keygen(rng(1)), keygen(rng(2))
        written = kp.to_dict()
        written[field] = other.to_dict()[field]
        built = self._count_builds(monkeypatch)
        loaded = AsymKeypair.from_dict(written)
        signature = sign_detached(loaded, b"hello")
        loaded.x25519
        # the edited signing key is built anew, and the X25519 key always is
        if field == "sign_priv":
            assert built == ["Ed25519PrivateKey", "X25519PrivateKey"]
            Ed25519PublicKey.from_public_bytes(other.sign_pub).verify(signature, b"hello")
            assert not _full_verify(kp.public, b"hello", signature)
        else:
            assert built == ["X25519PrivateKey"] and loaded.ed25519 is kp.ed25519
            assert _full_verify(kp.public, b"hello", signature)
        key = rng(5).randbytes(32)
        assert (_try_unwrap(loaded, wrap_key(other.public, key, rng(6))) == key) \
            is (field == "wrap_priv")

    def test_a_loaded_keypair_registers_at_its_first_signature(self):
        kp = keygen(rng())
        loaded = AsymKeypair.from_dict(kp.to_dict())
        assert crypto._SIGNERS[kp.sign_pub] is kp
        sign_detached(loaded, b"hello")
        assert crypto._SIGNERS[kp.sign_pub] is loaded

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=st.sampled_from(["exact", "flip-signature", "flip-data", "flip-public",
                                 "other-public", "loaded-naming-other"]),
           data=st.binary(max_size=64), bit=st.integers(0, 511))
    def test_verify_agrees_with_the_full_check(self, case, data, bit):
        kp, other = keygen(rng(1)), keygen(rng(2))
        public, signature = kp.public, sign_detached(kp, data)
        if case == "flip-signature":
            signature = _flip(signature, bit)
        elif case == "flip-data":
            data = _flip(data + b"\x00", bit)
        elif case == "flip-public":
            public = dataclasses.replace(public, sign_pub=_flip(public.sign_pub, bit))
        elif case == "other-public":
            public = other.public
        elif case == "loaded-naming-other":
            liar = _naming(kp, other)
            public, signature = liar.public, sign_detached(liar, data)
        verdict = verify_detached(public, data, signature)
        assert verdict == _full_verify(public, data, signature)
        assert verdict or case != "exact"

    def test_sign_verify(self):
        kp = keygen(rng())
        sig = sign_detached(kp, b"hello")
        assert verify_detached(kp.public, b"hello", sig)
        assert not verify_detached(kp.public, b"hellp", sig)
        assert not verify_detached(keygen(rng(2)).public, b"hello", sig)

    def test_verify_never_raises_on_garbage(self):
        kp = keygen(rng())
        assert not verify_detached(kp.public, b"data", b"")
        assert not verify_detached(kp.public, b"data", b"\x00" * 64)

    def test_certificate(self):
        kp = keygen(rng())
        cert = self_sign(kp, "G090LF09643605VS")
        assert cert.subject == "G090LF09643605VS"
        assert verify_certificate(cert)

    def test_tampered_certificate_fails(self):
        cert = self_sign(keygen(rng()), "G090LF09643605VS")
        forged = crypto.DeviceCertificate(subject="G090LF0964360EVL",
                                          public=cert.public, signature=cert.signature)
        assert not verify_certificate(forged)


# ---------------------------------------------------------------------------
# Key wrap

class TestWrap:
    def test_round_trip(self):
        kp = keygen(rng())
        key = rng(5).randbytes(32)
        wrapped = wrap_key(kp.public, key, rng(6))
        assert unwrap_key(kp, wrapped) == key

    def test_wrong_recipient_fails(self):
        kp, other = keygen(rng(1)), keygen(rng(2))
        wrapped = wrap_key(kp.public, bytes(32), rng(3))
        with pytest.raises(CryptoError):
            unwrap_key(other, wrapped)

    def test_any_byte_flip_fails(self):
        kp = keygen(rng())
        wrapped = bytearray(wrap_key(kp.public, bytes(range(32)), rng(9)))
        r = rng(10)
        for _ in range(20):
            i = r.randrange(len(wrapped))
            mutated = bytearray(wrapped)
            mutated[i] ^= 0x01 + r.randrange(255)
            with pytest.raises(CryptoError):
                unwrap_key(kp, bytes(mutated))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=st.sampled_from(["exact", "flip-blob", "flip-public", "other-keypair",
                                 "loaded-naming-other"]),
           key=st.binary(min_size=32, max_size=32), bit=st.integers(0, 1023))
    def test_unwrap_agrees_with_the_full_check(self, case, key, bit):
        kp, other = keygen(rng(1)), keygen(rng(2))
        holder, wrapped = kp, wrap_key(kp.public, key, rng(3))
        if case == "flip-blob":
            wrapped = _flip(wrapped, bit)
        elif case == "flip-public":
            public = dataclasses.replace(kp.public, wrap_pub=_flip(kp.wrap_pub, bit))
            wrapped = wrap_key(public, key, rng(3))
        elif case == "other-keypair":
            holder = other
        elif case == "loaded-naming-other":
            holder = _naming(kp, other)
            wrapped = wrap_key(holder.public, key, rng(3))
        unwrapped = _try_unwrap(holder, wrapped)
        assert unwrapped == _full_unwrap(holder, wrapped)
        # only the exact case must unwrap: flipping the top bit of an X25519
        # half names the same key (RFC 7748 section 5)
        assert unwrapped == key or case != "exact"

    def test_truncated_fails(self):
        kp = keygen(rng())
        with pytest.raises(CryptoError):
            unwrap_key(kp, b"\x00" * 16)

    def test_kek_derivation_matches_rfc5869_case_3(self):
        # RFC 5869 A.3: IKM 0x0b x 22, empty salt and info; the first 32
        # bytes of its 42-byte OKM
        okm = crypto._hkdf_sha256(b"\x0b" * 22, b"")
        assert okm.hex() == ("8da4e775a563c18f715f802a063c5a31"
                             "b8a11f5c5ee1879ec3454e5f3c738d2d")


# ---------------------------------------------------------------------------
# Credential envelope

CRED = WifiCredential(ssid="HomeWifi", passphrase="hunter2-hunter2", security="wpa2")


class TestCredential:
    def test_round_trip(self):
        kp = keygen(rng())
        cert = self_sign(kp, "G090LF09643605VS")
        blob = encrypt_credential(CRED, cert, rng(42))
        assert decrypt_credential(blob, kp) == CRED

    def test_armor_round_trip(self):
        kp = keygen(rng())
        blob = encrypt_credential(CRED, self_sign(kp, "s"), rng(42))
        armored = blob.to_armor()
        assert armored.startswith("-----BEGIN ENCRYPTED CREDENTIAL-----")
        assert armored.rstrip().endswith("-----END ENCRYPTED CREDENTIAL-----")
        assert decrypt_credential(EncryptedCredentialBlob.from_armor(armored), kp) == CRED

    def test_passphrase_not_in_blob(self):
        kp = keygen(rng())
        blob = encrypt_credential(CRED, self_sign(kp, "s"), rng(42))
        assert b"hunter2" not in blob.ciphertext
        assert b"hunter2" not in blob.wrapped_key
        assert "hunter2" not in blob.to_armor()

    def test_wrong_device_key_fails(self):
        kp, other = keygen(rng(1)), keygen(rng(2))
        blob = encrypt_credential(CRED, self_sign(kp, "s"), rng(42))
        with pytest.raises(CryptoError):
            decrypt_credential(blob, other)

    def test_fresh_key_and_iv_per_encryption(self):
        kp = keygen(rng())
        cert = self_sign(kp, "s")
        r = rng(42)
        a = encrypt_credential(CRED, cert, r)
        b = encrypt_credential(CRED, cert, r)
        assert a.iv != b.iv
        assert a.ciphertext != b.ciphertext

    def test_ciphertext_corruption_detected(self):
        kp = keygen(rng())
        blob = encrypt_credential(CRED, self_sign(kp, "s"), rng(42))
        bad = EncryptedCredentialBlob(wrapped_key=blob.wrapped_key, iv=blob.iv,
                                      ciphertext=bytes(len(blob.ciphertext)))
        with pytest.raises(CryptoError):
            decrypt_credential(bad, kp)

    def test_bad_armor_rejected(self):
        with pytest.raises(CryptoError):
            EncryptedCredentialBlob.from_armor("not armor at all")

    @pytest.mark.parametrize("body, error", [
        ("!!!!", "armor body is not base64"),
        (base64.b64encode(b"\x00").decode(), "armor body truncated"),
        # the wrapped key runs past the end, so nothing is left for IV and ciphertext
        (base64.b64encode(b"\x00\x64" + bytes(40)).decode(), "armor body truncated"),
        (base64.b64encode(b"\x00\x02ab" + bytes(16)).decode(), "armor body truncated"),
        (base64.b64encode(b"\x00\x02ab" + bytes(16 + 17)).decode(),
         "ciphertext must be a positive multiple of 16 bytes"),
    ])
    def test_a_damaged_armor_body_rejected(self, body, error):
        armor = "\n".join([crypto._ARMOR_HEAD, body, crypto._ARMOR_TAIL])
        with pytest.raises(CryptoError, match=f"^{error}$"):
            EncryptedCredentialBlob.from_armor(armor)

    def test_a_blob_that_wraps_a_16_byte_key_rejected(self):
        # AES reads a 16-byte key as AES-128: a credential a forger sealed
        # under one, and wrapped to the device, must still be refused
        kp = keygen(rng())
        key, iv = bytes(range(16)), bytes(16)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        sealed = enc.update(crypto._pkcs7_pad(CRED.canonical_bytes())) + enc.finalize()
        blob = EncryptedCredentialBlob(wrapped_key=wrap_key(kp.public, key, rng(6)), iv=iv,
                                       ciphertext=sealed)
        with pytest.raises(CryptoError, match="needs a 32-byte key"):
            decrypt_credential(blob, kp)

    def test_a_well_sealed_blob_of_no_credential_rejected(self):
        kp = keygen(rng())
        key, iv = bytes(range(32)), bytes(16)
        blob = EncryptedCredentialBlob(
            wrapped_key=wrap_key(kp.public, key, rng(6)), iv=iv,
            ciphertext=aes256_cbc_encrypt(key, iv, crypto._pkcs7_pad(b'{"ssid": 1}')))
        with pytest.raises(CryptoError, match="^credential plaintext malformed"):
            decrypt_credential(blob, kp)

    @settings(max_examples=50, deadline=None)
    @given(ssid=st.text(min_size=1, max_size=32).filter(lambda s: s == s.strip() and s),
           passphrase=st.text(min_size=8, max_size=63))
    def test_round_trip_property(self, ssid, passphrase):
        kp = keygen(rng())
        cred = WifiCredential(ssid=ssid, passphrase=passphrase, security="wpa2")
        blob = encrypt_credential(cred, self_sign(kp, "s"), rng(42))
        assert decrypt_credential(blob, kp) == cred


# ---------------------------------------------------------------------------
# Cloud auth token

class TestAuthToken:
    def test_round_trip(self):
        cloud = keygen(rng(100))
        tok = mint_auth_token(cloud, "acct-1", "G090LF09643605VS", now=1000, rng=rng(5))
        assert isinstance(tok, str)
        claims = open_auth_token(cloud, tok)
        assert claims == {"account": "acct-1", "serial": "G090LF09643605VS", "issued": 1000}

    def test_opaque_to_other_keys(self):
        cloud, mallory = keygen(rng(100)), keygen(rng(101))
        tok = mint_auth_token(cloud, "acct-1", "serial", now=0, rng=rng(5))
        with pytest.raises(CryptoError):
            open_auth_token(mallory, tok)

    def test_every_byte_flip_rejected(self):
        cloud = keygen(rng(100))
        blob = base64.b64decode(mint_auth_token(cloud, "acct-1", "serial", now=0, rng=rng(5)))
        for i in range(len(blob)):
            mutated = bytearray(blob)
            mutated[i] ^= 0x80
            with pytest.raises(CryptoError):
                open_auth_token(cloud, base64.b64encode(mutated).decode())

    @pytest.mark.parametrize("token", [7, None, "!!not base64", "AAAA"])
    def test_anything_but_base64_text_is_a_crypto_error(self, token):
        with pytest.raises(CryptoError):
            open_auth_token(keygen(rng(100)), token)

    def test_plaintext_fields_absent_from_blob(self):
        cloud = keygen(rng(100))
        tok = mint_auth_token(cloud, "account-xyz", "SERIALNUM", now=0, rng=rng(5))
        blob = base64.b64decode(tok)
        for field in ("account-xyz", "SERIALNUM"):
            assert field.encode() not in blob and field not in tok


# ---------------------------------------------------------------------------
# Call authorization token

class TestCallToken:
    CALLER = "sip:id1@echo.example"
    CALLEE = "sip:id2@echo.example"

    def mint(self, kp, now=100, ttl=300, r=None):
        return mint_call_token(kp, self.CALLER, self.CALLEE, "regular",
                               ttl=ttl, now=now, rng=r or rng(3))

    def test_accepts_exact_match(self):
        kp = keygen(rng())
        tok = self.mint(kp)
        assert verify_call_token(kp.public, tok, self.CALLER, self.CALLEE,
                                 now=150, nonce_cache=set())

    def test_single_use(self):
        kp = keygen(rng())
        tok = self.mint(kp)
        cache = set()
        assert verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 150, cache)
        assert not verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 151, cache)

    def test_uri_mismatch_rejected(self):
        kp = keygen(rng())
        tok = self.mint(kp)
        assert not verify_call_token(kp.public, tok, self.CALLER,
                                     "sip:mallory@echo.example", 150, set())
        assert not verify_call_token(kp.public, tok, "sip:mallory@echo.example",
                                     self.CALLEE, 150, set())

    def test_expiry(self):
        kp = keygen(rng())
        tok = self.mint(kp, now=100, ttl=50)
        assert verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 149, set())
        assert not verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 150, set())

    def test_wrong_signer_rejected(self):
        kp, other = keygen(rng(1)), keygen(rng(2))
        tok = self.mint(kp)
        assert not verify_call_token(other.public, tok, self.CALLER, self.CALLEE, 150, set())

    def test_failed_match_still_burns_nonce(self):
        # a valid signature with a rejected URI must not leave the nonce fresh
        kp = keygen(rng())
        tok = self.mint(kp)
        cache = set()
        assert not verify_call_token(kp.public, tok, self.CALLER, "sip:x@y", 150, cache)
        assert not verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 150, cache)

    def test_forged_signature_does_not_burn_nonce(self):
        kp = keygen(rng())
        tok = self.mint(kp)
        forged = CallAuthToken(caller=tok.caller, callee=tok.callee,
                               call_type=tok.call_type, issued_at=tok.issued_at,
                               ttl=tok.ttl, nonce=tok.nonce, signature=b"\x00" * 64)
        cache = set()
        assert not verify_call_token(kp.public, forged, self.CALLER, self.CALLEE, 150, cache)
        assert verify_call_token(kp.public, tok, self.CALLER, self.CALLEE, 150, cache)

    def test_encode_round_trip(self):
        kp = keygen(rng())
        tok = self.mint(kp)
        assert CallAuthToken.from_b64(tok.b64()) == tok

    @settings(max_examples=200, deadline=None)
    @given(mutation=st.sampled_from(["caller", "callee"]),
           suffix=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1,
                          max_size=8))
    def test_any_uri_perturbation_rejected(self, mutation, suffix):
        kp = keygen(rng())
        tok = self.mint(kp)
        caller, callee = self.CALLER, self.CALLEE
        if mutation == "caller":
            caller = caller + suffix
        else:
            callee = callee[:-1] + suffix
        if (caller, callee) != (self.CALLER, self.CALLEE):
            assert not verify_call_token(kp.public, tok, caller, callee, 150, set())


# ---------------------------------------------------------------------------
# Media protection

SRTP_MASTER = bytes(range(32)) + bytes(range(14))


class TestSrtp:
    def contexts(self):
        # the receiver's master is equal to the sender's, not the same object
        return SrtpSender(SRTP_MASTER), SrtpReceiver(bytes(bytearray(SRTP_MASTER)))

    def test_round_trip(self):
        tx, rx = self.contexts()
        for i in range(10):
            payload = bytes([i]) * 160
            assert srtp_unprotect(rx, srtp_protect(tx, payload)) == payload

    def test_derivation_deterministic_and_labelled(self):
        cipher_key, auth_key, session_salt, ssrc = srtp_derive(bytes(32), bytes(14))
        assert srtp_derive(bytes(32), bytes(14)) == (cipher_key, auth_key, session_salt, ssrc)
        assert cipher_key != auth_key
        assert (len(cipher_key), len(auth_key), len(session_salt)) == (32, 32, 14)

    def test_payload_not_in_clear(self):
        tx, _ = self.contexts()
        payload = b"CANARY-" + bytes(153)
        assert b"CANARY" not in srtp_protect(tx, payload)

    def test_tag_flip_rejected_before_decrypt(self):
        tx, rx = self.contexts()
        pkt = bytearray(srtp_protect(tx, bytes(160)))
        pkt[-1] ^= 0x01
        with pytest.raises(CryptoError, match="auth"):
            srtp_unprotect(rx, bytes(pkt))
        assert rx.auth_failures == 1

    def test_ciphertext_flip_rejected(self):
        tx, rx = self.contexts()
        pkt = bytearray(srtp_protect(tx, bytes(160)))
        pkt[20] ^= 0x01
        with pytest.raises(CryptoError, match="auth"):
            srtp_unprotect(rx, bytes(pkt))

    def test_replay_dropped(self):
        tx, rx = self.contexts()
        pkt = srtp_protect(tx, bytes(160))
        srtp_unprotect(rx, pkt)
        with pytest.raises(CryptoError, match="replay"):
            srtp_unprotect(rx, pkt)
        assert rx.replay_drops == 1

    def test_reorder_within_window_accepted(self):
        tx, rx = self.contexts()
        pkts = [srtp_protect(tx, bytes([i]) * 160) for i in range(4)]
        srtp_unprotect(rx, pkts[0])
        srtp_unprotect(rx, pkts[3])
        assert srtp_unprotect(rx, pkts[1]) == bytes([1]) * 160
        with pytest.raises(CryptoError, match="replay"):
            srtp_unprotect(rx, pkts[1])

    def test_reorder_across_rollover(self):
        # RFC 3711 3.3.1: a late packet from before the 32-bit wrap keeps
        # the old rollover count; it must not be guessed 2^32 too high
        tx, rx = self.contexts()
        tx.send_index = 2**32 - 3
        payloads = [bytes([i]) * 160 for i in range(8)]
        pkts = [srtp_protect(tx, p) for p in payloads]
        for i in (0, 3, 1, 4, 2, 6, 5, 7):   # 3 = index 2^32, the wrap
            assert srtp_unprotect(rx, pkts[i]) == payloads[i]
        assert rx.replay_drops == 0 and rx.auth_failures == 0
        assert rx.recv_highest == 2**32 + 4   # rollover count 1

    def test_stale_beyond_window_dropped(self):
        tx, rx = self.contexts()
        first = srtp_protect(tx, bytes(160))
        for i in range(1, 70):
            srtp_unprotect(rx, srtp_protect(tx, bytes([i % 251]) * 160))
        with pytest.raises(CryptoError, match="replay"):
            srtp_unprotect(rx, first)

    def test_wrap_guard_at_2_48(self):
        tx, _ = self.contexts()
        tx.send_index = crypto.SRTP_MAX_INDEX
        with pytest.raises(CryptoError, match="wrap"):
            srtp_protect(tx, bytes(160))

    def test_a_payload_of_2_16_blocks_round_trips(self):
        tx, rx = self.contexts()
        payload = bytes(range(256)) * (crypto.SRTP_MAX_PAYLOAD // 256)
        assert len(payload) == 2 ** 20
        assert srtp_unprotect(rx, srtp_protect(tx, payload)) == payload

    def test_a_payload_past_2_16_blocks_is_refused_before_it_takes_an_index(self):
        tx, _ = self.contexts()
        with pytest.raises(CryptoError, match="1048577 bytes exceeds the 1048576-byte limit"):
            srtp_protect(tx, bytes(2 ** 20 + 1))
        assert tx.send_index == 0

    def test_distinct_ssrc_rejected(self):
        # a receiver of another master: the packet's record names another
        # owner, so the full path meets another stream's ssrc first
        tx, _ = self.contexts()
        rx = SrtpReceiver(bytes(46))
        assert rx.keys.ssrc != tx.ssrc
        with pytest.raises(CryptoError, match="ssrc"):
            srtp_unprotect(rx, srtp_protect(tx, bytes(160)))
        assert rx.auth_failures == 1

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=400))
    def test_round_trip_property(self, payload):
        tx, rx = self.contexts()
        assert srtp_unprotect(rx, srtp_protect(tx, payload)) == payload

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n=st.integers(2, 150), data=st.data())
    def test_random_reordering_across_rollover(self, n, data):
        # n packets whose indexes straddle 2^32, delivered in any order with
        # replays mixed in, to a receiver that has tracked the stream up to
        # the packet before them; judged against a model of the 64-entry window
        tx, rx = self.contexts()
        first = 2**32 - data.draw(st.integers(1, n - 1), label="before_wrap")
        tx.send_index = first - 1
        srtp_unprotect(rx, srtp_protect(tx, b"primer"))
        payloads = [i.to_bytes(2, "big") * 80 for i in range(n)]
        pkts = [srtp_protect(tx, p) for p in payloads]
        replays = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="replays")
        order = data.draw(st.permutations(list(range(n)) + replays), label="order")
        highest, accepted, drops = first - 1, set(), 0
        for i in order:
            index = first + i
            inside = index > highest or (
                highest - index < crypto.REPLAY_WINDOW and i not in accepted)
            if inside:
                assert srtp_unprotect(rx, pkts[i]) == payloads[i]
                accepted.add(i)
                highest = max(highest, index)
            else:
                with pytest.raises(CryptoError, match="replay"):
                    srtp_unprotect(rx, pkts[i])
                drops += 1
        assert rx.replay_drops == drops
        assert rx.auth_failures == 0

    def test_one_cipher_per_context(self, monkeypatch):
        # the keystream must not build a cipher context per packet: the
        # sender keys one at once, and the receiver one at its first plain
        # copy, which takes the full path
        built = []

        def counting_cipher(*args, **kwargs):
            built.append(args)
            return Cipher(*args, **kwargs)

        monkeypatch.setattr(crypto, "Cipher", counting_cipher)
        tx, rx = self.contexts()
        assert len(built) == 1
        for i in range(100):
            payload = bytes([i]) * 160
            assert srtp_unprotect(rx, bytes(srtp_protect(tx, payload))) == payload
        assert len(built) == 2

    def test_keyed_once_per_context(self, monkeypatch):
        # every packet continues state keyed when each end was: no cipher,
        # HMAC or hash is built for a packet, on the full path too
        tx, rx = self.contexts()
        assert rx.keys.ssrc == tx.ssrc   # keys the receiver before counting
        built = []
        for owner, name in ((hmac, "new"), (hmac, "digest"), (hashlib, "sha256"),
                            (crypto, "Cipher")):
            make = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _make=make, _name=name, **k:
                                built.append(_name) or _make(*a, **k))
        packets = []
        for i in range(100):
            packets.append(srtp_protect(tx, bytes([i]) * 160))
            assert srtp_unprotect(rx, bytes(packets[-1])) == bytes([i]) * 160
        monkeypatch.undo()
        assert built == []
        auth_key = srtp_derive(SRTP_MASTER[:32], SRTP_MASTER[32:])[1]
        for pkt in packets:   # still HMAC-SHA256 over header and ciphertext, cut to 80 bits
            assert pkt[-SRTP_TAG_LEN:] == hmac.new(auth_key, pkt[:-SRTP_TAG_LEN],
                                                   hashlib.sha256).digest()[:SRTP_TAG_LEN]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(key=(st.integers(0, 64) | st.sampled_from((32, 63, 64))).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           data=st.binary(max_size=600))
    def test_tag_is_hmac_sha256_80(self, key, data):
        # keys up to the 64-byte block, srtp_derive's 32 bytes among them;
        # the length is drawn first so that every length comes up
        keys = SrtpKeys(bytes(32), key, bytes(14), 0)
        assert crypto._tag(keys, data) == hmac.new(key, data, hashlib.sha256).digest()[:10]

    # srtp_protect of FRAME under KAT_KEY and KAT_SALT at four send indexes,
    # recorded from the implementation that keyed an hmac.HMAC per context
    KAT_KEY, KAT_SALT, FRAME = bytes(range(32)), bytes(range(100, 114)), b"known-answer frame"
    KAT = {
        0: "000000000000000000ddd0214fddb1d11fda58ab9f5c1e033cb611baeb0bcfd1bc53947fa35d8de3",
        1: "00000001000000a000ddd021dd9f0e9a983690a4c5aa125e76fedda98fa595012cd613f822bbb799",
        2**32 - 1:
           "ffffffffffffff6000ddd0219192e95b1d87e556e344bebbafd1035fd0ac4086ce50b474bc6bd7b6",
        2**32: "000000000000000000ddd0219ec84f1050da52d0d25956c41544dd36bec90533606853ea5fa992c0",
    }

    def test_known_answers(self):
        rx = SrtpReceiver(self.KAT_KEY + self.KAT_SALT)
        for index, packet in self.KAT.items():
            tx = SrtpSender(self.KAT_KEY + self.KAT_SALT)
            tx.send_index = index
            assert srtp_protect(tx, self.FRAME).hex() == packet
            assert srtp_unprotect(rx, bytes.fromhex(packet)) == self.FRAME
        assert rx.recv_highest >> 32 == 1 and rx.auth_failures == rx.replay_drops == 0

    def test_a_jump_of_2_26_indexes_leaves_only_the_newest_bit(self):
        # RFC 3711 3.3.2: a jump of a whole window or more slides every
        # earlier index out; the receiver builds no integer as wide as the jump
        tx, rx = self.contexts()
        srtp_unprotect(rx, srtp_protect(tx, bytes(160)))
        tx.send_index = 2 ** 26
        packet = srtp_protect(tx, bytes(160))
        tracemalloc.start()
        try:
            assert srtp_unprotect(rx, packet) == bytes(160)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rx.recv_window == 1 and rx.recv_highest == 2 ** 26
        assert peak < 64 * 1024

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="ROADMAP item 5: the rollover count is not authenticated, so a "
                              "fresh receiver guesses index 0 and returns garbage")
    def test_fresh_receiver_past_the_wrap_rejects(self):
        tx, rx = self.contexts()
        tx.send_index = 2**32
        with pytest.raises(CryptoError, match="auth"):
            srtp_unprotect(rx, srtp_protect(tx, bytes(range(160))))
        assert rx.auth_failures == 1


def _ref_recover_index(rx, seq32):
    """_recover_index as it was when the receiver kept its rollover count
    apart, the count now read from recv_highest."""
    roc = rx.recv_highest >> 32 if rx.recv_highest >= 0 else 0
    if rx.recv_highest >= 0:
        last32 = rx.recv_highest & 0xFFFFFFFF
        if last32 - seq32 > 0x80000000:
            roc += 1
        elif seq32 - last32 > 0x80000000 and roc > 0:
            roc -= 1
    return (roc << 32) | seq32


def _ref_srtp_unprotect(rx, packet):
    """srtp_unprotect as it was before the record: every packet gets the full
    ssrc and tag checks and is decrypted at the index the receiver recovers."""
    if len(packet) < crypto._RTP_HEADER.size + 1 + SRTP_TAG_LEN:
        rx.auth_failures += 1
        raise CryptoError("auth: packet too short")
    seq32, _, ssrc = crypto._RTP_HEADER.unpack_from(packet)
    if ssrc != rx.keys.ssrc:
        rx.auth_failures += 1
        raise CryptoError(f"unknown ssrc {ssrc:#x}")
    if not hmac.compare_digest(packet[-SRTP_TAG_LEN:],
                               crypto._tag(rx.keys, packet[:-SRTP_TAG_LEN])):
        rx.auth_failures += 1
        raise CryptoError("auth: bad tag")
    index = _ref_recover_index(rx, seq32)
    delta = index - rx.recv_highest
    if rx.recv_highest >= 0:
        if delta <= 0:
            if -delta >= crypto.REPLAY_WINDOW or (rx.recv_window >> -delta) & 1:
                rx.replay_drops += 1
                raise CryptoError(f"replay: index {index}")
    payload = crypto._ctr_crypt(rx.keys, index, packet[crypto._RTP_HEADER.size:-SRTP_TAG_LEN])
    if delta > 0 or rx.recv_highest < 0:
        window = crypto.REPLAY_WINDOW
        shift = (delta if delta < window else window) if rx.recv_highest >= 0 else 1
        rx.recv_window = ((rx.recv_window << shift) | 1) & (2 ** window - 1)
        rx.recv_highest = index
    else:
        rx.recv_window |= 1 << -delta
    return payload


def _unprotect_verdict(unprotect, rx, packet):
    """What unprotect returns or the text of the CryptoError it raises, and
    the receiver's counters and window after it."""
    try:
        outcome = unprotect(rx, packet)
    except CryptoError as exc:
        outcome = ("CryptoError", str(exc))
    return outcome, (rx.auth_failures, rx.replay_drops, rx.recv_highest, rx.recv_window)


# where the sender starts, and what happens next; tests/fuzz_srtp.py draws
# from these too
SRTP_OFFSETS = (st.sampled_from([0, 1, 2**32 - 3, 2**32, 2**32 + 3, 2**33])
                | st.integers(0, crypto.SRTP_MAX_INDEX - 2**34))
SRTP_STEPS = st.lists(st.tuples(
    st.sampled_from(["protect"] * 3 + ["deliver"] * 3
                    + ["resend", "copy", "tamper", "foreign", "skip"]),
    st.integers(0, 2 ** 16)), max_size=40)


def unprotect_matches_full_path(offset: int, primed: bool, steps: list) -> None:
    """One sender and two receivers of one master: the receiver under test
    answers the sender's packets from their record, the other takes the
    full path every time; both must give the same answer and end in the
    same state, also for a plain copy of a packet and for a packet whose
    record names another master."""
    tx, rx = TestSrtp().contexts()
    ref = SrtpReceiver(SRTP_MASTER)
    derived = srtp_derive(SRTP_MASTER[:32], SRTP_MASTER[32:])
    sent, pending = [], []

    def deliver(packet):
        assert (_unprotect_verdict(srtp_unprotect, rx, packet)
                == _unprotect_verdict(_ref_srtp_unprotect, ref, packet))

    tx.send_index = offset
    if primed and offset:   # the receivers have tracked the stream up to here
        tx.send_index = offset - 1
        deliver(srtp_protect(tx, b"primer"))
    for step, n in steps:
        if step == "protect" and tx.send_index < crypto.SRTP_MAX_INDEX:
            sent.append(srtp_protect(tx, bytes([n % 256]) * (1 + n % 200)))
            pending.append(sent[-1])
        elif step == "deliver" and pending:   # in any order
            deliver(pending.pop(n % len(pending)))
        elif step == "resend" and sent:
            deliver(sent[n % len(sent)])
        elif step == "copy" and sent:
            deliver(bytes(sent[n % len(sent)]))
        elif step == "tamper" and sent:
            packet = sent[n % len(sent)]
            deliver(_flip(packet, n % (8 * len(packet))))
        elif step == "foreign" and tx.send_index < crypto.SRTP_MAX_INDEX:
            # the receivers' ssrc and index, but one key of its own: keyed
            # state no master derives, whose records name another master; a
            # sender rekeyed before its first packet, so it holds no keystream
            keys = list(derived)
            keys[n % 3] = bytes(len(keys[n % 3]))
            foreign = SrtpSender(SRTP_MASTER)
            SrtpKeys.__init__(foreign, *keys)
            foreign.owner, foreign.send_index = (bytes(46),), tx.send_index
            deliver(srtp_protect(foreign, bytes([n % 256]) * (1 + n % 200)))
        elif step == "skip":   # up to 2^32 indexes that never reach the receivers
            tx.send_index = min(tx.send_index + n * 2 ** 16, crypto.SRTP_MAX_INDEX)


class TestSrtpAgainstReference:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(offset=SRTP_OFFSETS, primed=st.booleans(), steps=SRTP_STEPS)
    @example(offset=2**32, primed=False, steps=[("protect", 0), ("deliver", 0)])
    @example(offset=2**32 - 2, primed=True,
             steps=[("protect", 0)] * 4 + [("deliver", 3), ("deliver", 0), ("resend", 3),
                                            ("tamper", 100), ("deliver", 0), ("deliver", 0)])
    def test_unprotect_matches_the_full_path(self, offset, primed, steps):
        unprotect_matches_full_path(offset, primed, steps)

    def test_a_tampered_packet_misses_the_record(self, monkeypatch):
        tx, rx = TestSrtp().contexts()
        packet = srtp_protect(tx, bytes(160))
        with pytest.raises(CryptoError, match="auth: bad tag"):
            srtp_unprotect(rx, _flip(packet, 8 * 20))
        assert rx.auth_failures == 1
        assert srtp_unprotect(rx, packet) == bytes(160)
        # a plain copy carries no record: its tag is checked, and it
        # decrypts to the same payload
        tags = []
        tag = crypto._tag
        monkeypatch.setattr(crypto, "_tag", lambda *args: tags.append(1) or tag(*args))
        _, fresh = TestSrtp().contexts()
        assert srtp_unprotect(fresh, bytes(packet)) == bytes(160)
        assert tags and fresh.auth_failures == 0


def _reference_ctr(derived, index, data):
    """AES-256-CTR as RFC 3711 lays out the IV, straight from the library."""
    cipher_key, _, session_salt, ssrc = derived
    iv = int.from_bytes(session_salt + b"\x00\x00", "big") ^ (ssrc << 64) ^ (index << 16)
    enc = Cipher(algorithms.AES(cipher_key), modes.CTR(iv.to_bytes(16, "big"))).encryptor()
    return enc.update(data) + enc.finalize()


class TestKeystream:
    BASE = srtp_derive(bytes(range(32)), bytes(range(14)))   # the four derived values

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(length=st.one_of(st.integers(1, 1000),   # and across the 256-block segments
                            st.integers(4080, 4112), st.integers(8176, 8208)),
           index=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, crypto.SRTP_MAX_INDEX - 1]),
                           st.integers(2**32 - 64, 2**32 + 64),
                           st.integers(0, crypto.SRTP_MAX_INDEX - 1)),
           variant=st.sampled_from(["derived", "ssrc", "salt", "cipher_key"]),
           ssrc=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**16))
    def test_matches_library_ctr(self, length, index, variant, ssrc, seed):
        cipher_key, auth_key, salt, base_ssrc = self.BASE
        derived = {"derived": self.BASE,
                   "ssrc": (cipher_key, auth_key, salt, ssrc),
                   "salt": (cipher_key, auth_key, b"\xff" * 14, base_ssrc),
                   "cipher_key": (bytes(32), auth_key, salt, base_ssrc)}[variant]
        data = random.Random(seed).randbytes(length)
        assert crypto._ctr_crypt(SrtpKeys(*derived), index, data) == _reference_ctr(
            derived, index, data)

    def test_counter_wraps_mod_2_128(self):
        # all-ones salt and a zero ssrc put the IV 2^16 blocks below 2^128:
        # one more block makes the counter wrap, as OpenSSL's CTR does
        derived = (*self.BASE[:2], b"\xff" * 14, 0)
        data = bytes(range(256)) * (2**12 + 1)
        assert crypto._ctr_crypt(SrtpKeys(*derived), 0, data) == _reference_ctr(derived, 0, data)


def _reference_protect(master: bytes, index: int, payload: bytes) -> bytes:
    """One protected packet from the library and hmac alone: the 12-byte
    header, AES-256 in CTR mode from the RFC 3711 IV, and HMAC-SHA256 cut to
    80 bits, under the four values the master's labels derive."""
    cipher_key, auth_key, salt, ssrc = (
        hmac.new(master[:32], master[32:] + bytes([label, 0]), hashlib.sha256).digest()[:size]
        for label, size in ((0x00, 32), (0x01, 32), (0x02, 14), (0x03, 4)))
    iv = int.from_bytes(salt + b"\x00\x00", "big") ^ (int.from_bytes(ssrc, "big") << 64)
    enc = Cipher(algorithms.AES(cipher_key),
                 modes.CTR((iv ^ (index << 16)).to_bytes(16, "big"))).encryptor()
    authenticated = (struct.pack(">II", index % 2**32, index * 160 % 2**32) + ssrc
                     + enc.update(payload) + enc.finalize())
    return authenticated + hmac.new(auth_key, authenticated, hashlib.sha256).digest()[:10]


# what one sender does next: protect a payload, move its index back or
# forward, or set it, across 2^32 or to within a few indexes of the end;
# tests/fuzz_srtp.py draws from these too
_PROTECT = st.tuples(st.just("protect"), st.integers(0, 300).map(  # lengths drawn evenly
    lambda n: random.Random(n).randbytes(n)))
SRTP_SEND_STEPS = st.lists(st.one_of(
    _PROTECT, _PROTECT, _PROTECT,   # three in five steps protect
    st.tuples(st.just("move"), st.integers(-130, 130)),
    st.tuples(st.just("seek"), st.integers(-3, 3).map(lambda k: 2**32 + k)
              | st.integers(-3, 0).map(lambda k: crypto.SRTP_MAX_INDEX + k)
              | st.integers(0, crypto.SRTP_MAX_INDEX))), max_size=40)


def sender_matches_reference(steps: list) -> None:
    """Every packet one sender protects, with or without keystream held from
    an earlier packet, is the reference's packet at its index."""
    tx = SrtpSender(SRTP_MASTER)
    for step, arg in steps:
        index = tx.send_index
        if step == "protect" and index == crypto.SRTP_MAX_INDEX:
            with pytest.raises(CryptoError, match=r"sequence wrap at 2\^48"):
                srtp_protect(tx, arg)
            assert tx.send_index == index
        elif step == "protect":
            assert srtp_protect(tx, arg) == _reference_protect(SRTP_MASTER, index, arg)
            assert tx.send_index == index + 1
        else:
            target = index + arg if step == "move" else arg
            tx.send_index = min(max(target, 0), crypto.SRTP_MAX_INDEX)


class TestSrtpSender:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(steps=SRTP_SEND_STEPS)
    def test_every_packet_matches_the_reference(self, steps):
        sender_matches_reference(steps)

    def test_an_empty_payload(self):
        sender_matches_reference([("protect", b""), ("protect", bytes(160)),
                                  ("protect", b""), ("protect", b"")])

    def test_a_payload_past_one_segment(self):
        # 257 blocks: it makes its own keystream, and the next packets are
        # still right
        payload = bytes(range(256)) * 16 + b"\x01"
        sender_matches_reference([("protect", bytes(160)), ("protect", payload),
                                  ("protect", bytes(160)), ("protect", payload[:4096])])

    def test_a_longer_payload_at_the_next_index(self):
        # the held keystream covers the index but not the length
        sender_matches_reference([("protect", bytes(100))] * 3 + [("protect", bytes(161)),
                                                                 ("protect", bytes(300))])

    def test_the_wrap_refusal_while_keystream_is_held(self):
        tx = SrtpSender(SRTP_MASTER)
        for _ in range(3):   # refills of 1 and 2 packets; the next makes 4
            srtp_protect(tx, bytes(160))
        tx.send_index = crypto.SRTP_MAX_INDEX - 1
        srtp_protect(tx, bytes(160))
        assert tx._ahead_from < crypto.SRTP_MAX_INDEX
        assert len(tx._ahead) > (crypto.SRTP_MAX_INDEX - tx._ahead_from) * tx._width
        with pytest.raises(CryptoError, match=r"sequence wrap at 2\^48"):
            srtp_protect(tx, bytes(160))
        assert tx.send_index == crypto.SRTP_MAX_INDEX

    def test_each_refill_is_one_aes_call_of_twice_as_many_indexes(self):
        # up to 64: six frames take three calls and make seven frames' keystream
        tx = SrtpSender(SRTP_MASTER)
        made, ecb = [], tx._ecb

        class Counting:
            def update(self, blocks):
                made.append(len(blocks) // 160)
                return ecb.update(blocks)

        tx._ecb = Counting()
        for i in range(6):
            srtp_protect(tx, bytes([i]) * 160)
        assert made == [1, 2, 4]
        for i in range(249):   # to 255 = 1 + 2 + ... + 32 + 3 * 64 frames
            srtp_protect(tx, bytes([i % 256]) * 160)
        assert made == [1, 2, 4, 8, 16, 32, 64, 64, 64]
