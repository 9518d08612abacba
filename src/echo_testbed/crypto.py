"""Application-layer cryptography for the testbed.

Real primitives, deterministic consumption: every operation that needs
randomness draws it from an injected seeded source (anything with a
``randbytes(n)`` method, e.g. random.Random), never from ambient entropy,
so identical seeds reproduce identical keys, blobs, and tokens.

The asymmetric slot is filled by a combined keypair: an Ed25519 half for
detached signatures and an X25519 half for key wrapping (ephemeral ECDH +
HKDF + AES-GCM). Credential envelopes use AES-256-CBC under a fresh random
key wrapped to the recipient certificate, armored PEM-style. Media
protection mirrors the sRTP layout: AES-256 in counter mode plus a keyed
hash tag truncated to 80 bits, with a 64-entry replay window.

What the run made is checked by lookup. A keypair records each signature
it made and each key wrapped to it. srtp_protect returns a netsim.Written
whose record, the master key‖salt its direction was keyed from, index and
payload, lives exactly as long as the packet. The answer is exact: one
master always derives the same keys, so a packet recorded under the
receiver's master carries its ssrc and a valid tag and skips both checks,
and its payload is the decryption of those bytes at that index. So the
receiver keys itself only for the full path. Decryption still runs when
the index the receiver recovers from the sequence number differs: it
decrypts at the index it guessed, as the full path does. A resent packet
meets the replay window as on the full path.

A sender makes keystream ahead, since AES-CM keystream depends only on the
keys, ssrc and index (RFC 3711 4.1.1). When what it holds does not cover a
packet's index (after an index jump) or length, srtp_protect makes it for
that index and the next ones in one AES call: 1 index at first, twice as
many at each refill after, up to 64. A payload past 256 blocks makes its
own. Receivers still make keystream only on the full path.

A keypair's to_dict() is a WrittenKeys, recording the Ed25519 object the
keypair held, and nothing else: a grant's record is the signing key object
alone. from_dict of that very dict takes it if it was built from the same
private bytes. A copy is a plain dict. The record holds no keypair.
"""

from __future__ import annotations

import base64
import hmac as hmac_mod
import hashlib
import json
import struct
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Protocol

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .netsim import Written, _payload_chunks


class CryptoError(Exception):
    """Failed cryptographic operation; no partial plaintext escapes."""


class Rng(Protocol):
    def randbytes(self, n: int) -> bytes: ...


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except Exception as exc:
        raise CryptoError(f"bad base64: {exc}") from exc


def canonical_json(obj) -> bytes:
    """The one byte encoding of anything signed or sealed: sorted keys, no
    spaces, as the trace writes a payload."""
    return "".join(_payload_chunks(obj, 0)).encode()


# ---------------------------------------------------------------------------
# Keypairs and certificates

@dataclass(frozen=True)
class PublicKey:
    """Public half of a combined signing + wrapping keypair."""

    sign_pub: bytes  # Ed25519, 32 raw bytes
    wrap_pub: bytes  # X25519, 32 raw bytes
    key_id: str

    def to_dict(self) -> dict:
        return {"sign_pub": _b64(self.sign_pub), "wrap_pub": _b64(self.wrap_pub),
                "key_id": self.key_id}

    @classmethod
    def from_dict(cls, obj: dict) -> "PublicKey":
        return cls(sign_pub=_unb64(obj["sign_pub"]), wrap_pub=_unb64(obj["wrap_pub"]),
                   key_id=obj["key_id"])


# Public half -> the live keypair whose private key derives it. A keypair
# enters when its key object is built, under the half that object derives,
# never under the sign_pub/wrap_pub fields, which from_dict takes on trust.
_SIGNERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_RECIPIENTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class WrittenKeys(dict):
    """A keypair's to_dict(), recording (sign_priv, ed25519) as the keypair
    held them, the object None if not yet built."""
    __slots__ = ("made",)


@dataclass(frozen=True)
class AsymKeypair:
    sign_priv: bytes
    sign_pub: bytes
    wrap_priv: bytes
    wrap_pub: bytes
    key_id: str

    # The private-key objects are built on first use and then held, so a
    # keypair signs or unwraps without rebuilding its key. They are not
    # fields: equality, repr and to_dict see only the bytes above.
    @cached_property
    def ed25519(self) -> Ed25519PrivateKey:
        # the record from_dict was handed, if any
        sign_priv, key = self.__dict__.get("_made", (None, None))
        if key is None or sign_priv != self.sign_priv:
            key = Ed25519PrivateKey.from_private_bytes(self.sign_priv)
        _SIGNERS[key.public_key().public_bytes_raw()] = self
        return key

    @cached_property
    def x25519(self) -> X25519PrivateKey:
        key = X25519PrivateKey.from_private_bytes(self.wrap_priv)
        _RECIPIENTS[key.public_key().public_bytes_raw()] = self
        return key

    # What this keypair made: signed bytes -> its signature, and a blob
    # wrapped to its derived X25519 half -> the key inside. A signature
    # made with the private key always verifies under the half it derives,
    # and a blob wrapped to that half always unwraps to its key, so
    # verify_detached and unwrap_key answer these from here; any other
    # bytes get the full check. Not fields either.
    @cached_property
    def _signatures(self) -> dict[bytes, bytes]:
        return {}

    @cached_property
    def _wrapped_keys(self) -> dict[bytes, bytes]:
        return {}

    @property
    def public(self) -> PublicKey:
        return PublicKey(sign_pub=self.sign_pub, wrap_pub=self.wrap_pub,
                         key_id=self.key_id)

    def to_dict(self) -> dict:
        written = WrittenKeys(sign_priv=_b64(self.sign_priv), wrap_priv=_b64(self.wrap_priv),
                              sign_pub=_b64(self.sign_pub), wrap_pub=_b64(self.wrap_pub),
                              key_id=self.key_id)
        written.made = (self.sign_priv, self.__dict__.get("ed25519"))
        return written

    @classmethod
    def from_dict(cls, obj: dict) -> "AsymKeypair":
        """The keypair to_dict wrote; CryptoError for anything else."""
        try:
            keys = {k: _unb64(obj[k]) for k in ("sign_priv", "sign_pub", "wrap_priv",
                                                "wrap_pub")}
            key_id = obj["key_id"]
        except (KeyError, TypeError) as exc:
            raise CryptoError(f"not a keypair: {exc!r}") from exc
        if not isinstance(key_id, str) or any(len(key) != 32 for key in keys.values()):
            raise CryptoError("not a keypair: needs four 32-byte keys and a key id")
        keypair = cls(key_id=key_id, **keys)
        if type(obj) is WrittenKeys:   # exactly: a copy is a plain dict
            keypair.__dict__["_made"] = obj.made
        return keypair


def keygen(rng: Rng) -> AsymKeypair:
    """Deterministically derive a fresh keypair from the seeded source."""
    sign_priv = rng.randbytes(32)
    wrap_priv = rng.randbytes(32)
    ed25519 = Ed25519PrivateKey.from_private_bytes(sign_priv)
    x25519 = X25519PrivateKey.from_private_bytes(wrap_priv)
    sign_pub = ed25519.public_key().public_bytes_raw()
    wrap_pub = x25519.public_key().public_bytes_raw()
    key_id = hashlib.sha256(sign_pub + wrap_pub).hexdigest()[:16]
    keypair = AsymKeypair(sign_priv=sign_priv, sign_pub=sign_pub,
                          wrap_priv=wrap_priv, wrap_pub=wrap_pub, key_id=key_id)
    # hold and register the objects built above, as their first use would
    keypair.__dict__.update(ed25519=ed25519, x25519=x25519)
    _SIGNERS[sign_pub] = _RECIPIENTS[wrap_pub] = keypair
    return keypair


def sign_detached(keypair: AsymKeypair, data: bytes) -> bytes:
    signature = keypair.ed25519.sign(data)
    # a copy, so a buffer changed later cannot change what was recorded
    keypair._signatures[bytes(data)] = signature
    return signature


def verify_detached(public: PublicKey, data: bytes, signature: bytes) -> bool:
    """True iff signature covers data under this key. Never raises.

    A signature the live keypair that derives this key made over exactly
    these bytes is known good; anything else gets the full Ed25519 check.
    """
    try:
        if _SIGNERS[public.sign_pub]._signatures[data] == signature:
            return True
    except (KeyError, TypeError, ValueError):
        pass
    try:
        Ed25519PublicKey.from_public_bytes(public.sign_pub).verify(signature, data)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


@dataclass(frozen=True)
class DeviceCertificate:
    """Self-signed binding of a device serial to its pairing public key."""

    subject: str
    public: PublicKey
    signature: bytes

    def signed_bytes(self) -> bytes:
        return canonical_json({"subject": self.subject, **self.public.to_dict()})

    def to_dict(self) -> dict:
        return {"subject": self.subject, "public": self.public.to_dict(),
                "signature": _b64(self.signature)}

    @classmethod
    def from_dict(cls, obj: dict) -> "DeviceCertificate":
        return cls(subject=obj["subject"], public=PublicKey.from_dict(obj["public"]),
                   signature=_unb64(obj["signature"]))


def self_sign(keypair: AsymKeypair, serial: str) -> DeviceCertificate:
    cert = DeviceCertificate(subject=serial, public=keypair.public, signature=b"")
    return replace(cert, signature=sign_detached(keypair, cert.signed_bytes()))


def verify_certificate(cert: DeviceCertificate) -> bool:
    return verify_detached(cert.public, cert.signed_bytes(), cert.signature)


# ---------------------------------------------------------------------------
# AES-256-CBC core and key wrapping

AES_BLOCK = 16


def aes256_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """Raw CBC core; plaintext must already be block-aligned."""
    if len(key) != 32 or len(iv) != AES_BLOCK:
        raise CryptoError("AES-256-CBC needs a 32-byte key and 16-byte IV")
    if len(plaintext) % AES_BLOCK:
        raise CryptoError("plaintext not block-aligned")
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return enc.update(plaintext) + enc.finalize()


def aes256_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    if len(key) != 32 or len(iv) != AES_BLOCK:
        raise CryptoError("AES-256-CBC needs a 32-byte key and 16-byte IV")
    dec = Cipher(algorithms.AES(key), modes.CBC(iv)).decryptor()
    return dec.update(ciphertext) + dec.finalize()


def _pkcs7_pad(data: bytes) -> bytes:
    n = AES_BLOCK - len(data) % AES_BLOCK
    return data + bytes([n]) * n


def _pkcs7_unpad(data: bytes) -> bytes:
    n = data[-1]
    if not 1 <= n <= AES_BLOCK or data[-n:] != bytes([n]) * n:
        raise CryptoError("bad padding")
    return data[:-n]


_WRAP_INFO = b"echo-testbed key wrap v1"


def _hkdf_sha256(secret: bytes, info: bytes) -> bytes:
    return HKDF(SHA256(), length=32, salt=None, info=info).derive(secret)


def wrap_key(recipient: PublicKey, key: bytes, rng: Rng) -> bytes:
    """Wrap a symmetric key to a recipient: ephemeral ECDH + HKDF + GCM.

    Layout: ephemeral public (32) ‖ nonce (12) ‖ GCM ciphertext+tag.
    """
    eph_priv = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph_priv.public_key().public_bytes_raw()
    peer = X25519PublicKey.from_public_bytes(recipient.wrap_pub)
    kek = _hkdf_sha256(eph_priv.exchange(peer), _WRAP_INFO)
    nonce = rng.randbytes(12)
    wrapped = eph_pub + nonce + AESGCM(kek).encrypt(nonce, key, eph_pub)
    owner = _RECIPIENTS.get(peer.public_bytes_raw())
    if owner is not None:
        owner._wrapped_keys[wrapped] = bytes(key)
    return wrapped


def unwrap_key(keypair: AsymKeypair, wrapped: bytes) -> bytes:
    """The key inside a blob wrapped to this keypair; CryptoError otherwise.

    A blob wrapped to this very keypair object gives the key it recorded;
    any other bytes get the full X25519 + HKDF + GCM check.
    """
    try:
        return keypair._wrapped_keys[wrapped]
    except (KeyError, TypeError, ValueError):
        pass
    if len(wrapped) < 32 + 12 + AES_BLOCK:
        raise CryptoError("unwrap failed: wrapped key too short")
    eph_pub, nonce, ct = wrapped[:32], wrapped[32:44], wrapped[44:]
    try:
        shared = keypair.x25519.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        kek = _hkdf_sha256(shared, _WRAP_INFO)
        return AESGCM(kek).decrypt(nonce, ct, eph_pub)
    except (InvalidTag, ValueError) as exc:
        raise CryptoError("unwrap failed") from exc


# ---------------------------------------------------------------------------
# Credential envelope

_ARMOR_HEAD = "-----BEGIN ENCRYPTED CREDENTIAL-----"
_ARMOR_TAIL = "-----END ENCRYPTED CREDENTIAL-----"


@dataclass(frozen=True)
class EncryptedCredentialBlob:
    """Wrapped key + IV + CBC ciphertext, carried as ASCII armor."""

    wrapped_key: bytes
    iv: bytes
    ciphertext: bytes

    def __post_init__(self):
        if not self.ciphertext or len(self.ciphertext) % AES_BLOCK:
            raise CryptoError("ciphertext must be a positive multiple of 16 bytes")

    def to_armor(self) -> str:
        inner = (struct.pack(">H", len(self.wrapped_key)) + self.wrapped_key
                 + self.iv + self.ciphertext)
        b64 = base64.b64encode(inner).decode("ascii")
        lines = [b64[i:i + 64] for i in range(0, len(b64), 64)]
        return "\n".join([_ARMOR_HEAD, *lines, _ARMOR_TAIL]) + "\n"

    @classmethod
    def from_armor(cls, text: str) -> "EncryptedCredentialBlob":
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if len(lines) < 3 or lines[0] != _ARMOR_HEAD or lines[-1] != _ARMOR_TAIL:
            raise CryptoError("bad armor markers")
        try:
            inner = base64.b64decode("".join(lines[1:-1]), validate=True)
        except Exception as exc:
            raise CryptoError("armor body is not base64") from exc
        if len(inner) < 2:
            raise CryptoError("armor body truncated")
        (wrapped_len,) = struct.unpack(">H", inner[:2])
        wrapped = inner[2:2 + wrapped_len]
        rest = inner[2 + wrapped_len:]
        if len(rest) < AES_BLOCK + AES_BLOCK:
            raise CryptoError("armor body truncated")
        return cls(wrapped_key=wrapped, iv=rest[:AES_BLOCK], ciphertext=rest[AES_BLOCK:])


def encrypt_credential(credential, cert: DeviceCertificate, rng: Rng) -> EncryptedCredentialBlob:
    """Encrypt a Wi-Fi credential to a device certificate.

    Fresh 32-byte key and 16-byte IV per call; the key rides wrapped to the
    certificate's public key; the plaintext is the credential's canonical
    serialization, PKCS7-padded.
    """
    credential.validate()
    key = rng.randbytes(32)
    iv = rng.randbytes(16)
    ciphertext = aes256_cbc_encrypt(key, iv, _pkcs7_pad(credential.canonical_bytes()))
    return EncryptedCredentialBlob(wrapped_key=wrap_key(cert.public, key, rng),
                                   iv=iv, ciphertext=ciphertext)


def decrypt_credential(blob: EncryptedCredentialBlob, keypair: AsymKeypair):
    """Recover the credential, or fail without releasing partial plaintext."""
    from .client import WifiCredential

    key = unwrap_key(keypair, blob.wrapped_key)
    padded = aes256_cbc_decrypt(key, blob.iv, blob.ciphertext)
    plaintext = _pkcs7_unpad(padded)
    try:
        return WifiCredential.from_canonical_bytes(plaintext)
    except ValueError as exc:
        raise CryptoError(f"credential plaintext malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# Cloud auth token

def mint_auth_token(cloud_keypair: AsymKeypair, account_id: str, serial: str,
                    now: int, rng: Rng) -> str:
    """A base64 token opaque to everyone but the cloud keypair holder.

    Internal layout (cloud-side only): nonce ‖ wrapped-key length ‖ wrapped
    key ‖ GCM ciphertext of {account id, device serial, issue time}. The
    real device token is only known to *appear* to carry encrypted data;
    this layout is normative for the testbed alone.
    """
    payload = canonical_json({"account": account_id, "serial": serial, "issued": now})
    key = rng.randbytes(32)
    nonce = rng.randbytes(12)
    ct = AESGCM(key).encrypt(nonce, payload, b"auth-token")
    wrapped = wrap_key(cloud_keypair.public, key, rng)
    return _b64(nonce + struct.pack(">H", len(wrapped)) + wrapped + ct)


def open_auth_token(cloud_keypair: AsymKeypair, token: str) -> dict:
    """Decrypt and return {account, serial, issued}; any tamper fails."""
    blob = _unb64(token)
    if len(blob) < 14:
        raise CryptoError("token truncated")
    nonce = blob[:12]
    (wrapped_len,) = struct.unpack(">H", blob[12:14])
    wrapped = blob[14:14 + wrapped_len]
    ct = blob[14 + wrapped_len:]
    if len(wrapped) != wrapped_len or not ct:
        raise CryptoError("token truncated")
    key = unwrap_key(cloud_keypair, wrapped)
    try:
        payload = AESGCM(key).decrypt(nonce, ct, b"auth-token")
    except InvalidTag as exc:
        raise CryptoError("token tampered") from exc
    obj = json.loads(payload)
    return {"account": obj["account"], "serial": obj["serial"], "issued": obj["issued"]}


def hello_signed_bytes(hello: dict) -> bytes:
    """What a device signs in its voice-service hello: every field but the
    signature, a missing one as null."""
    return canonical_json({k: hello.get(k) for k in
                           ("auth_token", "device_type", "serial", "timestamp")})


# ---------------------------------------------------------------------------
# Call authorization token

@dataclass(frozen=True)
class CallAuthToken:
    """Single-use call grant, bound to both calling and called URIs."""

    caller: str
    callee: str
    call_type: str  # "regular" | "intercom"
    issued_at: int  # virtual-clock time; same unit as the verifier's now
    ttl: int
    nonce: bytes    # 16 bytes
    signature: bytes

    def _claims(self) -> dict:
        return {"caller": self.caller, "callee": self.callee, "type": self.call_type,
                "issued_at": self.issued_at, "ttl": self.ttl, "nonce": _b64(self.nonce)}

    def signed_bytes(self) -> bytes:
        return canonical_json(self._claims())

    def b64(self) -> str:
        return _b64(canonical_json({**self._claims(), "signature": _b64(self.signature)}))

    @classmethod
    def from_b64(cls, text: str) -> "CallAuthToken":
        try:
            obj = json.loads(_unb64(text).decode("utf-8"))
            return cls(caller=obj["caller"], callee=obj["callee"], call_type=obj["type"],
                       issued_at=int(obj["issued_at"]), ttl=int(obj["ttl"]),
                       nonce=_unb64(obj["nonce"]), signature=_unb64(obj["signature"]))
        except CryptoError:
            raise
        except Exception as exc:
            raise CryptoError(f"bad call token encoding: {exc}") from exc


def mint_call_token(signing_keypair: AsymKeypair, caller: str, callee: str,
                    call_type: str, ttl: int, now: int, rng: Rng) -> CallAuthToken:
    token = CallAuthToken(caller=caller, callee=callee, call_type=call_type,
                          issued_at=now, ttl=ttl, nonce=rng.randbytes(16), signature=b"")
    return replace(token, signature=sign_detached(signing_keypair, token.signed_bytes()))


def verify_call_token(public: PublicKey, token: CallAuthToken, caller: str,
                      callee: str, now: int, nonce_cache: set) -> bool:
    """True iff the signature holds, URIs match exactly, the token is
    unexpired, and its nonce is unseen.

    An authentically signed token burns its nonce on any verification
    attempt, successful or not, so a verdict can never flip back to true.
    """
    if not verify_detached(public, token.signed_bytes(), token.signature):
        return False
    seen = token.nonce in nonce_cache
    nonce_cache.add(token.nonce)
    if seen:
        return False
    if token.caller != caller or token.callee != callee:
        return False
    if now >= token.issued_at + token.ttl:
        return False
    return True


# ---------------------------------------------------------------------------
# Media protection (sRTP-style)

SRTP_TAG_LEN = 10
SRTP_MAX_INDEX = 2 ** 48
SRTP_MAX_PAYLOAD = 2 ** 16 * AES_BLOCK   # 1 MiB: a counter runs 2^16 blocks (RFC 3711 4.1.1)
REPLAY_WINDOW = 64

_RTP_HEADER = struct.Struct(">III")  # seq (low 32 bits of index), timestamp, ssrc
_IPAD = bytes(b ^ 0x36 for b in range(256))   # byte maps for K'⊕ipad and K'⊕opad
_OPAD = bytes(b ^ 0x5C for b in range(256))


def srtp_derive(master_key: bytes, master_salt: bytes) -> tuple[bytes, bytes, bytes, int]:
    """Derive the cipher key, auth key, session salt and ssrc from the master
    secret, each the first HMAC-SHA256 block of its own label, cut to size;
    distinct labels keep the cipher and auth keys independent."""
    cipher_key, auth_key, session_salt, ssrc = (
        hmac_mod.new(master_key, master_salt + bytes([label, 0]), hashlib.sha256).digest()[:size]
        for label, size in ((0x00, 32), (0x01, 32), (0x02, 14), (0x03, 4)))
    return cipher_key, auth_key, session_salt, int.from_bytes(ssrc, "big")


class SrtpKeys:
    """One media direction's session keys, keyed once for all its packets."""

    def __init__(self, cipher_key: bytes, auth_key: bytes, session_salt: bytes, ssrc: int):
        self.ssrc = ssrc
        # one AES encryptor; the counter-mode keystream is this encryptor
        # applied to the counter blocks (see _ctr_crypt)
        self._ecb = Cipher(algorithms.AES(cipher_key), modes.ECB()).encryptor()
        # the IV less its index term: salt‖0x0000 XOR ssrc<<64 (RFC 3711 4.1.1)
        self._iv_base = int.from_bytes(session_salt + b"\x00\x00", "big") ^ (ssrc << 64)
        # SHA-256 states that have absorbed K'⊕ipad and K'⊕opad (RFC 2104 2),
        # K' being the auth key, which srtp_derive makes 32 bytes, zero-padded
        # to the 64-byte block; each tag continues copies of them
        key = auth_key.ljust(64, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))


class SrtpSender(SrtpKeys):
    """One media direction's sending end (RFC 3711 3.2.1), keyed from its
    46-byte master key‖salt at once, holding its next indexes' keystream."""

    def __init__(self, master: bytes):
        super().__init__(*srtp_derive(master[:32], master[32:]))
        self.owner = (master,)   # what its packets' records name
        self.send_index = 0
        # _ahead: _width bytes of keystream per index from _ahead_from on;
        # _refill: how many indexes the next refill makes
        self._ahead, self._ahead_from, self._width, self._refill = b"", 0, 0, 1


class SrtpReceiver:
    """The receiving end of one media direction (RFC 3711 3.3). It keys itself
    from its master only for a packet whose record cannot answer it."""

    def __init__(self, master: bytes):
        self.owner = (master,)
        self.recv_highest = -1   # the one position: the highest index taken, -1 before any
        self.recv_window = 0   # bitmask of the last REPLAY_WINDOW indexes
        self.replay_drops = self.auth_failures = 0

    @cached_property
    def keys(self) -> SrtpKeys:
        return SrtpKeys(*srtp_derive(self.owner[0][:32], self.owner[0][32:]))


_SEGMENT = 256   # counter blocks that share the IV's top 15 bytes
_SUFFIXES = [bytes([i]) for i in range(_SEGMENT)]   # objects CPython already caches
_PREFIX_MASK = (1 << 120) - 1


def _counter_blocks(keys: SrtpKeys, index: int, blocks: int, count: int = 1) -> bytes:
    # AES-256-CTR, byte for byte: the keystream is the AES encryption of the
    # counter blocks iv, iv+1, ... (mod 2^128, as OpenSSL's CTR increments).
    # The IV's low 16 bits are always 0, so block j is (the IV's top 15
    # bytes + j // 256) mod 2^120, followed by the one byte j mod 256; here
    # for count packets from index on, each `blocks` long.
    runs = [(first // _SEGMENT, _SUFFIXES[:min(blocks - first, _SEGMENT)])
            for first in range(0, blocks, _SEGMENT)]
    segments = []
    for i in range(index, index + count):
        top = (keys._iv_base ^ (i << 16)) >> 8
        for segment, suffixes in runs:
            prefix = ((top + segment) & _PREFIX_MASK).to_bytes(AES_BLOCK - 1, "big")
            segments += (prefix, prefix.join(suffixes))
    return b"".join(segments)


def _xor(data: bytes, keystream: bytes) -> bytes:
    n = len(data)   # the keystream may run longer
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream[:n], "big")).to_bytes(n, "big")


def _ctr_crypt(keys: SrtpKeys, index: int, data: bytes) -> bytes:
    return _xor(data, keys._ecb.update(_counter_blocks(keys, index, -(-len(data) // AES_BLOCK))))


def _tag(keys: SrtpKeys, authenticated: bytes) -> bytes:
    # HMAC-SHA256 cut to 80 bits: H(K'⊕opad ‖ H(K'⊕ipad ‖ text))
    inner = keys._inner.copy()
    inner.update(authenticated)
    outer = keys._outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:SRTP_TAG_LEN]


def srtp_protect(tx: SrtpSender, payload: bytes) -> bytes:
    """Protect one frame: 12-byte header ‖ ciphertext ‖ 10-byte tag."""
    n = len(payload)
    if n > SRTP_MAX_PAYLOAD:   # past it, two packets would share keystream
        raise CryptoError(f"payload of {n} bytes exceeds the "
                          f"{SRTP_MAX_PAYLOAD}-byte limit of 2^16 AES blocks")
    index = tx.send_index
    if index >= SRTP_MAX_INDEX:
        raise CryptoError("sequence wrap at 2^48")
    header = _RTP_HEADER.pack(index & 0xFFFFFFFF, (index * 160) & 0xFFFFFFFF, tx.ssrc)
    blocks = -(-n // AES_BLOCK)
    if blocks > _SEGMENT:   # a payload past one segment makes its own keystream
        authenticated = header + _ctr_crypt(tx, index, payload)
    else:
        at = (index - tx._ahead_from) * tx._width
        if not (0 <= at < len(tx._ahead) and n <= tx._width):
            # this index and the next ones in one AES call, twice as many each time
            count, tx._refill = tx._refill, min(2 * tx._refill, 64)
            tx._ahead = tx._ecb.update(_counter_blocks(tx, index, blocks, count))
            tx._ahead_from, tx._width, at = index, blocks * AES_BLOCK, 0
        authenticated = header + _xor(payload, tx._ahead[at:at + n])
    tx.send_index = index + 1
    packet = Written(authenticated + _tag(tx, authenticated))
    # a copy, so a buffer changed later cannot change what was recorded
    packet.record = (tx.owner, index, bytes(payload))
    return packet


def _recover_index(rx: SrtpReceiver, seq32: int) -> int:
    # 32-bit sequence plus a rollover count, guessed as in RFC 3711 3.3.1:
    # flows are near-monotonic, so a large backwards jump means the counter has
    # wrapped, and a large forward jump is a late packet from before the wrap.
    if rx.recv_highest < 0:   # before the first packet the count is 0
        return seq32
    roc, last32 = rx.recv_highest >> 32, rx.recv_highest & 0xFFFFFFFF
    if last32 - seq32 > 0x80000000:
        roc += 1
    elif seq32 - last32 > 0x80000000 and roc > 0:
        roc -= 1
    return (roc << 32) | seq32


def srtp_unprotect(rx: SrtpReceiver, packet: bytes) -> bytes:
    """Verify the tag before any decryption, then enforce the replay window.

    A packet a sender keyed from this master protected is answered from its
    record: the same master derives the same keys, so its ssrc and tag are
    known good, and its payload is known at the index it was protected under.
    """
    if len(packet) < _RTP_HEADER.size + 1 + SRTP_TAG_LEN:
        rx.auth_failures += 1
        raise CryptoError("auth: packet too short")
    seq32, _, ssrc = _RTP_HEADER.unpack_from(packet)
    # exactly Written: a subclass of it could read as bytes it does not hold
    made = packet.record if type(packet) is Written and packet.record[0] == rx.owner else None
    if made is None and ssrc != rx.keys.ssrc:
        rx.auth_failures += 1
        raise CryptoError(f"unknown ssrc {ssrc:#x}")
    if made is None and not hmac_mod.compare_digest(packet[-SRTP_TAG_LEN:],
                                                    _tag(rx.keys, packet[:-SRTP_TAG_LEN])):
        rx.auth_failures += 1
        raise CryptoError("auth: bad tag")
    index = _recover_index(rx, seq32)
    delta = index - rx.recv_highest
    if delta <= 0 and (-delta >= REPLAY_WINDOW or (rx.recv_window >> -delta) & 1):
        rx.replay_drops += 1
        raise CryptoError(f"replay: index {index}")
    if made is not None and made[1] == index:
        payload = made[2]
    else:   # not recorded, or the index guessed is not the one it was protected under
        payload = _ctr_crypt(rx.keys, index, packet[_RTP_HEADER.size:-SRTP_TAG_LEN])
    if delta > 0:
        # a jump of a whole window or more leaves only the newest bit
        shift = delta if delta < REPLAY_WINDOW else REPLAY_WINDOW
        rx.recv_window = ((rx.recv_window << shift) | 1) & (2 ** REPLAY_WINDOW - 1)
        rx.recv_highest = index
    else:
        rx.recv_window |= 1 << -delta
    return payload
