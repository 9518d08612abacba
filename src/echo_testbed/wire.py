"""Wire formats and service endpoints used across the testbed.

Every party agrees on one domain, under which the cloud names its hosts and
SIP names its users; TLS on 443 for every cloud service and the device's
setup proxy; and the device's plain-HTTP pairing API on 8080.

Five codecs live here:

  * a minimal HTTP/1.1 subset (Content-Length framing only, no chunked
    encoding, no pipelining),
  * the OOBE method envelope carried as JSON in a POST to /OOBE or /api,
    and in the reply; both directions need an object as args,
  * a SIP subset (headers are an ordered, repeatable list; unknown headers
    are carried verbatim), framed by the same start-line, header and
    Content-Length code as HTTP, since SIP reuses HTTP/1.1's message
    syntax (RFC 3261 section 7),
  * an SDP subset with ICE-style candidates and a single SDES crypto line,
  * the JSON control-message envelope used on the voice-service connection.

All parsers are pure functions over complete byte buffers (the transport
delivers whole messages) and raise WireError on malformed input; they never
crash on garbage. HTTP and SIP header names are checked once, on the way
in: one loop over the header lines splits each line, checks its name and
notes Content-Length, and the serializer checks each name as it writes it.
Parse and write alike refuse a second Content-Length (RFC 3261 section
7.3.1, RFC 9112 section 6.3).

The HTTP and SIP serializers refuse any field that would not read back as
written, and the parse any request target or status they refuse, so all it
accepts can be written back. A write returns a netsim.Written recording the
message it parses to; http_parse and sip_parse answer it with a fresh copy.
The record lives exactly as long as its bytes, so every reader of one
delivery hits; a copy and altered or attacker-made bytes take the full parse.
"""

from __future__ import annotations

import base64
import json
import re
import sys
from dataclasses import dataclass, field

from .netsim import Written


DOMAIN = "echo.example"
API_NAME = f"api.{DOMAIN}"
AVS_NAME = f"avs.{DOMAIN}"
TLS_PORT = 443
OOBE_PORT = 8080


# json.dumps(obj, separators=(",", ":")), built once, without a cycle check
_compact_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", False, False, True)
_scan_once = json.JSONDecoder().scan_once   # the C scanner under json.loads


class WireError(Exception):
    """Malformed or out-of-contract wire data."""


def _digits(text: str, name: str) -> int:
    """The value of text, a string of ASCII digits; a WireError naming
    name when it is longer than int() reads."""
    try:
        return int(text)
    except ValueError as exc:
        raise WireError(f"{name} of {len(text)} digits is past the limit of "
                        f"{sys.get_int_max_str_digits()}") from exc


# ---------------------------------------------------------------------------
# HTTP/1.1 subset

HTTP_VERSION = "HTTP/1.1"

_TOKEN_RE = re.compile(r"^[!#$%&'*+\-.^_`|~0-9A-Za-z]+$")
_STATUS_CODES = range(100, 1000)   # with _is_target, the start-line rules of parse and write


def _is_target(target) -> bool:   # non-empty ASCII with no whitespace (RFC 3261 25.1)
    return isinstance(target, str) and target.isascii() and target.split() == [target]


class _HeaderLookup:
    """Header access shared by HttpMessage and SipMessage."""

    headers: list[tuple[str, str]]

    # Each lookup compares the stored spelling first: headers are nearly
    # always stored as they are asked for, and then no name is case-folded.

    def header(self, name: str) -> str | None:
        """First header value matching name, case-insensitively."""
        lower = name.lower()
        for key, value in self.headers:
            if key == name or key.lower() == lower:
                return value
        return None

    def set_header(self, name: str, value: str) -> None:
        """Replace the first occurrence of name in place, or append."""
        lower = name.lower()
        for i, (key, _) in enumerate(self.headers):
            if key == name or key.lower() == lower:
                self.headers[i] = (key, value)
                return
        self.headers.append((name, value))


@dataclass
class HttpMessage(_HeaderLookup):
    """One complete HTTP request or response.

    Headers are an ordered list of (name, value) pairs; lookup is
    case-insensitive but serialization preserves the stored order and
    spelling. Content-Length is forced to the body length on serialize.
    """

    kind: str  # "request" | "response"
    method: str | None = None
    path: str | None = None
    status: int | None = None
    reason: str | None = None
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""


def _parse_message(data: bytes, cls, what: str, version: str, label: str,
                   check_headers=None):
    """Parse one complete HTTP or SIP message into cls: start line, headers, body.

    One loop over the header lines splits each at its colon, checks its name
    and notes the Content-Length. Errors come in a fixed order: the header
    block, each header line in turn (a second Content-Length among them),
    Content-Length, check_headers, and last the start line.
    """
    sep = data.find(b"\r\n\r\n")
    if sep < 0:
        raise WireError(f"{what}: no end of headers")
    try:
        head = data[:sep].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError(f"{what}: non-ASCII header block") from exc
    lines = head.split("\r\n")
    # every CR and LF must be part of a CRLF line break
    breaks = len(lines) - 1
    if head.count("\r") != breaks or head.count("\n") != breaks:
        raise WireError(f"{what}: lone CR or LF in the header block")

    headers = []
    length = None
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise WireError(f"malformed header line: {line!r}")
        name = name.strip()
        if not _TOKEN_RE.match(name):
            raise WireError(f"bad header name: {name!r}")
        value = value.strip()
        if name.lower() == "content-length":
            if length is not None:
                raise WireError(f"{what}: more than one Content-Length")
            length = value
        headers.append((name, value))

    body = data[sep + 4:]
    if length is None:
        if body:
            raise WireError(f"{what}: missing Content-Length with non-empty body")
    elif not length.isdigit():
        raise WireError(f"{what}: non-numeric Content-Length {length!r}")
    elif len(body) != (declared := _digits(length, f"{what}: Content-Length")):
        if len(body) < declared:
            raise WireError(f"{what}: body truncated ({len(body)} < {declared})")
        raise WireError(f"{what}: unparsed trailing bytes after body")
    if check_headers is not None:
        check_headers(headers)

    start = lines[0]
    if start.startswith(version + " "):
        parts = start.split(" ", 2)
        if len(parts) < 3 or not parts[1].isdigit() or len(parts[1]) != 3 \
                or int(parts[1]) not in _STATUS_CODES:
            raise WireError(f"malformed {label}status line: {start!r}")
        return cls(kind="response", status=int(parts[1]), reason=parts[2],
                   headers=headers, body=body)

    parts = start.split(" ")
    if len(parts) != 3 or parts[2] != version or not _TOKEN_RE.match(parts[0]) \
            or not _is_target(parts[1]):
        raise WireError(f"malformed {label}request line: {start!r}")
    # method, then the request target: an HTTP path or a SIP request-URI
    return cls("request", parts[0], parts[1], headers=headers, body=body)


def _recorded(data: bytes, cls, version: str):
    """A fresh cls from the record of bytes written as version, (version,
    kind, method, target, status, reason, headers, body); else None."""
    if type(data) is Written and data.record[0] == version:
        _, kind, method, target, status, reason, headers, body = data.record
        return cls(kind, method, target, status, reason, list(headers), body)
    return None


def http_parse(data: bytes) -> HttpMessage:
    """Parse one complete HTTP message (request or response)."""
    return (_recorded(data, HttpMessage, HTTP_VERSION)
            or _parse_message(data, HttpMessage, "http", HTTP_VERSION, ""))


def _serialize_message(msg, version: str, target: str | None,
                       check_headers=None) -> bytes:
    """Write msg as version, whose parse runs check_headers, recording the
    message the bytes parse to. Errors come in order: kind, check_headers,
    each header's CR/LF and name, a second Content-Length, the first value
    not to read back, start line."""
    kind = msg.kind
    if kind == "request":
        method, status, reason = msg.method, None, None
        start = f"{method} {target} {version}\r\n"
    elif kind == "response":
        method, target, status = None, None, msg.status
        reason = "" if msg.reason is None else msg.reason
        start = f"{version} {status} {reason}\r\n"
    else:
        raise WireError(f"unknown message kind {kind!r}")
    msg.set_header("Content-Length", str(len(msg.body)))
    if check_headers is not None:
        check_headers(msg.headers)
    out = [start]
    loose = None   # the first header whose value the parse would not keep
    lengths = 0
    for name, value in msg.headers:
        if "\r" in name or "\n" in name or "\r" in value or "\n" in value:
            raise WireError(f"CR/LF in header {name!r}")
        # ASCII letters, digits and "-" (every name the testbed writes) need no regex
        if not (name.replace("-", "").isalnum() and name.isascii()) \
                and not _TOKEN_RE.match(name):
            raise WireError(f"bad header name: {name!r}")
        if loose is None and not (value.isascii() and value.strip() == value):
            loose = name
        lengths += name.lower() == "content-length"
        out.append(f"{name}: {value}\r\n")
    if lengths > 1:
        raise WireError("more than one Content-Length")
    if loose is not None:
        raise WireError(f"header {loose!r}: value must be ASCII, without whitespace at an end")
    if kind == "request":
        if not (isinstance(method, str) and _TOKEN_RE.fullmatch(method)):
            raise WireError(f"bad method: {method!r}")
        if not _is_target(target):
            raise WireError(f"bad request target: {target!r}")
    elif not (type(status) is int and status in _STATUS_CODES):
        raise WireError(f"status must be 3 digits: {status!r}")
    elif not (isinstance(reason, str) and reason.isascii()
              and "\r" not in reason and "\n" not in reason):
        raise WireError(f"bad reason: {reason!r}")   # CR/LF would inject headers
    out.append("\r\n")
    data = Written("".join(out).encode("ascii") + msg.body)
    data.record = (version, kind, method, target, status, reason, tuple(msg.headers),
                   bytes(msg.body))
    return data


def http_serialize(msg: HttpMessage) -> bytes:
    """Serialize to bytes that reparse to an equal message."""
    return _serialize_message(msg, HTTP_VERSION, msg.path)


# ---------------------------------------------------------------------------
# OOBE envelope

OOBE_PATH = "/OOBE"
API_PATH = "/api"  # the cloud-side device API speaks the same envelope shape


@dataclass
class OobeEnvelope:
    """One pairing-API call or reply: a method name plus JSON arguments."""

    method: str
    args: dict = field(default_factory=dict)


def _envelope_body(env: OobeEnvelope) -> bytes:
    return "".join(_compact_chunks({"method": env.method, "args": env.args}, 0)).encode()


def _json_object(data: bytes, what: str) -> dict:
    """Parse data as one JSON object in UTF-8; a WireError names it as what.

    A body that is one JSON value from its first character to its last is
    read by one call of the scanner json.loads runs; any other body goes
    through json.loads itself, so it reads or fails just as it would there.
    """
    try:
        text = data.decode("utf-8")
        try:
            obj, end = _scan_once(text, 0)
        except Exception:   # StopIteration: no value at 0; else json.loads fails too
            end = None
        if end != len(text):
            obj = json.loads(text)
    # ValueError holds UnicodeDecodeError, json.JSONDecodeError and an
    # integer longer than int() reads
    except (ValueError, RecursionError) as exc:
        raise WireError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError(f"{what} must be a JSON object")
    return obj


def _envelope_from_body(body: bytes) -> OobeEnvelope:
    obj = _json_object(body, "OOBE body")
    method = obj.get("method")
    if not method or not isinstance(method, str):
        raise WireError("OOBE body missing method name")
    args = obj.get("args", {})
    if not isinstance(args, dict):
        raise WireError("OOBE args must be an object")
    return OobeEnvelope(method=method, args=args)


def _envelope_encode(env: OobeEnvelope, path: str) -> HttpMessage:
    return HttpMessage(kind="request", method="POST", path=path,
                       headers=[("Content-Type", "application/json")],
                       body=_envelope_body(env))


def oobe_encode(env: OobeEnvelope) -> HttpMessage:
    """Wrap an envelope into a POST /OOBE request."""
    return _envelope_encode(env, OOBE_PATH)


def api_encode(env: OobeEnvelope) -> HttpMessage:
    """Wrap an envelope into a POST /api request for the cloud device API."""
    return _envelope_encode(env, API_PATH)


def oobe_decode(msg: HttpMessage, path: str = OOBE_PATH) -> OobeEnvelope:
    """Extract the envelope from a POST request to the given path."""
    if msg.kind != "request" or msg.method != "POST":
        raise WireError("envelope calls must be POST requests")
    if msg.path != path:
        raise WireError(f"wrong path for envelope call: {msg.path!r}")
    return _envelope_from_body(msg.body)


def api_decode(msg: HttpMessage) -> OobeEnvelope:
    return oobe_decode(msg, path=API_PATH)


# OOBE responses travel as HTTP replies carrying the same envelope shape;
# errors use a non-200 status with the failing method echoed back.

def oobe_response(env: OobeEnvelope, status: int = 200, reason: str = "OK") -> HttpMessage:
    return HttpMessage(kind="response", status=status, reason=reason,
                       headers=[("Content-Type", "application/json")],
                       body=_envelope_body(env))


def oobe_decode_response(msg: HttpMessage) -> OobeEnvelope:
    if msg.kind != "response":
        raise WireError("expected an HTTP response")
    return _envelope_from_body(msg.body)


# ---------------------------------------------------------------------------
# SIP subset

SIP_VERSION = "SIP/2.0"

# Response codes (with their reason phrases) the testbed's own agents emit;
# 481 answers a request for no live dialog, 501 an unknown method. Any
# method token parses and writes, so unknown traffic still yields
# structured messages instead of crashes.
SIP_STATUSES = {100: "Trying", 180: "Ringing", 200: "OK", 403: "Forbidden",
                404: "Not Found", 481: "Call/Transaction Does Not Exist",
                486: "Busy Here", 487: "Request Terminated", 501: "Not Implemented"}

MANDATORY_SIP_HEADERS = ("Via", "From", "To", "Call-ID", "CSeq")
# folded name -> spelling: the dialog headers every message carries and
# every response copies from its request (RFC 3261 section 8.2.6.2)
DIALOG_HEADERS = {name.lower(): name for name in MANDATORY_SIP_HEADERS}

_CSEQ_RE = re.compile(r"^\d+ [A-Z]+$")


@dataclass
class SipMessage(_HeaderLookup):
    """One SIP request or response with order-preserving headers."""

    kind: str  # "request" | "response"
    method: str | None = None
    request_uri: str | None = None
    status: int | None = None
    reason: str | None = None
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    @property
    def cseq_method(self) -> str:
        cseq = self.header("CSeq") or ""
        return cseq.split(" ", 1)[1] if " " in cseq else ""


def _check_sip_headers(headers: list[tuple[str, str]]) -> None:
    # one pass folds each name once; a missing header is still reported
    # before the first bad CSeq
    present = set()
    bad_cseq = None
    for key, value in headers:
        lower = key.lower()
        present.add(lower)
        if lower == "cseq" and bad_cseq is None and not _CSEQ_RE.match(value):
            bad_cseq = value
    for lower, name in DIALOG_HEADERS.items():
        if lower not in present:
            raise WireError(f"missing mandatory header {name}")
    if bad_cseq is not None:
        raise WireError(f"bad CSeq: {bad_cseq!r}")


def sip_parse(data: bytes) -> SipMessage:
    """Parse one complete SIP message, retaining unknown headers verbatim."""
    return (_recorded(data, SipMessage, SIP_VERSION)
            or _parse_message(data, SipMessage, "sip", SIP_VERSION, "SIP ", _check_sip_headers))


def sip_serialize(msg: SipMessage) -> bytes:
    if msg.kind == "response" and msg.status not in SIP_STATUSES:
        raise WireError(f"testbed agents do not emit status {msg.status}")
    return _serialize_message(msg, SIP_VERSION, msg.request_uri, _check_sip_headers)


# ---------------------------------------------------------------------------
# SDP subset

SRTP_KEY_LEN = 32
SRTP_SALT_LEN = 14
SDES_SUITE = "AES_256_CM_HMAC_80"


@dataclass(frozen=True)
class Candidate:
    kind: str  # "host" | "relay"
    address: str
    port: int


@dataclass
class SdpBody:
    """One audio media section: port, candidates, and a single SDES crypto
    line carrying the 46-byte master key‖salt."""

    session_id: str
    media_port: int
    candidates: list[Candidate]
    crypto_suite: str
    key_salt: bytes  # 32-byte master key + 14-byte master salt


def _check_sdp(body: SdpBody) -> None:
    if body.crypto_suite != SDES_SUITE:   # the one suite keyed here (RFC 4568 7.1.2)
        raise WireError(f"unsupported crypto suite {body.crypto_suite!r}")
    if len(body.key_salt) != SRTP_KEY_LEN + SRTP_SALT_LEN:
        raise WireError(f"crypto key material must be 46 bytes, got {len(body.key_salt)}")
    if not body.candidates:
        raise WireError("SDP needs at least one candidate")
    for cand in body.candidates:
        if cand.kind not in ("host", "relay"):
            raise WireError(f"unknown candidate type {cand.kind!r}")


def sdp_encode(body: SdpBody) -> bytes:
    _check_sdp(body)
    lines = [
        "v=0",
        f"o=- {body.session_id} 0 IN IP4 0.0.0.0",
        "s=-",
        f"m=audio {body.media_port} RTP/SAVP 0",
    ]
    for i, cand in enumerate(body.candidates, start=1):
        lines.append(f"a=candidate:{i} {cand.kind} {cand.address} {cand.port}")
    b64 = base64.b64encode(body.key_salt).decode("ascii")
    lines.append(f"a=crypto:1 {body.crypto_suite} inline:{b64}")
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


def sdp_decode(data: bytes) -> SdpBody:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError("SDP is not ASCII") from exc
    session_id = None
    media_port = None
    candidates: list[Candidate] = []
    crypto = None
    for line in text.split("\r\n"):
        if not line:
            continue
        if line.startswith("o="):
            parts = line[2:].split(" ")
            if len(parts) < 2:
                raise WireError(f"malformed o= line: {line!r}")
            session_id = parts[1]
        elif line.startswith("m=audio "):
            parts = line[2:].split(" ")
            if len(parts) < 2 or not parts[1].isdigit():
                raise WireError(f"malformed m= line: {line!r}")
            media_port = _digits(parts[1], "m= port")
        elif line.startswith("a=candidate:"):
            parts = line.split(" ")
            if len(parts) != 4 or not parts[3].isdigit():
                raise WireError(f"malformed candidate line: {line!r}")
            candidates.append(Candidate(kind=parts[1], address=parts[2],
                                        port=_digits(parts[3], "candidate port")))
        elif line.startswith("a=crypto:"):
            if crypto is not None:
                raise WireError("more than one crypto line")
            parts = line.split(" ")
            if len(parts) != 3 or not parts[2].startswith("inline:"):
                raise WireError(f"malformed crypto line: {line!r}")
            try:
                key_salt = base64.b64decode(parts[2][len("inline:"):], validate=True)
            except Exception as exc:
                raise WireError("crypto line is not valid base64") from exc
            crypto = (parts[1], key_salt)
    if session_id is None or media_port is None:
        raise WireError("SDP missing session id or media line")
    if crypto is None:
        raise WireError("SDP missing crypto line")
    body = SdpBody(session_id=session_id, media_port=media_port,
                   candidates=candidates, crypto_suite=crypto[0], key_salt=crypto[1])
    _check_sdp(body)
    return body


# ---------------------------------------------------------------------------
# Control-message envelope

@dataclass
class ControlMessage:
    """One command on the cloud control plane: interface, name, payload."""

    interface: str
    name: str
    payload: object = None

    @property
    def qualified(self) -> str:
        return f"{self.interface}.{self.name}"


def control_encode(msg: ControlMessage) -> bytes:
    return "".join(_compact_chunks({"interface": msg.interface, "name": msg.name,
                                    "payload": msg.payload}, 0)).encode()


def control_decode(data: bytes) -> ControlMessage:
    obj = _json_object(data, "control message")
    interface = obj.get("interface")
    name = obj.get("name")
    if not isinstance(interface, str) or not isinstance(name, str) or not interface or not name:
        raise WireError("control message needs interface and name strings")
    return ControlMessage(interface=interface, name=name, payload=obj.get("payload"))

