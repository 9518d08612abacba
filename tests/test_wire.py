"""Wire codec tests: parse/serialize round-trips, frozen byte layouts,
malformed-input rejection."""

import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from echo_testbed import wire
from echo_testbed.wire import (
    MANDATORY_SIP_HEADERS,
    SDES_SUITE,
    SIP_STATUSES,
    SRTP_KEY_LEN,
    SRTP_SALT_LEN,
    Candidate,
    ControlMessage,
    HttpMessage,
    OobeEnvelope,
    SdpBody,
    SipMessage,
    WireError,
    control_decode,
    control_encode,
    http_parse,
    http_serialize,
    oobe_decode,
    oobe_decode_response,
    oobe_encode,
    oobe_response,
    sdp_decode,
    sdp_encode,
    sip_parse,
    sip_serialize,
)

SIP_METHODS = ("REGISTER", "INVITE", "ACK", "BYE", "CANCEL")   # what the agents send


# ---------------------------------------------------------------------------
# HTTP

class TestHttp:
    def test_request_round_trip(self):
        msg = HttpMessage(kind="request", method="POST", path="/OOBE",
                          headers=[("Host", "device.local"), ("Content-Type", "application/json")],
                          body=b'{"method":"ping","args":{}}')
        raw = http_serialize(msg)
        back = http_parse(raw)
        assert back.method == "POST"
        assert back.path == "/OOBE"
        assert back.body == msg.body
        assert back.header("content-type") == "application/json"

    def test_serialized_layout_frozen(self):
        msg = HttpMessage(kind="request", method="GET", path="/", headers=[], body=b"")
        assert http_serialize(msg) == b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"

    def test_response_status_line(self):
        msg = HttpMessage(kind="response", status=200, reason="OK",
                          headers=[("Content-Type", "text/plain")], body=b"hi")
        raw = http_serialize(msg)
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert http_parse(raw).status == 200

    def test_content_length_framing(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        assert http_parse(raw).body == b"abc"

    def test_trailing_bytes_rejected(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcd"
        with pytest.raises(WireError):
            http_parse(raw)

    def test_truncated_body_rejected(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc"
        with pytest.raises(WireError):
            http_parse(raw)

    def test_missing_blank_line_rejected(self):
        with pytest.raises(WireError):
            http_parse(b"GET / HTTP/1.1\r\nHost: x\r\n")

    def test_a_second_content_length_rejected(self):
        # RFC 9112 6.3: two lengths leave the body's end ambiguous
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 9\r\n\r\nab"
        with pytest.raises(WireError, match="^http: more than one Content-Length$"):
            http_parse(raw)

    def test_a_second_content_length_not_written(self):
        msg = HttpMessage(kind="request", method="POST", path="/x", body=b"ab",
                          headers=[("Content-Length", "2"), ("content-length", "9")])
        with pytest.raises(WireError, match="^more than one Content-Length$"):
            http_serialize(msg)

    def test_content_length_past_the_int_digit_limit_rejected(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n"
        with pytest.raises(WireError, match="^http: Content-Length of 5000 digits is past"):
            http_parse(raw)

    def test_header_injection_rejected(self):
        msg = HttpMessage(kind="request", method="GET", path="/",
                          headers=[("X-Evil", "a\r\nInjected: b")], body=b"")
        with pytest.raises(WireError):
            http_serialize(msg)

    @pytest.mark.parametrize("lone", [b"\r", b"\n"])
    def test_lone_cr_or_lf_in_a_header_line_rejected(self, lone):
        # a value that kept it would break the serializer of any reply that
        # copies the header back, such as a SIP response's Call-ID
        with pytest.raises(WireError, match="lone CR or LF"):
            http_parse(b"GET / HTTP/1.1\r\nX-Id: a" + lone + b"b\r\n\r\n")
        raw = sip_serialize(SipMessage(kind="request", method="BYE", request_uri="sip:a@b",
                                       headers=[(h, "x") for h in MANDATORY_SIP_HEADERS[:4]]
                                       + [("CSeq", "1 BYE")]))
        with pytest.raises(WireError, match="lone CR or LF"):
            sip_parse(raw.replace(b"Call-ID: x", b"Call-ID: x" + lone + b"y"))

    def test_header_lookup_case_insensitive(self):
        msg = http_parse(b"GET / HTTP/1.1\r\nX-AuthToken: abc\r\n\r\n")
        assert msg.header("x-authtoken") == "abc"
        assert msg.header("X-AUTHTOKEN") == "abc"
        assert msg.header("absent") is None

    @given(body=st.binary(max_size=300))
    def test_round_trip_property(self, body):
        msg = HttpMessage(kind="request", method="POST", path="/OOBE",
                          headers=[("Host", "h")], body=body)
        assert http_parse(http_serialize(msg)).body == body


# ---------------------------------------------------------------------------
# OOBE envelope

class TestOobe:
    def test_encode_decode(self):
        req = oobe_encode(OobeEnvelope(method="connectToAP", args={"ssid": "HomeWifi"}))
        assert req.path == "/OOBE"
        env = oobe_decode(req)
        assert env.method == "connectToAP"
        assert env.args == {"ssid": "HomeWifi"}

    def test_decode_rejects_wrong_path(self):
        req = oobe_encode(OobeEnvelope(method="ping", args={}))
        req.path = "/other"
        with pytest.raises(WireError):
            oobe_decode(req)

    def test_decode_rejects_get(self):
        req = oobe_encode(OobeEnvelope(method="ping", args={}))
        req.method = "GET"
        with pytest.raises(WireError):
            oobe_decode(req)

    def test_decode_rejects_non_json(self):
        req = oobe_encode(OobeEnvelope(method="ping", args={}))
        req.body = b"not json"
        with pytest.raises(WireError):
            oobe_decode(req)

    def test_response_round_trip(self):
        resp = oobe_response(OobeEnvelope(method="getRegistrationState",
                                          args={"state": "registered"}))
        env = oobe_decode_response(resp)
        assert env.method == "getRegistrationState"
        assert env.args == {"state": "registered"}

    def test_error_response(self):
        resp = oobe_response(OobeEnvelope(method="bogus", args={"error": "unknown method"}),
                             status=400, reason="Bad Request")
        assert resp.status == 400
        assert oobe_decode_response(resp).args["error"] == "unknown method"

    def test_response_refuses_a_request(self):
        req = oobe_encode(OobeEnvelope(method="getRegistrationState"))
        with pytest.raises(WireError, match="expected an HTTP response"):
            oobe_decode_response(req)

    @pytest.mark.parametrize("args", [b"[1]", b'"code"', b"null"])
    def test_response_refuses_non_object_args(self, args):
        resp = oobe_response(OobeEnvelope(method="getRegistrationState"))
        resp.body = b'{"method":"getRegistrationState","args":' + args + b"}"
        with pytest.raises(WireError, match="args must be an object"):
            oobe_decode_response(resp)


# ---------------------------------------------------------------------------
# SIP

SAMPLE_INVITE = (
    b"INVITE sip:bob@cloud.example SIP/2.0\r\n"
    b"Via: SIP/2.0/TCP 10.0.0.2\r\n"
    b"From: <sip:alice@cloud.example>\r\n"
    b"To: <sip:bob@cloud.example>\r\n"
    b"Call-ID: abc123\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"X-authtoken: tok\r\n"
    b"Content-Length: 0\r\n"
    b"\r\n"
)


def _two_pass_check(headers):
    """The SIP header check as two case-folding scans: the reference."""
    present = {k.lower() for k, _ in headers}
    for name in MANDATORY_SIP_HEADERS:
        if name.lower() not in present:
            raise WireError(f"missing mandatory header {name}")
    for key, value in headers:
        if key.lower() == "cseq" and not re.match(r"^\d+ [A-Z]+$", value):
            raise WireError(f"bad CSeq: {value!r}")


def _outcome(f, *args):
    try:
        return f(*args)
    except WireError as exc:
        return ("WireError", str(exc))


def _framing(headers, body):
    """sip_parse's verdict on a request with these headers and body: the
    body it framed, or its error."""
    raw = (b"OPTIONS sip:x SIP/2.0\r\n"
           + b"".join(f"{k}: {v}\r\n".encode() for k, v in headers) + b"\r\n" + body)
    out = _outcome(sip_parse, raw)
    return out if isinstance(out, tuple) else out.body


HEADER_NAMES = st.sampled_from(["Via", "VIA", "From", "from", "To", "Call-ID", "call-id",
                                "CSeq", "cseq", "CSEQ", "Content-Length", "content-length",
                                "CONTENT-LENGTH", "X-Tag"])


class TestSip:
    @settings(max_examples=300, derandomize=True)
    @given(headers=st.lists(st.tuples(HEADER_NAMES, st.sampled_from(
               ["1 INVITE", "one INVITE", "2 BYE", "0", "3", "x", ""])), max_size=9),
           name=HEADER_NAMES, body=st.sampled_from([b"", b"abc"]))
    # every dialog header present, and a bad CSeq after or before a good one:
    # the draws above seldom hold all five
    @example(headers=[("Via", "x"), ("From", "x"), ("To", "x"), ("Call-ID", "x"),
                      ("CSeq", "1 INVITE"), ("cseq", "one INVITE")], name="CSeq", body=b"")
    @example(headers=[("Via", "x"), ("From", "x"), ("To", "x"), ("Call-ID", "x"),
                      ("CSEQ", "one INVITE"), ("CSeq", "1 INVITE")], name="cseq", body=b"")
    def test_header_handling_matches_a_case_folding_scan(self, headers, name, body):
        assert (_outcome(wire._check_sip_headers, headers)
                == _outcome(_two_pass_check, headers))
        # with every name folded, only the case-insensitive compare can find
        # Content-Length, and it frames the body alike
        folded = [(k.lower(), v) for k, v in headers]
        assert _framing(headers, body) == _framing(folded, body)
        msg = SipMessage(kind="request", headers=list(headers))
        first = next((i for i, (k, _) in enumerate(headers) if k.lower() == name.lower()),
                     None)
        assert msg.header(name) == (None if first is None else headers[first][1])
        msg.set_header(name, "new")
        expected = list(headers)
        if first is None:
            expected.append((name, "new"))
        else:
            expected[first] = (headers[first][0], "new")
        assert msg.headers == expected

    def test_missing_header_reported_before_a_bad_cseq(self):
        raw = (SAMPLE_INVITE.replace(b"CSeq: 1 INVITE", b"CSeq: one INVITE")
               .replace(b"To: <sip:bob@cloud.example>\r\n", b""))
        with pytest.raises(WireError, match="^missing mandatory header To$"):
            sip_parse(raw)

    def test_parse_request(self):
        msg = sip_parse(SAMPLE_INVITE)
        assert msg.kind == "request"
        assert msg.method == "INVITE"
        assert msg.request_uri == "sip:bob@cloud.example"
        assert msg.header("call-id") == "abc123"
        assert msg.cseq_method == "INVITE"

    def test_round_trip_preserves_header_order(self):
        msg = sip_parse(SAMPLE_INVITE)
        assert sip_serialize(msg) == SAMPLE_INVITE

    def test_missing_mandatory_header_rejected_on_serialize(self):
        msg = sip_parse(SAMPLE_INVITE)
        msg.headers = [(k, v) for k, v in msg.headers if k.lower() != "call-id"]
        with pytest.raises(WireError):
            sip_serialize(msg)

    def test_parse_is_lenient_about_unknown_status(self):
        raw = (b"SIP/2.0 183 Session Progress\r\nVia: v\r\nFrom: f\r\nTo: t\r\n"
               b"Call-ID: c\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n")
        assert sip_parse(raw).status == 183

    def test_a_second_content_length_rejected(self):
        # RFC 3261 7.3.1: a header repeats only as a comma-separated list
        raw = SAMPLE_INVITE.replace(b"INVITE", b"BYE").replace(
            b"Content-Length: 0\r\n", b"Content-Length: 0\r\nContent-Length: 5\r\n")
        with pytest.raises(WireError, match="^sip: more than one Content-Length$"):
            sip_parse(raw + b"hello")

    def test_a_second_content_length_not_written(self):
        msg = sip_parse(SAMPLE_INVITE.replace(b"INVITE", b"BYE"))
        msg.headers.append(("Content-Length", "5"))
        with pytest.raises(WireError, match="^more than one Content-Length$"):
            sip_serialize(msg)

    def test_serialize_restricts_status_set(self):
        msg = SipMessage(kind="response", status=183, reason="Session Progress",
                         headers=[("Via", "v"), ("From", "f"), ("To", "t"),
                                  ("Call-ID", "c"), ("CSeq", "1 INVITE")], body=b"")
        with pytest.raises(WireError):
            sip_serialize(msg)

    def test_emitted_statuses_all_serializable(self):
        for code in SIP_STATUSES:
            msg = SipMessage(kind="response", status=code, reason="x",
                             headers=[("Via", "v"), ("From", "f"), ("To", "t"),
                                      ("Call-ID", "c"), ("CSeq", "1 INVITE")], body=b"")
            assert sip_parse(sip_serialize(msg)).status == code

    def test_bad_cseq_rejected(self):
        raw = SAMPLE_INVITE.replace(b"CSeq: 1 INVITE", b"CSeq: one INVITE")
        with pytest.raises(WireError):
            sip_parse(raw)

    def test_repeated_via_headers_kept(self):
        raw = SAMPLE_INVITE.replace(b"Via: SIP/2.0/TCP 10.0.0.2\r\n",
                                    b"Via: SIP/2.0/TCP proxy\r\nVia: SIP/2.0/TCP 10.0.0.2\r\n")
        msg = sip_parse(raw)
        vias = [value for name, value in msg.headers if name == "Via"]
        assert vias == ["SIP/2.0/TCP proxy", "SIP/2.0/TCP 10.0.0.2"]

    def test_mandatory_header_tuple(self):
        assert MANDATORY_SIP_HEADERS == ("Via", "From", "To", "Call-ID", "CSeq")


# ---------------------------------------------------------------------------
# SDP

class TestSdp:
    def make_body(self):
        return SdpBody(session_id="s1", media_port=20000,
                       candidates=[Candidate(kind="host", address="10.0.0.2", port=20000),
                                   Candidate(kind="relay", address="172.16.0.4", port=30000)],
                       crypto_suite=SDES_SUITE,
                       key_salt=bytes(range(SRTP_KEY_LEN + SRTP_SALT_LEN)))

    def test_round_trip(self):
        body = self.make_body()
        back = sdp_decode(sdp_encode(body))
        assert back == body

    def test_candidate_order_preserved(self):
        back = sdp_decode(sdp_encode(self.make_body()))
        assert [c.kind for c in back.candidates] == ["host", "relay"]

    def test_wrong_key_length_rejected(self):
        with pytest.raises(WireError):
            sdp_encode(SdpBody(session_id="s", media_port=1,
                               candidates=[Candidate("host", "10.0.0.2", 1)],
                               crypto_suite=SDES_SUITE, key_salt=b"\x00" * 45))

    def test_missing_crypto_line_rejected(self):
        raw = sdp_encode(self.make_body())
        stripped = b"\r\n".join(ln for ln in raw.split(b"\r\n") if not ln.startswith(b"a=crypto"))
        with pytest.raises(WireError):
            sdp_decode(stripped)

    def test_two_crypto_lines_rejected(self):
        raw = sdp_encode(self.make_body())
        crypto_line = next(ln for ln in raw.split(b"\r\n") if ln.startswith(b"a=crypto"))
        with pytest.raises(WireError):
            sdp_decode(raw + crypto_line + b"\r\n")

    def test_a_suite_other_than_sdes_suite_rejected(self):
        raw = sdp_encode(self.make_body())
        with pytest.raises(WireError, match="unsupported crypto suite 'AES_CM_128_HMAC_SHA1_80'"):
            sdp_decode(raw.replace(SDES_SUITE.encode(), b"AES_CM_128_HMAC_SHA1_80"))
        with pytest.raises(WireError, match="unsupported crypto suite"):
            sdp_encode(SdpBody(**{**vars(self.make_body()), "crypto_suite": "NULL"}))

    @pytest.mark.parametrize("old, new, error", [
        (b"s=-", b"s=\xe9", "SDP is not ASCII"),
        (b"o=- s1 0 IN IP4 0.0.0.0", b"o=-", "malformed o= line"),
        (b"m=audio 20000 RTP/SAVP 0", b"m=audio x RTP/SAVP 0", "malformed m= line"),
        (b"host 10.0.0.2 20000", b"host 10.0.0.2", "malformed candidate line"),
        (b"host 10.0.0.2 20000", b"srflx 10.0.0.2 20000", "unknown candidate type 'srflx'"),
        (b" inline:", b" inline: ", "malformed crypto line"),
        (b" inline:", b" inline:*", "crypto line is not valid base64"),
    ])
    def test_a_malformed_line_rejected(self, old, new, error):
        raw = sdp_encode(self.make_body())
        assert raw.count(old) == 1
        with pytest.raises(WireError, match=f"^{re.escape(error)}"):
            sdp_decode(raw.replace(old, new))

    def test_an_offer_without_a_candidate_rejected(self):
        raw = sdp_encode(self.make_body())
        bare = b"".join(ln + b"\r\n" for ln in raw.split(b"\r\n")
                        if ln and not ln.startswith(b"a=candidate"))
        with pytest.raises(WireError, match="^SDP needs at least one candidate$"):
            sdp_decode(bare)

    @pytest.mark.parametrize("line, name", [(b"m=audio 20000", "m= port"),
                                            (b"a=candidate:1 host 10.0.0.2 20000",
                                             "candidate port")])
    def test_port_past_the_int_digit_limit_rejected(self, line, name):
        raw = sdp_encode(self.make_body())
        assert line in raw
        with pytest.raises(WireError, match=f"^{name} of 5000 digits is past"):
            sdp_decode(raw.replace(line, line[:-5] + b"2" * 5000))


# ---------------------------------------------------------------------------
# Control messages

class TestControl:
    def test_known_command_round_trip(self):
        msg = ControlMessage(interface="SipClient", name="BeginCall",
                             payload={"call_id": "c1"})
        back = control_decode(control_encode(msg))
        assert back.qualified == "SipClient.BeginCall"
        assert back.payload == {"call_id": "c1"}

    @settings(max_examples=200, derandomize=True)
    @given(payload=st.dictionaries(st.text(max_size=4), st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
        | st.sampled_from((float("nan"), float("-inf"))),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=8), max_size=3))
    def test_bodies_are_json_dumps_compact(self, payload):
        # non-ASCII text, NaN and the infinities, nesting, keys in given order
        def compact(obj):
            return json.dumps(obj, separators=(",", ":")).encode()
        msg = ControlMessage(interface="SipClient", name="BeginCall", payload=payload)
        assert control_encode(msg) == compact(
            {"interface": "SipClient", "name": "BeginCall", "payload": payload})
        assert oobe_encode(OobeEnvelope(method="ping", args=payload)).body == compact(
            {"method": "ping", "args": payload})

    def test_unknown_command_decodes_not_rejected(self):
        msg = ControlMessage(interface="SipClient", name="FutureThing", payload={})
        assert control_decode(control_encode(msg)) == msg

    def test_bad_json_rejected(self):
        with pytest.raises(WireError):
            control_decode(b"\xff\xfe")

    @pytest.mark.parametrize("body, problem", [
        (b"\xff\xfe", "is not JSON"), (b"not json", "is not JSON"),
        (b"[" * 5000, "is not JSON"),   # nested past the parser's recursion limit
        (b'{"a":' + b"1" * 5000 + b"}", "is not JSON"),   # past int()'s digit limit
        (b"[1]", "must be a JSON object"), (b"null", "must be a JSON object")],
        ids=["not-utf8", "not-json", "nested-too-deeply", "long-integer", "array", "null"])
    def test_both_envelopes_refuse_what_is_not_one_json_object(self, body, problem):
        with pytest.raises(WireError, match=f"^control message {problem}"):
            control_decode(body)
        req = oobe_encode(OobeEnvelope(method="ping"))
        req.body = body
        with pytest.raises(WireError, match=f"^OOBE body {problem}"):
            oobe_decode(req)


# ---------------------------------------------------------------------------
# The codec against its earlier form
#
# The message codec as it was when each step scanned the header lines again:
# split, then framing, then the SIP checks, each folding names on its own.
# The one-pass codec must give an equal message, the same bytes, or the same
# error, in the same order, for any input.

_REF_TOKEN_RE = re.compile(r"^[!#$%&'*+\-.^_`|~0-9A-Za-z]+$")
_REF_CSEQ_RE = re.compile(r"^\d+ [A-Z]+$")


def _ref_parse_headers(lines, what):
    headers = []
    for line in lines:
        if ":" not in line:
            raise WireError(f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        name = name.strip()
        if not name or not _REF_TOKEN_RE.match(name):
            raise WireError(f"bad header name: {name!r}")
        # RFC 9112 6.3, RFC 3261 7.3.1: one length, or the framing is ambiguous
        if name.casefold() == "content-length" and any(
                seen.casefold() == "content-length" for seen, _ in headers):
            raise WireError(f"{what}: more than one Content-Length")
        headers.append((name, value.strip()))
    return headers


def _ref_split_head(data, what):
    sep = data.find(b"\r\n\r\n")
    if sep < 0:
        raise WireError(f"{what}: no end of headers")
    try:
        head = data[:sep].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError(f"{what}: non-ASCII header block") from exc
    lines = head.split("\r\n")
    if head.count("\r") != len(lines) - 1 or head.count("\n") != len(lines) - 1:
        raise WireError(f"{what}: lone CR or LF in the header block")
    return lines, data[sep + 4:]


def _ref_check_body_length(headers, body, what):
    declared = None
    for name, value in headers:
        if name == "Content-Length" or name.lower() == "content-length":
            if not value.isdigit():
                raise WireError(f"{what}: non-numeric Content-Length {value!r}")
            declared = int(value)
            break
    if declared is None:
        if body:
            raise WireError(f"{what}: missing Content-Length with non-empty body")
        return b""
    if len(body) < declared:
        raise WireError(f"{what}: body truncated ({len(body)} < {declared})")
    if len(body) > declared:
        raise WireError(f"{what}: unparsed trailing bytes after body")
    return body


def _ref_parse_message(data, cls, what, version, label, check_headers=None):
    lines, body = _ref_split_head(data, what)
    start = lines[0]
    headers = _ref_parse_headers(lines[1:], what)
    body = _ref_check_body_length(headers, body, what)
    if check_headers is not None:
        check_headers(headers)
    if start.startswith(version + " "):
        parts = start.split(" ", 2)
        if len(parts) < 3 or not parts[1].isdigit() or len(parts[1]) != 3 \
                or parts[1].startswith("0"):   # a status from 100 to 999
            raise WireError(f"malformed {label}status line: {start!r}")
        return cls(kind="response", status=int(parts[1]), reason=parts[2],
                   headers=headers, body=body)
    parts = start.split(" ")
    if len(parts) != 3 or parts[2] != version or not _REF_TOKEN_RE.match(parts[0]) \
            or not parts[1] or any(c.isspace() for c in parts[1]):   # no whitespace
        raise WireError(f"malformed {label}request line: {start!r}")
    return cls("request", parts[0], parts[1], headers=headers, body=body)


def _ref_serialize_headers(headers):
    out = []
    for name, value in headers:
        if "\r" in name or "\n" in name or "\r" in value or "\n" in value:
            raise WireError(f"CR/LF in header {name!r}")
        if not _REF_TOKEN_RE.match(name):
            raise WireError(f"bad header name: {name!r}")
        out.append(f"{name}: {value}\r\n")
    return "".join(out)


def _ref_serialize_message(msg, version, target, check_headers=None):
    if msg.kind == "request":
        start = f"{msg.method} {target} {version}"
    elif msg.kind == "response":
        start = f"{version} {msg.status} {msg.reason or ''}"
    else:
        raise WireError(f"unknown message kind {msg.kind!r}")
    msg.set_header("Content-Length", str(len(msg.body)))
    if check_headers is not None:
        check_headers(msg.headers)
    head = start + "\r\n" + _ref_serialize_headers(msg.headers) + "\r\n"
    if sum(name.casefold() == "content-length" for name, _ in msg.headers) > 1:
        raise WireError("more than one Content-Length")
    return head.encode("ascii") + msg.body


def _ref_check_sip_headers(headers):
    present = set()
    bad_cseq = None
    for key, value in headers:
        lower = key.lower()
        present.add(lower)
        if lower == "cseq" and bad_cseq is None and not _REF_CSEQ_RE.match(value):
            bad_cseq = value
    for lower, name in wire.DIALOG_HEADERS.items():
        if lower not in present:
            raise WireError(f"missing mandatory header {name}")
    if bad_cseq is not None:
        raise WireError(f"bad CSeq: {bad_cseq!r}")


def _ref_json_object(data, what):
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WireError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError(f"{what} must be a JSON object")
    return obj


def _verdict(f, *args):
    """What f returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:   # any error must match the reference's
        return (type(exc).__name__, str(exc))


_START_LINES = ["INVITE sip:b@x SIP/2.0", "SIP/2.0 200 OK", "SIP/2.0 180 Ringing",
                "POST /OOBE HTTP/1.1", "HTTP/1.1 200 OK", "HTTP/1.1 400 Refused",
                "SIP/2.0 20 OK", "SIP/2.0 200", "HTTP/1.1 2x0 OK", "GET  HTTP/1.1",
                "IN VITE sip:b SIP/2.0", "B@D sip:b SIP/2.0", "x-y / HTTP/1.1", "", "junk",
                "ACK sip:a\x1cb SIP/2.0", "GET \t HTTP/1.1", "SIP/2.0 000 Zero",
                "HTTP/1.1 099 Low", "BYE sip:a\x7fb SIP/2.0"]
_NAMES = ["Content-Type", "X-authtoken", "X-Tag", "cseq", "CSEQ", "call-id", "Via",
          "", "Bad Name", "b@d", "x.y", "-", "a_b", "~!", "\x7f"]
_VALUES = ["1 INVITE", "one INVITE", "1 invite", "0", "3", "x", "", "12abc", " 3 ", "a:b"]
_SEPARATORS = [": "] * 12 + [":", " : ", "\t:\t", "::", ""]
_BODIES = [b"", b"abc", b'{"a":1}', b"\r\n\r\n", b"\xff\x00"]


@st.composite
def _headers(draw, extra_names, values):
    """(name, value) pairs: the five dialog headers, now and then without
    one, and a few others, in any order and with names in any case."""
    missing = draw(st.sampled_from((None,) * 10 + MANDATORY_SIP_HEADERS))
    headers = [(name, draw(st.sampled_from(["1 INVITE"] * 3 + values)) if name == "CSeq"
                else "x") for name in MANDATORY_SIP_HEADERS if name != missing]
    headers += draw(st.lists(st.tuples(st.sampled_from(extra_names),
                                       st.sampled_from(values)), max_size=3))
    return [(name.swapcase() if draw(st.integers(0, 5)) == 0 else name, value)
            for name, value in draw(st.permutations(headers))]


@st.composite
def _header_blocks(draw):
    """Raw message bytes: a start line, header lines of drawn names,
    spellings, separators and values, Content-Length that may or may not
    match the body, and now and then a lone CR or LF or a non-ASCII byte."""
    lines = [draw(st.sampled_from(_START_LINES))]
    lines += [name + draw(st.sampled_from(_SEPARATORS)) + value
              for name, value in draw(_headers(_NAMES, _VALUES))]
    body = draw(st.sampled_from(_BODIES))
    for _ in range(draw(st.integers(0, 2))):   # a Content-Length, right or wrong
        length = draw(st.sampled_from([len(body), len(body), len(body) + 1,
                                       max(len(body) - 1, 0), "x"]))
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["Content-Length", "content-length"]))
                     + f": {length}")
    head = "\r\n".join(lines).encode("latin-1")
    spoil = draw(st.sampled_from([None] * 8 + [b"\r", b"\n", b"\xe9", b"\x80"]))
    if spoil is not None:
        at = draw(st.integers(0, len(head)))
        head = head[:at] + spoil + head[at:]
    return head + b"\r\n\r\n" + body


def _messages():
    return st.builds(
        lambda cls, kind, method, status, reason, headers, body: cls(
            kind=kind, method=method, status=status, reason=reason,
            headers=headers, body=body),
        st.sampled_from([HttpMessage, SipMessage]),
        st.sampled_from(["request", "response", "request", "response", "other"]),
        st.sampled_from(["INVITE", "POST", None]), st.sampled_from([200, 487, None]),
        st.sampled_from(["OK", "", None]),
        _headers(_NAMES + ["Content-Length", "X\r\nInjected", "Ünï", "naïve"],
                 _VALUES + ["a\nb", "a\rb", "é"]),
        st.sampled_from(_BODIES))


_JSON_BODIES = st.one_of(
    st.sampled_from([b'{"method":"ping","args":{}}', b'{"a":[1,2.5,null,true]}', b"{}",
                     b"\xef\xbb\xbf{}", b" {}", b"{} ", b"\n{}\n", b"{}x", b"{} {}",
                     b"[1]", b"1", b'"s"', b"null", b"", b" ", b"{", b'{"a":}',
                     b"\xff", b"[" * 3000 + b"]" * 3000, b'{"\\ud800":1}']),
    st.builds(lambda pre, obj, post: pre + json.dumps(obj).encode() + post,
              st.sampled_from([b"", b" ", b"\t", b"\xef\xbb\xbf"]),
              st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3),
                              max_size=3) | st.lists(st.integers(), max_size=2),
              st.sampled_from([b"", b" ", b"\r\n", b",", b"}"])))


class TestAgainstReferenceCodec:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(data=_header_blocks())
    @example(data=b"INVITE sip:b@x SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCall-ID: c\r\n"
                  b"CSeq: 1 INVITE\r\ncseq: one INVITE\r\nContent-Length: 0\r\n\r\n")
    @example(data=b"INVITE sip:b@x SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCall-ID: c\r\n"
                  b"CSEQ: one INVITE\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n")
    def test_parse_matches(self, data):
        for args, check, ref_check in (
                ((HttpMessage, "http", "HTTP/1.1", ""), None, None),
                ((SipMessage, "sip", "SIP/2.0", "SIP "), wire._check_sip_headers,
                 _ref_check_sip_headers)):
            assert (_verdict(wire._parse_message, data, *args, check)
                    == _verdict(_ref_parse_message, data, *args, ref_check))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(msg=_messages())
    def test_serialize_matches(self, msg):
        # a message the reference wrote as bytes that do not read back as
        # it, or could not write (a UnicodeEncodeError), the serializer
        # refuses with a WireError; all else stays the same
        for version, what, label, check, ref_check in (
                ("HTTP/1.1", "http", "", None, None),
                ("SIP/2.0", "sip", "SIP ", wire._check_sip_headers, _ref_check_sip_headers)):
            mine, ref = [type(msg)(**{k: (list(v) if k == "headers" else v)
                                      for k, v in vars(msg).items()}) for _ in range(2)]
            got = _verdict(wire._serialize_message, mine, version, "sip:b@x", check)
            want = _verdict(_ref_serialize_message, ref, version, "sip:b@x", ref_check)
            if isinstance(want, bytes) and not isinstance(got, bytes):
                assert got[0] == "WireError"
                assert _verdict(_ref_parse_message, want, type(msg), what, version, label,
                                ref_check) != ref
            elif want != got:
                assert (got[0], want[0]) == ("WireError", "UnicodeEncodeError")
            assert mine == ref   # both set Content-Length alike

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(body=_JSON_BODIES)
    def test_json_object_matches(self, body):
        assert (_verdict(wire._json_object, body, "OOBE body")
                == _verdict(_ref_json_object, body, "OOBE body"))


# ---------------------------------------------------------------------------
# The serializer's record of what it wrote
#
# A successful serialize means the bytes parse back to the message, and the
# parse of those very bytes answers from the serializer's record. A plain
# copy, bytes(data), takes the full parse: both must give the message.

_DIALOG = [(name, "1 INVITE" if name == "CSeq" else "x") for name in MANDATORY_SIP_HEADERS]


def _sample(cls, kind, target="sip:b@x", headers=(), **change):
    """A message of kind that cls writes, with _DIALOG and headers, then change."""
    fields = ({"method": "INVITE", "path" if cls is HttpMessage else "request_uri": target}
              if kind == "request" else {"status": 200, "reason": "OK"})
    return cls(kind=kind, headers=_DIALOG + list(headers), body=b"hi", **{**fields, **change})


@pytest.mark.parametrize("kind, change, named", [
    ("response", {"reason": "OK\r\nX-Evil: 1"}, "reason"),
    ("response", {"reason": "OK\n"}, "reason"),
    ("response", {"reason": "Oké"}, "reason"),
    ("request", {"target": "sip:b@x y"}, "request target"),
    ("request", {"target": "sip:b@x\t"}, "request target"),
    ("request", {"target": "sip:é@x"}, "request target"),
    ("response", {"status": 200.0}, "status"),
    ("response", {"status": "200"}, "status"),
    ("request", {"headers": [("X-Tag", " x")]}, "header 'X-Tag'"),
    ("request", {"headers": [("X-Tag", "x\t")]}, "header 'X-Tag'"),
    ("response", {"headers": [("X-Tag", "x\x1f")]}, "header 'X-Tag'"),
    ("response", {"headers": [("X-Tag", "é")]}, "header 'X-Tag'"),
])
@pytest.mark.parametrize("cls, serialize", [(HttpMessage, http_serialize),
                                            (SipMessage, sip_serialize)])
def test_serializers_refuse_what_would_not_read_back(cls, serialize, kind, change, named):
    with pytest.raises(WireError, match=named):
        serialize(_sample(cls, kind, **change))


@pytest.mark.parametrize("change, named", [
    ({"method": "PO ST"}, "method"), ({"method": "GET\n"}, "method"),
    ({"status": 20}, "status"), ({"status": 1000}, "status")])
def test_http_serialize_refuses_a_method_or_status_that_would_not_read_back(change, named):
    # SIP refuses these already: it writes only its own methods and statuses
    kind = "request" if "method" in change else "response"
    with pytest.raises(WireError, match=named):
        http_serialize(_sample(HttpMessage, kind, **change))


_TOKENS = st.text("!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
                  min_size=1, max_size=8)
_VISIBLE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=12)
_ASCII = st.characters(max_codepoint=0x7F, blacklist_characters="\r\n")
_HEADER_VALUES = st.text(_ASCII, max_size=10).map(str.strip)


@st.composite
def _writable(draw):
    """HTTP and SIP messages of every kind; a few the serializer refuses."""
    cls = draw(st.sampled_from([HttpMessage, SipMessage]))
    sip = cls is SipMessage
    headers = [(name, draw(st.sampled_from(["1 INVITE", "27 BYE"])) if name == "CSeq"
                else draw(_HEADER_VALUES)) for name in MANDATORY_SIP_HEADERS]
    headers += draw(st.lists(st.tuples(
        _TOKENS | st.sampled_from(["Content-Length", "content-length"]), _HEADER_VALUES),
        max_size=3))
    if draw(st.integers(0, 9)) == 0:
        headers.append(("X-Tag", draw(st.sampled_from([" x", "é", "x\t"]))))
    headers = draw(st.permutations(headers))
    body = draw(st.binary(max_size=40) | st.just(b"\r\n\r\nx"))
    if draw(st.booleans()):
        return cls("request", draw(st.sampled_from(SIP_METHODS) if sip else _TOKENS),
                   draw(_VISIBLE), headers=headers, body=body)
    return cls(kind="response", headers=headers, body=body,
               status=draw(st.sampled_from(sorted(SIP_STATUSES)) if sip
                           else st.integers(100, 999)),
               reason=draw(st.none() | st.text(_ASCII, max_size=12)))


class TestWriterRecord:
    CODECS = {HttpMessage: (http_serialize, http_parse, sip_parse),
              SipMessage: (sip_serialize, sip_parse, http_parse)}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(msg=_writable())
    def test_parse_of_written_bytes_matches_the_full_parse(self, msg):
        serialize, parse, other_parse = self.CODECS[type(msg)]
        try:
            data = serialize(msg)
        except WireError:
            return
        # what the parse must give: msg with Content-Length set, which
        # serialize did in place, and a missing reason read as ""
        want = type(msg)(**{**vars(msg), "headers": list(msg.headers)})
        if want.kind == "response" and want.reason is None:
            want.reason = ""
        full = mock.patch.object(wire, "_parse_message", wraps=wire._parse_message)
        with full as spy:
            first = parse(data)
            assert spy.call_count == 0   # answered from the record
            assert parse(bytes(data)) == first == want
            assert spy.call_count == 1
        first.headers.append(("X-Tag", "y"))
        first.headers[0] = ("X-Tag", "z")
        assert parse(data) == want
        # the record answers for its own codec only
        assert _verdict(other_parse, data) == _verdict(other_parse, bytes(data))


# ---------------------------------------------------------------------------
# What the parse accepts, the serializer writes back
#
# Parse and write share one request-target rule and one status rule, so a
# start line the parse takes is one the serializer can write; SIP writes
# only the statuses its own agents emit (SIP_STATUSES).

# a target of these parts: some are whitespace to str.split, some are not
_TARGET_PARTS = ["", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x01", "\x7f",
                 "sip:a@b", "/OOBE", "x", "%20"]
START_LINES = st.one_of(
    st.builds("{} {} {}".format,
              st.sampled_from(SIP_METHODS + ("POST", "GET", "x-y")),
              st.lists(st.sampled_from(_TARGET_PARTS), max_size=3).map("".join),
              st.sampled_from([wire.SIP_VERSION, wire.HTTP_VERSION])),
    st.builds("{} {:03d} {}".format,
              st.sampled_from([wire.SIP_VERSION, wire.HTTP_VERSION]),
              st.integers(0, 999) | st.sampled_from(sorted(SIP_STATUSES)),
              st.sampled_from(["OK", "", "Not Found", "a\tb", "x ", "\x1f"])))


def written_back(start: str, body: bytes) -> None:
    """start, the dialog headers and body as bytes: when sip_parse accepts
    them as a request, or a response of a status its agents emit,
    sip_serialize writes it, and the
    bytes parse to an equal message; when http_parse accepts them, so does
    http_serialize."""
    head = "".join(f"{name}: {value}\r\n" for name, value in
                   _DIALOG + [("Content-Length", str(len(body)))])
    data = f"{start}\r\n{head}\r\n".encode("ascii") + body
    for parse, serialize, emitted in (
            (sip_parse, sip_serialize,
             lambda msg: msg.kind == "request" or msg.status in SIP_STATUSES),
            (http_parse, http_serialize, lambda msg: True)):
        try:
            msg = parse(data)
        except WireError:
            continue
        if emitted(msg):
            written = serialize(msg)
            assert parse(bytes(written)) == msg


class TestWrittenBack:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(start=START_LINES, body=st.sampled_from([b"", b"hi"]))
    @example(start="BYE  SIP/2.0", body=b"")
    @example(start="ACK sip:a\x1cb SIP/2.0", body=b"")
    @example(start="HTTP/1.1 099 Low", body=b"hi")
    def test_what_the_parse_accepts_is_written_back(self, start, body):
        written_back(start, body)

    @pytest.mark.parametrize("start", ["BYE  SIP/2.0", "ACK sip:a\x1cb SIP/2.0",
                                       "GET \t HTTP/1.1", "SIP/2.0 000 Zero",
                                       "HTTP/1.1 099 Low"])
    def test_a_start_line_the_serializer_refuses_is_not_parsed(self, start):
        data = (f"{start}\r\n" + "".join(f"{n}: {v}\r\n" for n, v in _DIALOG)
                + "\r\n").encode("ascii")
        with pytest.raises(WireError, match="malformed .*(request|status) line"):
            (sip_parse if "SIP" in start else http_parse)(data)
