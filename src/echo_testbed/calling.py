"""SIP user agent and media plane for emulated comms endpoints.

A CommsEndpoint lives on a device host. It is provisioned over the
device's existing cloud control channel (ConfigureCommsRequest ->
ConfigureCommsResponse), registers with the SIP service, and then places
or answers calls when told to.

Call flow, caller side:

    BeginCall directive
      -> OutboundCallRequested (control)
      -> INVITE with X-authtoken and an SDP offer        (sip channel)
      <- 100 / 180 / 200                                  (sip channel)
      -> ACK, OutboundCallAccepted
      -> media: dial the callee's host candidate; if that dial is refused
         (NAT, isolation), fall back to the relay candidate the proxy
         appended to the answer

Callee side: pushed INVITEs arrive on the same channel the endpoint
registered through. Intercom invites (X-intercom) answer immediately;
regular invites ring for answer_delay_ms first. A callee that shares a
LAN with the caller never dials out for media at all: it answers on the
channel the caller opened, so those frames stay on the LAN.

Media frames carry a recognizable canary string so tests can prove the
plaintext never appears anywhere in a trace.

This module also owns the send and receive path of every signalling
message: send_sip and send_control, and for the pairing and device-API
envelope that device, cloud and client share, send_request and read_reply
on the calling side and serve_request/send_reply on the answering side.
send_sip, send_control and send_reply drop a message for a channel that
has closed: an answer may still be on its way when its peer hangs up.
A receiving endpoint keeps only handler tables: serve_control, serve_sip and
serve_request decode each message and refuse a malformed one before any
handler runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .netsim import Endpoint, NetError, Network

MEDIA_CADENCE_MS = 20
DEFAULT_FRAME_COUNT = 6
FRAME_LEN = 160
DEFAULT_ANSWER_DELAY_MS = 400
BYE_GRACE_MS = 60


def device_uri(serial: str) -> str:
    return f"sip:dev-{serial}@{wire.DOMAIN}"


def account_uri(account_id: str) -> str:
    return f"sip:user-{account_id}@{wire.DOMAIN}"


def make_sip_request(method: str, uri: str, *, from_uri: str, to_uri: str,
                     call_id: str, cseq: int, via: str,
                     headers: list[tuple[str, str]] | None = None,
                     body: bytes = b"") -> wire.SipMessage:
    hdrs = [("Via", f"SIP/2.0/TCP {via}"), ("From", f"<{from_uri}>"),
            ("To", f"<{to_uri}>"), ("Call-ID", call_id), ("CSeq", f"{cseq} {method}")]
    hdrs.extend(headers or [])
    return wire.SipMessage(kind="request", method=method, request_uri=uri,
                           headers=hdrs, body=body)


def make_sip_response(req: wire.SipMessage, status: int, *,
                      headers: list[tuple[str, str]] | None = None,
                      body: bytes = b"") -> wire.SipMessage:
    hdrs = [(k, v) for k, v in req.headers if k.lower() in wire.DIALOG_HEADERS]
    hdrs.extend(headers or [])
    return wire.SipMessage(kind="response", status=status,
                           reason=wire.SIP_STATUSES[status], headers=hdrs, body=body)


def sip_summary(msg: wire.SipMessage) -> str:
    if msg.kind == "request":
        return msg.method
    return f"{msg.status}-{msg.cseq_method}"


# One send path per message kind. SIP and control ride secured channels,
# so their trace events carry a summary and no payload.

def send_sip(chan: Endpoint, msg: wire.SipMessage, summary: str | None = None) -> None:
    """Put one SIP message on chan, unless it has closed; traced by its summary."""
    if not chan.closed:
        chan.send(wire.sip_serialize(msg), layer="sip", summary=summary or sip_summary(msg))


def send_control(chan: Endpoint, interface: str, name: str, payload) -> None:
    """Put one control message on chan, unless it has closed; traced by its name."""
    if not chan.closed:
        msg = wire.ControlMessage(interface=interface, name=name, payload=payload)
        chan.send(wire.control_encode(msg), layer="control", summary=msg.qualified)


def _envelope_layer(chan: Endpoint) -> str:
    # the pairing API port speaks POST /OOBE; every other envelope channel
    # is the cloud device API, POST /api, direct or through the 443 tunnel
    return "oobe" if chan.channel.port == wire.OOBE_PORT else "http"


def send_request(chan: Endpoint, method: str, args: dict) -> None:
    """Put one pairing or device-API call on chan, traced by its method."""
    layer = _envelope_layer(chan)
    encode = wire.oobe_encode if layer == "oobe" else wire.api_encode
    chan.send(wire.http_serialize(encode(wire.OobeEnvelope(method, args))),
              layer=layer, summary=method)


def send_reply(chan: Endpoint, method: str, args: dict, status: int = 200) -> None:
    """Answer one pairing or device-API call on chan, unless the caller has
    hung up; traced as method-ok, or method-error for a refusal."""
    if chan.closed:
        return
    ok = status == 200 and "error" not in args
    resp = wire.oobe_response(wire.OobeEnvelope(method=method, args=args),
                              status=status, reason="OK" if ok else "Refused")
    chan.send(wire.http_serialize(resp), layer=_envelope_layer(chan),
              summary=f"{method}-{'ok' if ok else 'error'}")


def _holds_strings(obj, fields: tuple[str, ...]) -> bool:
    """True if fields is empty, or obj is an object with a string under each."""
    return not fields or isinstance(obj, dict) and all(
        isinstance(obj.get(name), str) for name in fields)


# Each entry of a control or envelope table is (fields, handler): fields
# names the string values the handler reads, checked before it runs. The
# tables are class attributes that every instance shares, so a fleet of
# devices holds no table of its own, and each handler is called with the
# instance that owns the channel first.

def serve_request(chan: Endpoint, data: bytes, handlers: dict, owner) -> None:
    """Answer one pairing or device-API call on chan with
    handlers[method](owner, chan, args), which returns the (args, status) to
    reply with under the call's method, or None if it answers later itself."""
    decode = wire.oobe_decode if _envelope_layer(chan) == "oobe" else wire.api_decode
    try:
        env = decode(wire.http_parse(data))
    except wire.WireError as exc:
        send_reply(chan, "error", {"error": str(exc)}, status=400)
        return
    entry = handlers.get(env.method)
    if entry is None:
        send_reply(chan, env.method, {"error": "unknown method"}, status=400)
        return
    fields, handler = entry
    if not _holds_strings(env.args, fields):
        send_reply(chan, env.method, {"error": "bad args"}, status=400)
        return
    reply = handler(owner, chan, env.args)
    if reply is not None:
        send_reply(chan, env.method, *reply)


def serve_control(chan: Endpoint, data: bytes, handlers: dict, owner) -> None:
    """Run one control message on chan with handlers[qualified name](owner,
    chan, payload). A name with no entry is absorbed: the command plane is
    larger than the testbed models."""
    try:
        msg = wire.control_decode(data)
        fields, handler = handlers.get(msg.qualified, ((), None))
    except wire.WireError:
        fields, handler = None, None   # not a control message at all
    if fields is None or not _holds_strings(msg.payload, fields):
        chan.channel.network.note(chan.host, "sys", "avs:unparseable")
    elif handler is not None:
        handler(owner, chan, msg.payload)


def serve_sip(chan: Endpoint, data: bytes, requests: dict, on_response, owner) -> None:
    """Run one SIP message on chan with requests[method](owner, chan, msg) or
    on_response(owner, chan, msg); an unknown method gets a 501, and each
    handler answers a request for no live dialog with a 481 (RFC 3261)."""
    try:
        msg = wire.sip_parse(data)
    except wire.WireError:
        chan.channel.network.note(chan.host, "sys", "sip:unparseable")
        return
    if msg.kind == "response":
        on_response(owner, chan, msg)
    elif msg.method in requests:
        requests[msg.method](owner, chan, msg)
    else:
        send_sip(chan, make_sip_response(msg, 501))


def read_reply(data: bytes) -> wire.OobeEnvelope | None:
    """Decode one pairing or device-API reply; None if it is malformed."""
    try:
        return wire.oobe_decode_response(wire.http_parse(data))
    except wire.WireError:
        return None


def read_sdp(body: bytes) -> wire.SdpBody | None:
    """Decode one SDP offer or answer; None if it is malformed."""
    try:
        return wire.sdp_decode(body)
    except wire.WireError:
        return None


def canary_payload(tag: str, seq: int) -> bytes:
    text = f"CANARY:{tag}:{seq}:"
    return (text.encode() + b"\x00" * FRAME_LEN)[:FRAME_LEN]


# ---------------------------------------------------------------------------
# Media plane

class MediaSession:
    """One call's protected audio in both directions."""

    def __init__(self, network: Network, tag: str, tx_key_salt: bytes,
                 rx_key_salt: bytes, frame_count: int, on_done=None):
        self.network = network
        self.tag = tag
        self.tx = crypto.SrtpSender(tx_key_salt)
        self.rx = crypto.SrtpReceiver(rx_key_salt)
        self.frame_count = frame_count
        self.on_done = on_done
        self.chan: Endpoint | None = None
        self.sent = 0
        self.received = 0   # frames that passed their tag check
        self.rejected = 0
        self.done = False

    def attach(self, chan: Endpoint) -> None:
        if self.chan is not None:
            return
        self.chan = chan
        chan.handler = lambda _end, data: self.handle(data)
        self._pump()

    def handle(self, data: bytes) -> None:
        try:
            crypto.srtp_unprotect(self.rx, data)
            self.received += 1
        except crypto.CryptoError:
            self.rejected += 1

    def _pump(self) -> None:
        if self.chan is None or self.chan.closed or self.sent >= self.frame_count:
            if self.sent >= self.frame_count and not self.done:
                self.done = True
                if self.on_done is not None:
                    self.on_done()
            return
        frame = canary_payload(self.tag, self.sent)
        packet = crypto.srtp_protect(self.tx, frame)
        self.chan.send(packet, layer="media", summary=f"media-frame:{self.tag}:{self.sent}")
        self.sent += 1
        self.network.scheduler.at(MEDIA_CADENCE_MS, self._pump)

    def stop(self) -> None:
        if self.chan is not None and not self.chan.closed:
            self.chan.close()
        self.chan = None


# ---------------------------------------------------------------------------
# Call state

@dataclass
class Call:
    call_id: str
    role: str                    # "caller" | "callee"
    peer_uri: str
    state: str   # inviting (a caller) or ringing (a callee); then established|closing|closed
    invite: wire.SipMessage | None = None   # a callee's: the INVITE it answers
    local_sdp: wire.SdpBody | None = None
    remote_sdp: wire.SdpBody | None = None
    media: MediaSession | None = None
    media_port: int | None = None
    gateway_leg: bool = False
    cseq: int = 1


class CommsEndpoint:
    """Drop-in capable SIP agent bound to one device host."""

    def __init__(self, network: Network, host, serial: str, rng, *,
                 intercom: bool = True,
                 answer_delay_ms: int = DEFAULT_ANSWER_DELAY_MS,
                 frame_count: int = DEFAULT_FRAME_COUNT,
                 auto_bye: bool = True):
        self.network = network
        self.host = host
        self.serial = serial
        self.rng = rng
        self.intercom = intercom
        self.answer_delay_ms = answer_delay_ms
        self.frame_count = frame_count
        self.auto_bye = auto_bye
        self.uri = device_uri(serial)
        self.auth_token_b64: str | None = None
        self.control: Endpoint | None = None   # the device's cloud channel
        self.sip: Endpoint | None = None
        self._replaced: list[Endpoint] = []   # SIP channels self.sip took over from
        self.registered = False
        self.calls: dict[str, Call] = {}
        self.last_invite: wire.SipMessage | None = None
        self._call_seq = 0
        self._media_port_next = 20000

    # -- provisioning ------------------------------------------------------

    def provision(self, control: Endpoint, auth_token_b64: str) -> None:
        """Ask the cloud for comms config over the established channel."""
        self.control = control
        self.auth_token_b64 = auth_token_b64
        self._send_control("ConfigureCommsRequest", {"serial": self.serial})

    def _send_control(self, name: str, payload: dict) -> None:
        if self.control is not None:
            send_control(self.control, "SipClient", name, payload)

    def _on_comms_config(self, registrar_addr: str) -> None:
        try:   # the cloud named this address; a bad one ends only this config
            chan = self.network.open_channel(self.host, registrar_addr, wire.TLS_PORT,
                                             secured=True)
        except NetError:
            self.network.note(self.host, "sys", "sip:registrar-unreachable")
            return
        if self.sip is not None:   # kept open until the registrar takes chan
            self._replaced.append(self.sip)
        self.sip = chan
        chan.handler = lambda end, data: serve_sip(
            end, data, self._SIP_REQUESTS, CommsEndpoint._on_sip_response, self)
        reg = make_sip_request(
            "REGISTER", f"sip:{wire.DOMAIN}", from_uri=self.uri, to_uri=self.uri,
            call_id=f"reg-{self.serial}", cseq=1, via=self._via(),
            headers=[("Contact", f"<sip:dev-{self.serial}@{self._via()}>"),
                     ("X-authtoken", self.auth_token_b64 or ""),
                     ("X-intercom", "yes" if self.intercom else "no")])
        self._send_sip(reg)

    def _via(self) -> str:
        return self.host.interfaces.get(self.network.uplink(self.host), "0.0.0.0")

    def _send_sip(self, msg: wire.SipMessage) -> None:
        if self.sip is not None:
            send_sip(self.sip, msg)

    # -- outbound calls ----------------------------------------------------

    def begin_call(self, callee: str, call_type: str, token_b64: str) -> str:
        if not self.registered:
            self.network.note(self.host, "sys", "call-refused:not-registered")
            return ""
        if any(c.state not in ("closed",) for c in self.calls.values()):
            self.network.note(self.host, "sys", "call-refused:busy")
            return ""
        call = self._new_call(callee)
        call.local_sdp = self._build_sdp(call)
        invite = make_sip_request(
            "INVITE", callee, from_uri=self.uri, to_uri=callee, call_id=call.call_id,
            cseq=call.cseq, via=self._via(),
            headers=[("X-authtoken", token_b64),
                     ("X-calltype", call_type),
                     ("Content-Type", "application/sdp")],
            body=wire.sdp_encode(call.local_sdp))
        self.last_invite = invite
        self._send_sip(invite)
        self._send_control("OutboundCallRequested",
                           {"callee": callee, "call_id": call.call_id})
        return call.call_id

    def replay_last_invite(self) -> None:
        """Resend the previous INVITE bytes (fresh Call-ID, same token).

        This models an attacker replaying a captured call grant; the
        proxy must refuse it because the token's nonce is already spent.
        """
        if self.last_invite is None:
            return
        call = self._new_call(self.last_invite.request_uri)
        replay = wire.SipMessage(kind="request", method="INVITE",
                                 request_uri=self.last_invite.request_uri,
                                 headers=list(self.last_invite.headers),
                                 body=self.last_invite.body)
        replay.set_header("Call-ID", call.call_id)
        call.local_sdp = wire.sdp_decode(self.last_invite.body)
        self._send_sip(replay)

    def _new_call(self, peer_uri: str) -> Call:
        """Number, open and register the next call this endpoint places."""
        self._call_seq += 1
        call_id = f"call-{self.serial}-{self._call_seq}"
        call = self.calls[call_id] = Call(call_id=call_id, role="caller", peer_uri=peer_uri,
                                          state="inviting")
        return call

    def end_call(self) -> None:
        for call in self.calls.values():
            if call.state == "established":
                self._send_bye(call)
                return

    def _send_bye(self, call: Call) -> None:
        call.cseq += 1
        call.state = "closing"
        bye = make_sip_request("BYE", call.peer_uri, from_uri=self.uri,
                               to_uri=call.peer_uri, call_id=call.call_id,
                               cseq=call.cseq, via=self._via())
        self._send_sip(bye)

    # -- SDP / media -------------------------------------------------------

    def _build_sdp(self, call: Call) -> wire.SdpBody:
        port = self._media_port_next
        self._media_port_next += 2
        call.media_port = port
        self.host.listen(port, lambda end: self._accept_media(call, end))
        key_salt = self.rng.randbytes(wire.SRTP_KEY_LEN + wire.SRTP_SALT_LEN)
        sdp = wire.SdpBody(session_id=call.call_id, media_port=port,
                           candidates=[wire.Candidate("host", self._via(), port)],
                           crypto_suite=wire.SDES_SUITE, key_salt=key_salt)
        self.network.note(self.host, "sdp",
                          f"{'offer' if call.role == 'caller' else 'answer'}:{call.call_id}",
                          payload={"port": port})
        return sdp

    def _accept_media(self, call: Call, end: Endpoint) -> None:
        if call.media is not None:
            call.media.attach(end)

    def _establish_media(self, call: Call) -> None:
        # each side encrypts with the key it generated: caller with the
        # offer key, callee with the answer key
        tx, rx = call.local_sdp.key_salt, call.remote_sdp.key_salt
        call.media = MediaSession(
            self.network, tag=f"{self.serial}:{call.call_id}",
            tx_key_salt=tx, rx_key_salt=rx, frame_count=self.frame_count,
            on_done=(lambda: self._media_done(call)) if call.role == "caller" else None)
        chan = self._dial_media(call)
        if chan is not None:
            call.media.attach(chan)

    def _dial_media(self, call: Call) -> Endpoint | None:
        peer_host = next((c for c in call.remote_sdp.candidates if c.kind == "host"), None)
        peer_relay = next((c for c in call.remote_sdp.candidates if c.kind == "relay"), None)
        peer_lan = self.network.lan_of(peer_host.address) if peer_host else None
        if call.role == "callee" and peer_lan is not None \
                and peer_lan.name in self.host.interfaces:
            # the caller dials us on this LAN; answer on that same channel
            self.network.note(self.host, "sys", "path:direct",
                              payload={"call_id": call.call_id})
            return None
        dials = []   # candidates the peer named, tried in this order
        if call.role == "caller" and peer_host is not None:
            dials.append((peer_host, "gateway" if call.gateway_leg else "direct"))
        if peer_relay is not None:
            dials.append((peer_relay, "relay"))
        for cand, path in dials:
            try:
                chan = self.network.open_channel(self.host, cand.address, cand.port)
            except NetError:
                continue
            self.network.note(self.host, "sys", f"path:{path}",
                              payload={"call_id": call.call_id})
            return chan
        self.network.note(self.host, "sys", "path:none", payload={"call_id": call.call_id})
        return None

    def _media_done(self, call: Call) -> None:
        if call.state == "established" and self.auto_bye:
            self.network.scheduler.at(BYE_GRACE_MS, self._auto_bye, call)

    def _auto_bye(self, call: Call) -> None:
        if call.state == "established":
            self._send_bye(call)

    def _teardown_call(self, call: Call) -> None:
        if call.media is not None:
            call.media.stop()
        if call.media_port is not None:
            self.host.unlisten(call.media_port)
        call.state = "closed"
        self._send_control("CallDisconnected", {"call_id": call.call_id})

    # -- inbound SIP -------------------------------------------------------

    def _on_bye(self, _chan: Endpoint, msg: wire.SipMessage) -> None:
        call = self.calls.get(msg.header("Call-ID") or "")
        live = call is not None and call.state != "closed"
        self._send_sip(make_sip_response(msg, 200 if live else 481))   # RFC 3261 15.1.2
        if live:
            self._teardown_call(call)

    def _on_invite(self, _chan: Endpoint, msg: wire.SipMessage) -> None:
        if any(c.state in ("ringing", "established", "inviting") for c in self.calls.values()):
            self._send_sip(make_sip_response(msg, 486))
            return
        call_id = msg.header("Call-ID") or ""
        if call_id in self.calls:   # a late copy of an INVITE this endpoint has had
            self._send_sip(make_sip_response(msg, 481))
            return
        offer = read_sdp(msg.body)
        if offer is None:
            self._send_sip(make_sip_response(msg, 404))
            return
        caller = (msg.header("From") or "").strip("<>")
        call = Call(call_id=call_id, role="callee", peer_uri=caller, state="ringing",
                    invite=msg, remote_sdp=offer)
        self.calls[call_id] = call
        if msg.header("X-intercom") == "yes" and self.intercom:
            self.network.note(self.host, "sys", "auto-answer",
                              payload={"call_id": call_id})
            self._answer(call)
        else:
            self._send_sip(make_sip_response(msg, 180))
            self.network.scheduler.at(self.answer_delay_ms, self._answer_if_ringing, call)

    def _answer_if_ringing(self, call: Call) -> None:
        if call.state == "ringing":
            self._answer(call)

    def _answer(self, call: Call) -> None:
        call.local_sdp = self._build_sdp(call)
        call.state = "established"
        self._send_sip(make_sip_response(
            call.invite, 200,
            headers=[("Content-Type", "application/sdp")],
            body=wire.sdp_encode(call.local_sdp)))
        self._establish_media(call)

    def _on_cancel(self, _chan: Endpoint, msg: wire.SipMessage) -> None:
        # only an INVITE this endpoint was sent can be cancelled (RFC 3261 9.2)
        call = self.calls.get(msg.header("Call-ID") or "")
        invited = call is not None and call.role == "callee"
        self._send_sip(make_sip_response(msg, 200 if invited else 481))
        if invited and call.state == "ringing":
            self._send_sip(make_sip_response(call.invite, 487))
            call.state = "closed"

    def _on_sip_response(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        call_id = msg.header("Call-ID") or ""
        call = self.calls.get(call_id)
        if call is None:
            if call_id == f"reg-{self.serial}" and msg.status == 200:
                if chan is self.sip:   # the registrar has moved off the old ones
                    for old in self._replaced:
                        old.close()
                    self._replaced.clear()
                self.registered = True
                self.network.note(self.host, "sys", "sip:registered",
                                  payload={"uri": self.uri})
                self._send_control("WarmUp", {})
            return
        method = msg.cseq_method
        # only a caller still inviting takes a final answer; a 1xx changes nothing
        if method == "INVITE" and call.state == "inviting":
            if msg.status == 200:
                call.remote_sdp = read_sdp(msg.body)
                if call.remote_sdp is None:
                    # an answer we cannot read ends the call like a refusal
                    self.network.note(self.host, "sys", "sip:unparseable")
                    self._teardown_call(call)
                    return
                call.gateway_leg = msg.header("X-leg") == "gateway"
                call.state = "established"
                ack = make_sip_request("ACK", call.peer_uri, from_uri=self.uri,
                                       to_uri=call.peer_uri, call_id=call_id,
                                       cseq=call.cseq, via=self._via())
                self._send_sip(ack)
                self._send_control("OutboundCallAccepted", {"call_id": call_id})
                self._establish_media(call)
            elif msg.status >= 300:
                self.network.note(self.host, "sys",
                                  f"call-failed:{msg.status}",
                                  payload={"call_id": call_id})
                self._teardown_call(call)
        elif method == "BYE" and msg.status in (200, 481) and call.state == "closing":
            # a 481 says the peer has already ended the dialog (RFC 3261 15.1.1)
            self._teardown_call(call)

    # the SipClient commands the device's cloud channel carries for us
    CONTROLS = {
        "SipClient.ConfigureCommsResponse": (
            ("registrar",), lambda self, _chan, p: self._on_comms_config(p["registrar"])),
        "SipClient.BeginCall": (
            ("callee", "call_type", "token"),
            lambda self, _chan, p: self.begin_call(p["callee"], p["call_type"], p["token"])),
        "SipClient.EndCall": ((), lambda self, _chan, _p: self.end_call()),
    }
    _SIP_REQUESTS = {"INVITE": _on_invite, "CANCEL": _on_cancel, "BYE": _on_bye,
                     "ACK": lambda _self, _chan, _msg: None}   # media began with our 200
