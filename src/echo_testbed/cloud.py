"""Server side of the testbed: device API, voice-service front end, SIP
registrar/proxy, media relay, and the PSTN/app gateway.

One CloudServices object owns five hosts on the cloud LAN:

    api       device registration: link codes, registration grants
    avs       authenticated device connections and directives
    sip       registrar and forking proxy; records SDES keys by design
    relay     per-call media splice for endpoints that cannot reach
              each other directly; forwards ciphertext verbatim, holds
              what arrives before the second end joins, and drops a
              frame that lands after the call closes
    gateway   terminates calls to phone numbers and third-party apps;
              answers automatically and absorbs media

State a real operator would hold lives here too: the account database,
the factory record of every device's certificate and secret, issued
grants, spent call-token nonces, and the per-call master keys the
registrar saw in SDP. That last item is deliberate: the service can
decrypt any call it relays, and tests assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import crypto, wire
from .calling import (
    account_uri,
    device_uri,
    make_sip_request,
    make_sip_response,
    read_sdp,
    send_control,
    send_sip,
    serve_control,
    serve_request,
    serve_sip,
)
from .netsim import Endpoint, NetError, Network

LINK_CODE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
LINK_CODE_LEN = 5
LINK_CODE_TTL_MS = 600_000

AVS_FRESHNESS_MS = 30_000
CALL_TOKEN_TTL_MS = 300_000
GATEWAY_ANSWER_MS = 120

CLOUD_LAN = "cloud"
CLOUD_PREFIX = "10.0.0"

API_HOST = "api"
AVS_HOST = "avs"
SIP_HOST = "sip"
RELAY_HOST = "relay"
GATEWAY_HOST = "gateway"
CLOUD_HOSTS = (API_HOST, AVS_HOST, SIP_HOST, RELAY_HOST, GATEWAY_HOST)


@dataclass
class DeviceRecord:
    account: str
    identity_pub: crypto.PublicKey
    registered: bool = True


@dataclass
class LinkCode:
    serial: str
    created_ms: int
    account: str | None = None
    grant: dict | None = None


@dataclass
class Binding:
    uri: str
    serial: str
    account: str
    intercom: bool
    chan: Endpoint


@dataclass
class ProxyCall:
    call_id: str
    caller: Binding
    from_uri: str
    to_uri: str
    invite: wire.SipMessage
    legs: list[Binding] = field(default_factory=list)      # in fork order
    pending: list[Binding] = field(default_factory=list)   # legs with no final answer
    winner: Binding | None = None   # a gateway call never has one
    gateway: bool = False
    # the relay's port for this call, or the gateway's for a gateway call;
    # _call_close stops its listener and closes the relay's ends
    media_port: int | None = None
    media_ends: list[Endpoint] = field(default_factory=list)
    media_buffer: list[bytes] = field(default_factory=list)  # before the 2nd end joins
    closed: bool = False   # once closed, a call passes on only its BYEs' answers


class CloudServices:
    def __init__(self, network: Network, rng):
        self.network = network
        self.rng = rng
        self.keypair = crypto.keygen(rng)

        self.accounts: dict[str, str] = {}           # account id -> password
        self.factory: dict[str, dict] = {}           # serial -> cert, secret
        self.registry: dict[str, DeviceRecord] = {}
        self.link_codes: dict[str, LinkCode] = {}
        self.avs_sessions: dict[str, Endpoint] = {}  # serial -> channel
        self._avs_last_ts: dict[str, int] = {}
        self._avs_session_seq = 0

        self.bindings: dict[str, list[Binding]] = {}  # uri -> bindings
        self._chan_bindings: dict[Endpoint, Binding] = {}  # SIP channel -> binding
        self.calls: dict[str, ProxyCall] = {}
        self.recorded_keys: dict[str, dict[str, bytes]] = {}
        self.nonce_cache: set = set()

        self._relay_port_next = 30000
        self._gateway_port_next = 40000

        self.hosts = {}
        for name in CLOUD_HOSTS:
            host = network.add_host(name)
            network.attach(host, CLOUD_LAN)
            self.hosts[name] = host
            network.register_name(f"{name}.{wire.DOMAIN}", host.addr(CLOUD_LAN))

        self.hosts[API_HOST].listen(wire.TLS_PORT, self._accept_api)
        self.hosts[AVS_HOST].listen(wire.TLS_PORT, self._accept_avs)
        self.hosts[SIP_HOST].listen(wire.TLS_PORT, self._accept_sip)

    # -- scenario-facing administration -------------------------------------

    def provision_account(self, account_id: str, password: str) -> None:
        self.accounts[account_id] = password

    def provision_factory(self, serial: str, cert: crypto.DeviceCertificate,
                          secret: str) -> None:
        """Record what manufacturing knows: certificate and device secret."""
        if not crypto.verify_certificate(cert) or cert.subject != serial:
            raise ValueError("factory record needs a valid self-signed certificate")
        self.factory[serial] = {"cert": cert, "secret": secret}

    def provision_grant(self, serial: str, account_id: str) -> dict:
        """Bind a device to an account directly, skipping the pairing flow.

        Scenario setup helper for runs that start after first-time setup.
        """
        if account_id not in self.accounts:
            raise ValueError(f"unknown account {account_id}")
        return self._mint_grant(serial, account_id)

    def deregister_device(self, serial: str) -> None:
        """What the owner's account page does when a device is removed."""
        record = self.registry.get(serial)
        if record is not None:
            record.registered = False
            record.account = ""
        self._unbind(serial)
        self.avs_sessions.pop(serial, None)
        self.network.note(AVS_HOST, "sys", f"deregistered:{serial}")

    def _mint_grant(self, serial: str, account_id: str) -> dict:
        identity = crypto.keygen(self.rng)
        friendly = f"Echo-{serial[-4:]}"
        token = crypto.mint_auth_token(self.keypair, account_id, serial,
                                       now=self.network.scheduler.now, rng=self.rng)
        self.registry[serial] = DeviceRecord(account=account_id, identity_pub=identity.public)
        self.network.note(API_HOST, "sys", f"grant:issued:{serial}",
                          payload={"account": account_id, "friendly_name": friendly})
        return {"keypair": identity.to_dict(), "auth_token": token,
                "friendly_name": friendly, "account": account_id}

    # -- device API ----------------------------------------------------------

    def _accept_api(self, chan: Endpoint) -> None:
        chan.handler = lambda end, data: serve_request(end, data, self._API_CALLS, self)

    def _api_create_link_code(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        serial = args["serial"]
        record = self.factory.get(serial)
        if record is None or record["secret"] != args["secret"]:
            return {"error": "bad device identity"}, 403
        code = None
        while code is None or code in self.link_codes:
            code = "".join(LINK_CODE_ALPHABET[b % len(LINK_CODE_ALPHABET)]
                           for b in self.rng.randbytes(LINK_CODE_LEN))
        self.link_codes[code] = LinkCode(serial=serial, created_ms=self.network.scheduler.now)
        self.network.note(API_HOST, "sys", f"link-code:created:{serial}")
        return {"code": code}, 200

    def _api_check_link_code(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        entry = self.link_codes.get(args["code"])
        record = self.factory.get(entry.serial) if entry else None
        if entry is None or record is None or record["secret"] != args["secret"]:
            return {"error": "unknown code"}, 403
        if self.network.scheduler.now - entry.created_ms > LINK_CODE_TTL_MS:
            return {"status": "expired"}, 200
        if entry.account is None:
            return {"status": "pending"}, 200
        if entry.grant is None:
            entry.grant = self._mint_grant(entry.serial, entry.account)
        return {"status": "registered", "grant": entry.grant}, 200

    def _api_register_device(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        account = args["account"]
        if self.accounts.get(account) != args["password"]:
            self.network.note(API_HOST, "sys", "register-device-refused:bad-credentials")
            return {"error": "bad credentials"}, 403
        entry = self.link_codes.get(args["link_code"])
        if entry is None:
            self.network.note(API_HOST, "sys", "register-device-refused:unknown-code")
            return {"error": "unknown link code"}, 403
        if self.network.scheduler.now - entry.created_ms > LINK_CODE_TTL_MS:
            self.network.note(API_HOST, "sys", "register-device-refused:expired-code")
            return {"error": "expired link code"}, 403
        if entry.account is not None:
            self.network.note(API_HOST, "sys", "register-device-refused:code-consumed")
            return {"error": "code already used"}, 403
        existing = self.registry.get(entry.serial)
        if existing is not None and existing.registered and existing.account != account:
            # the anti-hijack rule: a device still bound to an account can
            # only be re-registered by that account
            self.network.note(API_HOST, "sys",
                              "register-device-refused:already-registered",
                              payload={"serial": entry.serial, "account": account})
            return {"error": "device already registered"}, 403
        entry.account = account
        self.network.note(API_HOST, "sys", f"register-device:{account}",
                          payload={"serial": entry.serial})
        return {"ok": True}, 200

    # -- voice-service connections -------------------------------------------

    def _accept_avs(self, chan: Endpoint) -> None:
        chan.handler = lambda end, data: serve_control(end, data, self._AVS_CONTROLS, self)
        chan.on_close = self._on_avs_close

    def _on_avs_close(self, chan: Endpoint) -> None:
        for serial, end in list(self.avs_sessions.items()):
            if end is chan:
                del self.avs_sessions[serial]

    def _avs_negotiate(self, chan: Endpoint, hello) -> None:
        # a null hello is judged as {}, and a missing serial or signature as
        # "" that the checks below refuse; a non-string one is no hello at all
        p = {} if hello is None else hello
        if not isinstance(p, dict) or not all(
                isinstance(p.get(k, ""), str) for k in ("serial", "signature")):
            self.network.note(AVS_HOST, "sys", "avs:unparseable")
            return
        serial = p.get("serial", "")
        reason = None
        record = self.registry.get(serial)
        if record is None or not record.registered:
            reason = "not-registered"
        if reason is None:
            try:
                sig = bytes.fromhex(p.get("signature", ""))
            except ValueError:
                sig = b""
            if not crypto.verify_detached(record.identity_pub,
                                          crypto.hello_signed_bytes(p), sig):
                reason = "bad-signature"
        if reason is None:
            try:
                claims = crypto.open_auth_token(self.keypair, p.get("auth_token", ""))
                if claims["serial"] != serial or claims["account"] != record.account:
                    reason = "token-mismatch"
            except crypto.CryptoError:
                reason = "bad-token"
        if reason is None:
            ts = p.get("timestamp", -1)
            now = self.network.scheduler.now
            if not isinstance(ts, int) or abs(now - ts) > AVS_FRESHNESS_MS:
                reason = "stale-timestamp"
            elif ts <= self._avs_last_ts.get(serial, -1):
                reason = "replayed-timestamp"
        if reason is not None:
            self.network.note(AVS_HOST, "sys", f"avs:rejected:{reason}",
                              payload={"serial": serial})
            send_control(chan, "System", "NegotiationRejected", {"reason": reason})
            chan.close()   # the rejection, already in flight, still lands
            return
        self._avs_last_ts[serial] = p["timestamp"]
        self.avs_sessions[serial] = chan
        self._avs_session_seq += 1
        self.network.note(AVS_HOST, "sys", f"avs:accepted:{serial}")
        send_control(chan, "System", "NegotiationAccepted",
                     {"session": f"avs-{self._avs_session_seq}"})

    def _configure_comms(self, chan: Endpoint, payload) -> None:
        serial = payload.get("serial") if isinstance(payload, dict) else None
        if not isinstance(serial, str) or self.avs_sessions.get(serial) is not chan:
            send_control(chan, "SipClient", "ConfigureCommsResponse",
                         {"error": "no negotiated session"})
            return
        record = self.registry[serial]
        send_control(chan, "SipClient", "ConfigureCommsResponse", {
            "registrar": self.hosts[SIP_HOST].addr(CLOUD_LAN),
            "own_uri": device_uri(serial),
            "user_uri": account_uri(record.account),
        })

    # -- directives ------------------------------------------------------------

    def start_call(self, caller_serial: str, callee: str, call_type: str) -> None:
        """Model a voice command: tell a device to place a call, with a
        freshly minted single-use authorization token."""
        chan = self._avs_session(caller_serial)
        token = crypto.mint_call_token(
            self.keypair, caller=device_uri(caller_serial), callee=callee,
            call_type=call_type, ttl=CALL_TOKEN_TTL_MS,
            now=self.network.scheduler.now, rng=self.rng)
        send_control(chan, "SipClient", "BeginCall",
                     {"callee": callee, "call_type": call_type, "token": token.b64()})

    def end_call(self, serial: str) -> None:
        send_control(self._avs_session(serial), "SipClient", "EndCall", {})

    def refresh(self, serial: str) -> None:
        send_control(self._avs_session(serial), "System", "Refresh", {})

    def _avs_session(self, serial: str) -> Endpoint:
        chan = self.avs_sessions.get(serial)
        if chan is None:
            raise NetError(f"{serial} has no voice-service session")
        return chan

    # -- SIP registrar and proxy ------------------------------------------------

    def _accept_sip(self, chan: Endpoint) -> None:
        chan.handler = lambda end, data: serve_sip(
            end, data, self._SIP_REQUESTS, CloudServices._sip_response, self)

    def _sip_register(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        try:
            claims = crypto.open_auth_token(self.keypair, msg.header("X-authtoken") or "")
        except crypto.CryptoError:
            self.network.note(SIP_HOST, "sys", "sip:bind-refused:bad-token")
            send_sip(chan, make_sip_response(msg, 403))
            return
        serial = claims["serial"]
        record = self.registry.get(serial)
        from_uri = (msg.header("From") or "").strip("<>")
        if record is None or not record.registered \
                or record.account != claims["account"] \
                or from_uri != device_uri(serial):
            self.network.note(SIP_HOST, "sys", "sip:bind-refused:identity")
            send_sip(chan, make_sip_response(msg, 403))
            return
        fields = {"account": record.account,
                  "intercom": msg.header("X-intercom") == "yes", "chan": chan}
        binding = self._unbind(serial)
        if binding is None:
            binding = Binding(uri=device_uri(serial), serial=serial, **fields)
        else:   # renewed in place: a call under way holds it, so it follows the device
            vars(binding).update(fields)
        self.bindings[binding.uri] = [binding]
        alias = account_uri(record.account)
        self.bindings[alias] = self.bindings.get(alias, []) + [binding]
        self._chan_bindings[chan] = binding
        self.network.note(SIP_HOST, "sys", f"sip:bind:{binding.uri}",
                          payload={"account": record.account})
        send_sip(chan, make_sip_response(msg, 200))

    def _unbind(self, serial: str) -> Binding | None:
        """Drop serial's binding from its device URI and from its account's
        alias list, whichever account that was, and so from its channel;
        return the binding dropped."""
        old = next(iter(self.bindings.pop(device_uri(serial), ())), None)
        if old is None:
            return
        alias = account_uri(old.account)
        self.bindings[alias] = [b for b in self.bindings.get(alias, ()) if b.serial != serial]
        if self._chan_bindings.get(old.chan) is old:
            del self._chan_bindings[old.chan]
        return old

    def _sip_invite(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        caller = self._chan_bindings.get(chan)
        call_id = msg.header("Call-ID") or ""
        if caller is None:
            send_sip(chan, make_sip_response(msg, 403))
            return
        from_uri = (msg.header("From") or "").strip("<>")
        to_uri = (msg.header("To") or "").strip("<>")
        try:
            token = crypto.CallAuthToken.from_b64(msg.header("X-authtoken") or "")
        except crypto.CryptoError:
            token = None
        now = self.network.scheduler.now
        if token is None or not crypto.verify_call_token(
                self.keypair.public, token, from_uri, to_uri, now, self.nonce_cache):
            self.network.note(SIP_HOST, "sys", "call-token:rejected",
                              payload={"call_id": call_id})
            send_sip(chan, make_sip_response(msg, 403))
            return
        if from_uri != caller.uri:
            self.network.note(SIP_HOST, "sys", "call-token:rejected",
                              payload={"call_id": call_id, "reason": "uri-spoof"})
            send_sip(chan, make_sip_response(msg, 403))
            return
        self.network.note(SIP_HOST, "sys", "call-token:accepted",
                          payload={"call_id": call_id})

        offer = read_sdp(msg.body)
        if offer is None:
            send_sip(chan, make_sip_response(msg, 404))
            return
        call = ProxyCall(call_id=call_id, caller=caller, from_uri=from_uri,
                         to_uri=to_uri, invite=msg)
        self.recorded_keys[call_id] = {"offer": offer.key_salt}
        self.network.note(SIP_HOST, "sys", f"keys:recorded:offer:{call_id}")

        if self._is_gateway_uri(to_uri):
            self.calls[call_id] = call
            call.gateway = True
            send_sip(chan, make_sip_response(msg, 100))
            self.network.scheduler.at(GATEWAY_ANSWER_MS, self._gateway_answer, call)
            return

        targets = self._route_targets(caller, to_uri, token.call_type)
        if targets is None:
            self.network.note(SIP_HOST, "sys", "call-refused:drop-in-not-permitted",
                              payload={"call_id": call_id})
            send_sip(chan, make_sip_response(msg, 403))
            return
        if not targets:
            send_sip(chan, make_sip_response(msg, 404))
            return
        self.calls[call_id] = call
        call.legs, call.pending = targets, list(targets)
        send_sip(chan, make_sip_response(msg, 100))
        self._relay_allocate(call)
        fwd_offer = self._with_relay(offer, call.media_port)
        intercom = token.call_type == "intercom"
        for target in targets:
            fwd = make_sip_request(
                "INVITE", target.uri, from_uri=from_uri, to_uri=to_uri,
                call_id=call_id, cseq=1,
                via=self.hosts[SIP_HOST].addr(CLOUD_LAN),
                headers=[("X-calltype", token.call_type),
                         ("Content-Type", "application/sdp")]
                + ([("X-intercom", "yes")] if intercom else []),
                body=wire.sdp_encode(fwd_offer))
            send_sip(target.chan, fwd, summary="INVITE-leg")

    def _with_relay(self, sdp: wire.SdpBody, port: int) -> wire.SdpBody:
        """sdp with the relay's candidate on port added."""
        relay = wire.Candidate("relay", self.hosts[RELAY_HOST].addr(CLOUD_LAN), port)
        return replace(sdp, candidates=[*sdp.candidates, relay])

    def _is_gateway_uri(self, uri: str) -> bool:
        return uri.startswith("tel:") or "@pstn." in uri or "@skype." in uri

    def _route_targets(self, caller: Binding, to_uri: str,
                       call_type: str) -> list[Binding] | None:
        """Bindings to fork to; None signals a permission failure."""
        if to_uri.startswith("sip:dev-"):
            found = [b for b in self.bindings.get(to_uri, [])]
        elif to_uri.startswith("sip:user-"):
            found = [b for b in self.bindings.get(to_uri, [])
                     if b.serial != caller.serial]
        else:
            found = []
        if call_type == "intercom":
            # drop-in stays within one account's household
            if any(b.account != caller.account for b in found):
                return None
            found = [b for b in found if b.intercom]
        return found

    # -- gateway legs

    def _gateway_answer(self, call: ProxyCall) -> None:
        if call.closed:
            return
        port = call.media_port = self._gateway_port_next
        self._gateway_port_next += 2
        gateway_host = self.hosts[GATEWAY_HOST]
        gateway_host.listen(port, lambda _end: None)   # a handlerless end absorbs media
        key_salt = self.rng.randbytes(wire.SRTP_KEY_LEN + wire.SRTP_SALT_LEN)
        answer = wire.SdpBody(
            session_id=f"gw-{call.call_id}", media_port=port,
            candidates=[wire.Candidate("host", gateway_host.addr(CLOUD_LAN), port)],
            crypto_suite=wire.SDES_SUITE, key_salt=key_salt)
        self.recorded_keys[call.call_id]["answer"] = key_salt
        self.network.note(GATEWAY_HOST, "sys", f"gateway:answered:{call.call_id}")
        resp = make_sip_response(call.invite, 200,
                                 headers=[("Content-Type", "application/sdp"),
                                          ("X-leg", "gateway")],
                                 body=wire.sdp_encode(answer))
        send_sip(call.caller.chan, resp)

    # -- relay

    def _relay_allocate(self, call: ProxyCall) -> None:
        port = call.media_port = self._relay_port_next
        self._relay_port_next += 2
        self.hosts[RELAY_HOST].listen(port, lambda end: self._relay_accept(call, end))
        self.network.note(RELAY_HOST, "sys", f"relay:allocated:{call.call_id}",
                          payload={"port": port})

    def _relay_accept(self, call: ProxyCall, end: Endpoint) -> None:
        # the caller and the leg that wins; a callee dials in as it answers,
        # before the proxy has its 200, so until a leg wins any leg may
        ends = call.media_ends
        if len(ends) >= 2 or not self._media_party(call, end.peer.host):
            end.close()
            return
        ends.append(end)
        end.handler = lambda e, data: self._relay_forward(call, e, data)
        if len(ends) == 2:
            for data in call.media_buffer:
                self._relay_forward(call, ends[0], data)
            call.media_buffer.clear()

    def _media_party(self, call: ProxyCall, host) -> bool:
        if host is call.caller.chan.peer.host:
            return True
        if call.winner is not None:
            return host is call.winner.chan.peer.host
        return any(leg.chan.peer.host is host for leg in call.legs)

    def _relay_forward(self, call: ProxyCall, src: Endpoint, data: bytes) -> None:
        # a frame in flight when the call closed, or when its leg lost, still
        # lands; it is never forwarded, as the other end is closed, can no
        # longer join, or was never the sender's party
        if src not in call.media_ends:
            return
        others = [e for e in call.media_ends if e is not src]
        if not others:
            call.media_buffer.append(data)
        elif not others[0].closed:
            others[0].send(data, layer="media", summary="relay-forward")

    # -- proxy responses and mid-call requests

    def _sip_response(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        call = self.calls.get(msg.header("Call-ID") or "")
        method = msg.cseq_method
        if call is None or call.closed and method != "BYE":
            return
        leg = next((b for b in call.legs if b.chan is chan), None)
        if method == "INVITE" and leg is not None:
            self._leg_invite_response(call, leg, msg)
        elif method == "BYE" and leg is not None and leg is not call.winner:
            pass   # the answer to the BYE that ended a leg which lost
        elif method == "BYE":
            # completion of a BYE we forwarded; relay it to the other party
            # unless it bears a status the testbed's agents never send
            other = self._other_chan(call, chan)
            if other is not None and msg.status in wire.SIP_STATUSES:
                send_sip(other, msg)
            self._call_close(call)
        elif method == "CANCEL":
            pass  # 200 for our CANCEL; the 487 settles the leg

    def _leg_invite_response(self, call: ProxyCall, leg: Binding,
                             msg: wire.SipMessage) -> None:
        # a pending leg's 200 wins the call, unless its SDP is unreadable
        answer = read_sdp(msg.body) if msg.status == 200 and leg in call.pending else None
        if msg.status == 180:   # passed on; a 1xx settles no leg (RFC 3261 17.1.1.2)
            send_sip(call.caller.chan, msg)
        elif answer is not None:
            call.winner = leg
            for end in [e for e in call.media_ends if not self._media_party(call, e.peer.host)]:
                call.media_ends.remove(end)   # a leg that answered too and lost
                end.close()
            self.recorded_keys[call.call_id]["answer"] = answer.key_salt
            self.network.note(SIP_HOST, "sys", f"keys:recorded:answer:{call.call_id}")
            for other in call.pending:
                if other is not leg:
                    send_sip(other.chan, make_sip_request(
                        "CANCEL", other.uri, from_uri=call.from_uri,
                        to_uri=call.to_uri, call_id=call.call_id, cseq=1,
                        via=self.hosts[SIP_HOST].addr(CLOUD_LAN)))
            call.pending.clear()
            fwd_answer = self._with_relay(answer, call.media_port)
            fwd = make_sip_response(call.invite, 200,
                                    headers=[("Content-Type", "application/sdp")],
                                    body=wire.sdp_encode(fwd_answer))
            send_sip(call.caller.chan, fwd)
        elif msg.status >= 200 and leg is not call.winner:
            # any other final answer fails its leg (RFC 3261 16.7); a callee
            # whose 200 came late, or bore unreadable SDP, holds a dialog,
            # which the proxy confirms and then ends (RFC 3261 13.2.2.4)
            call.pending = [b for b in call.pending if b is not leg]
            if msg.status == 200:
                for method, cseq in (("ACK", 1), ("BYE", 2)):
                    send_sip(leg.chan, make_sip_request(
                        method, leg.uri, from_uri=call.from_uri,
                        to_uri=call.to_uri, call_id=call.call_id, cseq=cseq,
                        via=self.hosts[SIP_HOST].addr(CLOUD_LAN)))
            if call.winner is None and not call.pending:
                send_sip(call.caller.chan, make_sip_response(call.invite, 486))
                self._call_close(call)

    def _other_chan(self, call: ProxyCall, chan: Endpoint) -> Endpoint | None:
        if call.caller.chan is chan:
            return call.winner.chan if call.winner else None
        return call.caller.chan

    def _sip_ack(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        call = self.calls.get(msg.header("Call-ID") or "")
        if call is not None and not call.closed and call.winner is not None:
            send_sip(call.winner.chan, msg)

    def _sip_bye(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        call = self.calls.get(msg.header("Call-ID") or "")
        if call is None or call.closed:   # no such dialog (RFC 3261 15.1.2)
            send_sip(chan, make_sip_response(msg, 481))
            return
        if call.gateway:
            self.network.note(GATEWAY_HOST, "sys", f"gateway:hangup:{call.call_id}")
            send_sip(chan, make_sip_response(msg, 200))
            self._call_close(call)
            return
        other = self._other_chan(call, chan)
        if other is not None:
            send_sip(other, msg)

    def _sip_cancel_from_client(self, chan: Endpoint, msg: wire.SipMessage) -> None:
        # endpoints in this testbed never cancel their own INVITEs; a CANCEL
        # for no live call matches no transaction (RFC 3261 9.2)
        call = self.calls.get(msg.header("Call-ID") or "")
        send_sip(chan, make_sip_response(msg, 481 if call is None or call.closed else 200))

    def _call_close(self, call: ProxyCall) -> None:
        if call.closed:
            return
        call.closed = True
        for end in call.media_ends:
            end.close()
        if call.media_port is not None:
            self.hosts[GATEWAY_HOST if call.gateway else RELAY_HOST].unlisten(call.media_port)
        self.network.note(SIP_HOST, "sys", f"call:closed:{call.call_id}")

    _API_CALLS = {
        "createLinkCode": (("serial", "secret"), _api_create_link_code),
        "checkLinkCode": (("code", "secret"), _api_check_link_code),
        "registerDevice": (("account", "password", "link_code"), _api_register_device),
    }
    _AVS_CONTROLS = {
        "System.NegotiationCommand": ((), _avs_negotiate),
        "System.RefreshAck": ((), lambda self, _chan, _p: self.network.note(
            AVS_HOST, "sys", "avs:refresh-ack")),
        "SipClient.ConfigureCommsRequest": ((), _configure_comms),
        # WarmUp and the call-progress notices are informational: noted only
        **{f"SipClient.{name}": ((), lambda self, _chan, p, name=name: self.network.note(
            AVS_HOST, "sys", f"ctrl:SipClient.{name}",
            payload=p if isinstance(p, dict) else None))
           for name in ("WarmUp", "OutboundCallRequested", "OutboundCallAccepted",
                        "CallDisconnected")},
    }
    _SIP_REQUESTS = {"REGISTER": _sip_register, "INVITE": _sip_invite, "ACK": _sip_ack,
                     "BYE": _sip_bye, "CANCEL": _sip_cancel_from_client}
