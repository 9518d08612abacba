"""The emulated smart speaker.

Lifecycle: factory -> setup -> online. A device is in setup while `setup`
holds a SetupSession, which keeps all that lives for that one stay. Each
timer, cloud reply and pairing-API channel carries the session that
started it and does nothing once that session has ended. A link-code
check needs no such test: it is only sent while the device holds no
grant, and a session ends only once it holds one.

In setup mode the device hosts its own temporary Wi-Fi network (SSID
"Amazon-" + the tail of its serial), serves the pairing HTTP API on 8080,
and proxies the companion app's cloud connection on 443. Once it holds
both Wi-Fi credentials and a registration grant it tears the setup
network down, opens an authenticated connection to the voice service,
and provisions comms on the session the service accepts, closing the one
it replaces. Of two connect_avs in the same virtual millisecond the
service refuses the second hello as a replayed timestamp, so the device
keeps the first session.

The pairing API is plain HTTP on an open network; what protects the
Wi-Fi passphrase is that the phone encrypts it to the certificate from
getDeviceDetails, and what protects the account is that registration
happens through the 443 tunnel. Everything else on 8080 is readable by
anyone parked on the setup network, which is the point the adversarial
scenarios make.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto, wire
from .calling import (CommsEndpoint, read_reply, send_control, send_reply,
                      send_request, serve_control, serve_request)
from .netsim import Endpoint, NetError, Network, PairingNetwork

WIFI_CONNECT_MS = 300
LINK_POLL_MS = 2000
LINK_POLL_MAX = 280          # polls; keeps a forgotten device quiescent
SETUP_TEARDOWN_MS = 5        # let the final reply drain first

DEVICE_TYPE = "emu-speaker-1"


@dataclass(frozen=True)
class WifiNetwork:
    ssid: str
    lan_name: str
    passphrase: str
    security: str = "wpa2"
    signal: int = -50


def host_name(serial: str, name: str | None = None) -> str:
    """The device's host: the given name, else echo- + the serial's last four."""
    return name or f"echo-{serial[-4:]}"


@dataclass(eq=False)
class SetupSession:
    """One stay in setup mode, from enter_setup to the setup network's teardown."""

    pairing: PairingNetwork
    wifi: str = "disconnected"     # disconnected|connecting|connected
    link_code: str | None = None
    waiting: list[Endpoint] = field(default_factory=list)   # getLinkCode calls to answer
    polls: int = 0                 # checkLinkCode calls for the current code


class EchoDevice:
    def __init__(self, network: Network, serial: str, rng,
                 visible_wifi: list[WifiNetwork], name: str | None = None, **comms):
        self.network = network
        self.serial = serial
        # what the radio can see, by SSID: each maps to a fabric LAN
        self.visible_wifi = {n.ssid: n for n in visible_wifi}
        self.host = network.add_host(host_name(serial, name))
        self.keypair = crypto.keygen(rng)          # factory identity
        self.cert = crypto.self_sign(self.keypair, serial)
        self.device_secret = rng.randbytes(16).hex()
        self.grant: dict | None = None
        self.identity: crypto.AsymKeypair | None = None  # granted, post-pairing
        self.setup: SetupSession | None = None
        self.comms = CommsEndpoint(network, self.host, serial, rng, **comms)
        self.hello: dict | None = None             # last signed negotiation payload
        self._api: Endpoint | None = None
        self._api_waiters: list = []

    @property
    def ssid(self) -> str:
        return f"Amazon-{self.serial[-3:]}"

    # -- lifecycle -----------------------------------------------------------

    def enter_setup(self) -> PairingNetwork:
        if self.setup is None:
            self.setup = SetupSession(PairingNetwork(self.network, self.host, self.ssid))
            self.host.listen(wire.OOBE_PORT, lambda chan: self._serve_setup(
                chan, lambda end, data: serve_request(end, data, self._OOBE_CALLS, self)))
            self.host.listen(wire.TLS_PORT, lambda chan: self._serve_setup(
                chan, self._tunnel_open))
            self.network.note(self.host, "sys", "mode:setup", lan=self.setup.pairing.lan.name)
        return self.setup.pairing

    def provision_paired(self, lan_name: str, grant: dict) -> None:
        """Start a scenario after first-time setup: on Wi-Fi, registered."""
        self.network.attach(self.host, lan_name)
        self._adopt_grant(grant)
        self.connect_avs()

    def _adopt_grant(self, grant) -> bool:
        """Store grant if it holds a keypair and the strings the device reads."""
        if not isinstance(grant, dict) or not all(
                isinstance(grant.get(k), str) for k in ("auth_token", "friendly_name")):
            return False
        try:
            self.identity = crypto.AsymKeypair.from_dict(grant.get("keypair"))
        except crypto.CryptoError:
            return False
        self.grant = grant
        self.network.note(self.host, "sys", "grant:stored",
                          payload={"friendly_name": grant["friendly_name"]})
        return True

    def _serve_setup(self, chan: Endpoint, serve) -> None:
        """Hand chan's data to serve(end, data) while the setup session that
        accepted chan lasts: a pairing call or CONNECT that lands after it
        has ended is dropped unanswered, and one off the setup network closed."""
        session = self.setup
        if chan.lan_name != session.pairing.lan.name:
            chan.close()
            return

        def handler(end: Endpoint, data: bytes) -> None:
            if session is self.setup:
                serve(end, data)
        chan.handler = handler

    # -- pairing API (port 8080) ----------------------------------------------

    def _oobe_ping(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        return {"pong": True}, 200

    def _oobe_details(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        return {"serial": self.serial, "device_type": DEVICE_TYPE,
                "firmware": "595202420", "certificate": self.cert.to_dict()}, 200

    def _oobe_scan(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        return {"networks": [{"ssid": n.ssid, "security": n.security, "signal": n.signal}
                             for n in self.visible_wifi.values()]}, 200

    def _oobe_connect(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        try:
            blob = crypto.EncryptedCredentialBlob.from_armor(args["credential"])
            cred = crypto.decrypt_credential(blob, self.keypair)
        except crypto.CryptoError:
            return {"error": "credential-invalid"}, 400
        if cred.ssid != args["ssid"]:
            return {"error": "ssid-mismatch"}, 400
        entry = self.visible_wifi.get(cred.ssid)
        if entry is None:
            return {"error": "no-such-network"}, 400
        if entry.passphrase != cred.passphrase:
            return {"error": "auth-failed"}, 403
        self.setup.wifi = "connecting"
        self.network.scheduler.at(WIFI_CONNECT_MS, self._wifi_up, self.setup, entry.lan_name)
        return {"status": "connecting"}, 200

    def _wifi_up(self, session: SetupSession, lan_name: str) -> None:
        if session is not self.setup or session.wifi != "connecting":
            return
        if lan_name not in self.host.interfaces:   # a paired device may be on it already
            self.network.attach(self.host, lan_name)
        session.wifi = "connected"
        self.network.note(self.host, "sys", "mode:wifi-connected",
                          payload={"lan": lan_name})

    def _oobe_reg_state(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        out = {"network": self.setup.wifi,
               "registration": "none" if self.setup.link_code is None else "pending"}
        if self.grant is not None:
            out.update(registration="registered", friendly_name=self.grant["friendly_name"])
        return out, 200

    def _oobe_link_code(self, chan: Endpoint, args: dict) -> tuple[dict, int] | None:
        session = self.setup
        if session.wifi != "connected":
            return {"error": "not-online"}, 400
        if session.link_code is not None:
            return {"code": session.link_code}, 200
        # answered from _on_link_code_created once the service has minted one;
        # the call joins the list first, as an unreachable service answers at once
        session.waiting.append(chan)
        if len(session.waiting) == 1:
            self._api_call("createLinkCode",
                           {"serial": self.serial, "secret": self.device_secret},
                           lambda reply: self._on_link_code_created(session, reply))
        return None

    def _on_link_code_created(self, session: SetupSession, args: dict) -> None:
        if session is not self.setup:
            return
        waiting, session.waiting = session.waiting, []
        if "code" in args:
            session.link_code, session.polls = args["code"], 0
            self.network.scheduler.at(LINK_POLL_MS, self._poll_link_code, session)
            reply, status = {"code": session.link_code}, 200
        else:
            reply, status = {"error": args.get("error", "refused")}, 403
        for chan in waiting:
            send_reply(chan, "getLinkCode", reply, status=status)

    def _poll_link_code(self, session: SetupSession) -> None:
        if session is not self.setup or self.grant is not None:
            return
        if session.polls >= LINK_POLL_MAX:
            self.network.note(self.host, "sys", "link-code:gave-up")
            return
        session.polls += 1
        self._api_call("checkLinkCode",
                       {"code": session.link_code, "secret": self.device_secret},
                       lambda reply: self._on_link_code_checked(session, reply))

    def _on_link_code_checked(self, session: SetupSession, args: dict) -> None:
        status = args.get("status")
        if status == "registered" and self._adopt_grant(args.get("grant")):
            return
        if status == "expired":
            session.link_code = None
            self.network.note(self.host, "sys", "link-code:expired")
            return
        if status != "pending":
            # an error, an unreadable reply or a grant the device cannot use
            self.network.note(self.host, "sys", "link-code:check-failed")
        self.network.scheduler.at(LINK_POLL_MS, self._poll_link_code, session)

    def _oobe_setup_complete(self, chan: Endpoint, args: dict) -> tuple[dict, int]:
        if self.grant is None:
            return {"error": "not-registered"}, 400
        self.network.scheduler.at(SETUP_TEARDOWN_MS, self._leave_setup, self.setup)
        return {"ok": True}, 200

    def _leave_setup(self, session: SetupSession) -> None:
        if session is not self.setup:
            return
        self.setup = None
        self.host.unlisten(wire.OOBE_PORT)
        self.host.unlisten(wire.TLS_PORT)
        if self._api is not None:
            self._api.close()
        session.pairing.teardown()
        self.network.note(self.host, "sys", "mode:paired",
                          payload={"friendly_name": self.grant["friendly_name"]})
        self.connect_avs()

    # -- cloud device API client ------------------------------------------------

    def _api_call(self, method: str, args: dict, cb) -> None:
        try:
            if self._api is None or self._api.closed:
                self._api = self.network.dial(self.host, wire.API_NAME, wire.TLS_PORT)
                self._api.handler = lambda end, data: self._on_api_data(data)
                self._api_waiters = []
        except NetError:
            cb({"error": "cloud-unreachable"})
            return
        self._api_waiters.append(cb)
        send_request(self._api, method, args)

    def _on_api_data(self, data: bytes) -> None:
        # replies come back in call order, so each one, readable or not,
        # answers the oldest call still waiting
        if self._api_waiters:
            env = read_reply(data)
            self._api_waiters.pop(0)(
                env.args if env is not None else {"error": "unparseable-reply"})

    # -- registration tunnel (port 443) -----------------------------------------

    def _tunnel_open(self, chan: Endpoint, data: bytes) -> None:
        if chan.closed:   # a CONNECT still in flight when the phone hung up
            return
        try:
            req = wire.http_parse(data)
        except wire.WireError:
            chan.close()
            return
        name, _, port = (req.path or "").partition(":")
        if req.kind != "request" or req.method != "CONNECT" or not port.isdigit():
            chan.close()
            return
        try:
            upstream = self.network.dial(self.host, name, int(port))
        except NetError:
            err = wire.HttpMessage(kind="response", status=502, reason="Bad Gateway",
                                   headers=[], body=b"")
            chan.send(wire.http_serialize(err), layer="http", summary="CONNECT-error")
            chan.close()
            return
        # either leg closing closes the other
        upstream.handler = lambda end, d: self._tunnel_relay(chan, d)
        upstream.on_close = lambda end: chan.close()
        chan.handler = lambda end, d: self._tunnel_relay(upstream, d)
        chan.on_close = lambda end: upstream.close()
        ok = wire.HttpMessage(kind="response", status=200,
                              reason="Connection Established", headers=[], body=b"")
        chan.send(wire.http_serialize(ok), layer="http", summary="CONNECT-ok")

    def _tunnel_relay(self, to: Endpoint, data: bytes) -> None:
        if not to.closed:
            to.send(data, layer="http", summary="tunnel-data")

    # -- voice-service connection -------------------------------------------------

    def connect_avs(self) -> None:
        if self.grant is None or self.identity is None:
            raise NetError("cannot connect without a registration grant")
        chan = self._dial_avs()
        self.hello = self._negotiation_payload()
        send_control(chan, "System", "NegotiationCommand", self.hello)

    def _dial_avs(self) -> Endpoint:
        chan = self.network.dial(self.host, wire.AVS_NAME, wire.TLS_PORT)
        chan.handler = lambda end, data: serve_control(end, data, self._AVS_CONTROLS, self)
        return chan

    def _negotiation_payload(self) -> dict:
        body = {"auth_token": self.grant["auth_token"], "device_type": DEVICE_TYPE,
                "serial": self.serial, "timestamp": self.network.scheduler.now}
        body["signature"] = crypto.sign_detached(
            self.identity, crypto.hello_signed_bytes(body)).hex()
        return body

    def replay_negotiation(self) -> None:
        """Resend the captured handshake bytes on a fresh connection.

        Stands in for an attacker who recorded the exchange; the service
        must refuse the stale timestamp.
        """
        if self.hello is None:
            raise NetError("nothing captured to replay")
        send_control(self._dial_avs(), "System", "NegotiationCommand", self.hello)

    def _on_avs_accepted(self, chan: Endpoint, _payload) -> None:
        # provision on the channel the service accepted, which need not be
        # the last one dialled: that one's hello may yet be refused
        self.network.note(self.host, "sys", "avs:connected")
        old = self.comms.control
        if old is not None and old is not chan:   # the session this one replaces
            old.close()
        self.comms.provision(chan, self.grant["auth_token"])

    _OOBE_CALLS = {
        "ping": ((), _oobe_ping),
        "getDeviceDetails": ((), _oobe_details),
        "getScanList": ((), _oobe_scan),
        "connectToAP": (("ssid", "credential"), _oobe_connect),
        "getRegistrationState": ((), _oobe_reg_state),
        "getLinkCode": ((), _oobe_link_code),
        "setupComplete": ((), _oobe_setup_complete),
    }
    _AVS_CONTROLS = {
        "System.NegotiationAccepted": ((), _on_avs_accepted),
        "System.NegotiationRejected": (("reason",), lambda self, _chan, p: self.network.note(
            self.host, "sys", f"avs:refused:{p['reason']}")),
        "System.Refresh": ((), lambda self, chan, _p: send_control(
            chan, "System", "RefreshAck", {})),
        # the SipClient commands are the comms endpoint's to run
        **{name: (fields, lambda self, chan, p, run=run: run(self.comms, chan, p))
           for name, (fields, run) in CommsEndpoint.CONTROLS.items()},
    }
