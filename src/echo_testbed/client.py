"""Phone-side actors: the companion app that pairs a device, and the two
adversaries from the threat model.

The companion app walks the whole first-time-setup dialogue: probe the
device, encrypt the home Wi-Fi credential to its certificate, fetch a
link code, register the device to an account through the 443 tunnel,
and close with setupComplete. Each start_pairing opens a new Dialogue
that holds all that one dialogue learns; a reply or timer for a dialogue
that is no longer current is dropped.

The eavesdropper sits passively on the open setup network. It recovers
exactly what the protocol leaks there: the link code and the encrypted
credential blob. It can never produce the passphrase, and the tunneled
registration shows it nothing but lengths.

The hijacker extends that with its own internet uplink and an account:
the moment the link code flashes past, it races the owner's registration
call. Whether the race matters is decided server-side, by whether the
device is still bound to an account.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import crypto, wire
from .calling import read_reply, send_request
from .netsim import Endpoint, NetError, Network, Observation, PairingNetwork

REG_POLL_MS = 200
REG_POLL_MAX = 60


@dataclass(frozen=True)
class WifiCredential:
    """An SSID plus what it takes to join it."""

    ssid: str
    passphrase: str
    security: str = "wpa2"

    def validate(self) -> None:
        if not 1 <= len(self.ssid) <= 32:
            raise ValueError("ssid must be 1..32 characters")
        if self.security == "wpa2" and not 8 <= len(self.passphrase) <= 63:
            raise ValueError("wpa2 passphrase must be 8..63 characters")
        if self.security not in ("wpa2", "open"):
            raise ValueError(f"unknown security mode {self.security!r}")

    def canonical_bytes(self) -> bytes:
        return crypto.canonical_json({"ssid": self.ssid, "passphrase": self.passphrase,
                                      "security": self.security})

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "WifiCredential":
        try:
            obj = json.loads(data.decode("utf-8"))
            cred = cls(ssid=obj["ssid"], passphrase=obj["passphrase"],
                       security=obj["security"])
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise ValueError(f"not a credential: {exc}") from exc
        cred.validate()
        return cred


@dataclass(eq=False)
class Dialogue:
    """One pairing dialogue with one device, from start_pairing to its outcome."""

    oobe: Endpoint                 # the pairing-API channel to the device
    device_addr: str
    cert: crypto.DeviceCertificate | None = None
    link_code: str | None = None
    tunnel: Endpoint | None = None
    tunnel_ready: bool = False     # the CONNECT has been answered
    polls: int = 0                 # getRegistrationState calls since the last reset


class CompanionApp:
    """Drives first-time setup against one device's pairing network."""

    def __init__(self, network: Network, name: str, account_id: str,
                 password: str, home_credential: WifiCredential, rng):
        self.network = network
        self.account_id = account_id
        self.password = password
        self.home_credential = home_credential
        self.rng = rng
        self.host = network.add_host(name)
        self.dialogue: Dialogue | None = None   # the live one, if any
        self.outcome: str | None = None         # how the last dialogue ended

    # -- wiring

    def join_home(self, lan_name: str) -> str:
        return self.network.attach(self.host, lan_name)

    def start_pairing(self, pairing: PairingNetwork) -> None:
        if self.dialogue is not None:
            self._finish(self.dialogue, "restarted")
        if pairing.lan.name not in self.host.interfaces:
            pairing.join(self.host)
        addr = pairing.owner_addr
        d = self.dialogue = Dialogue(
            self.network.open_channel(self.host, addr, wire.OOBE_PORT), addr)
        d.oobe.handler = lambda end, data: self._on_oobe(d, data)
        d.oobe.on_close = lambda end: self._current(d)   # the device hung up
        send_request(d.oobe, "ping", {})

    def _current(self, d: Dialogue) -> bool:
        """Whether d is the dialogue to act on; one whose device has closed
        the pairing channel ends here."""
        if d is self.dialogue and d.oobe.closed:
            self._finish(d, "device-gone")
        return d is self.dialogue

    # -- the setup dialogue, one reply at a time

    def _on_oobe(self, d: Dialogue, data: bytes) -> None:
        if not self._current(d):
            return
        env = read_reply(data)
        if env is None:
            self._finish(d, "protocol-error")
            return
        if "error" in env.args:
            self._finish(d, f"device-error:{env.args['error']}")
            return
        step = getattr(self, f"_after_{env.method}", None)
        if step is not None:
            step(d, env.args)

    def _after_ping(self, d: Dialogue, args: dict) -> None:
        send_request(d.oobe, "getDeviceDetails", {})

    def _after_getDeviceDetails(self, d: Dialogue, args: dict) -> None:
        try:
            d.cert = crypto.DeviceCertificate.from_dict(args["certificate"])
        except (KeyError, TypeError, crypto.CryptoError):
            self._finish(d, "bad-certificate")
            return
        if not crypto.verify_certificate(d.cert):
            self._finish(d, "bad-certificate")
            return
        send_request(d.oobe, "getScanList", {})

    def _after_getScanList(self, d: Dialogue, args: dict) -> None:
        networks = args.get("networks", [])
        if not isinstance(networks, list) or not all(isinstance(n, dict) for n in networks):
            self._finish(d, "protocol-error")
            return
        if self.home_credential.ssid not in [n.get("ssid") for n in networks]:
            self._finish(d, "home-network-not-visible")
            return
        blob = crypto.encrypt_credential(self.home_credential, d.cert, self.rng)
        send_request(d.oobe, "connectToAP", {"ssid": self.home_credential.ssid,
                                             "credential": blob.to_armor()})

    def _after_connectToAP(self, d: Dialogue, args: dict) -> None:
        self._poll_reg_state(d)

    def _poll_reg_state(self, d: Dialogue) -> None:
        if not self._current(d):
            return
        if d.polls >= REG_POLL_MAX:
            self._finish(d, "timeout")
            return
        d.polls += 1
        send_request(d.oobe, "getRegistrationState", {})

    def _after_getRegistrationState(self, d: Dialogue, args: dict) -> None:
        if d.link_code is None and args.get("network") == "connected":
            send_request(d.oobe, "getLinkCode", {})
        elif d.link_code is not None and args.get("registration") == "registered":
            send_request(d.oobe, "setupComplete", {})
        else:
            self.network.scheduler.at(REG_POLL_MS, self._poll_reg_state, d)

    def _after_getLinkCode(self, d: Dialogue, args: dict) -> None:
        d.link_code = args.get("code")
        self.network.note(self.host, "sys", "phone:link-code",
                          payload={"code": d.link_code})
        self._open_tunnel(d)

    def _after_setupComplete(self, d: Dialogue, args: dict) -> None:
        self._finish(d, "paired")

    # -- registration through the device's 443 tunnel

    def _open_tunnel(self, d: Dialogue) -> None:
        d.tunnel = self.network.open_channel(self.host, d.device_addr,
                                             wire.TLS_PORT, secured=True)
        d.tunnel.handler = lambda end, data: self._on_tunnel(d, data)
        connect = wire.HttpMessage(kind="request", method="CONNECT",
                                   path=f"{wire.API_NAME}:{wire.TLS_PORT}",
                                   headers=[], body=b"")
        d.tunnel.send(wire.http_serialize(connect), layer="http", summary="CONNECT")

    def _on_tunnel(self, d: Dialogue, data: bytes) -> None:
        if not self._current(d):
            return
        try:
            msg = wire.http_parse(data)
        except wire.WireError:
            self._finish(d, "tunnel-error")
            return
        if not d.tunnel_ready:
            if msg.status != 200:
                self._finish(d, "tunnel-refused")
                return
            d.tunnel_ready = True
            send_request(d.tunnel, "registerDevice", {
                "account": self.account_id, "password": self.password,
                "link_code": d.link_code})
            return
        try:
            env = wire.oobe_decode_response(msg)
        except wire.WireError:
            self._finish(d, "tunnel-error")
            return
        d.tunnel.close()
        if env.args.get("ok"):
            self.network.note(self.host, "sys", "phone:registered",
                              payload={"account": self.account_id})
            d.polls = 0
            self._poll_reg_state(d)
        else:
            self.network.note(self.host, "sys",
                              f"phone:register-failed:{env.args.get('error')}")
            self._finish(d, "register-failed")

    def _finish(self, d: Dialogue, outcome: str) -> None:
        """End d, the current dialogue: each caller has checked that it is."""
        self.dialogue = None
        self.outcome = outcome
        self.network.note(self.host, "sys", f"phone:done:{outcome}")
        d.oobe.close()
        if d.tunnel is not None:
            d.tunnel.close()


class Eavesdropper:
    """Passive observer on the open setup network."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.host = network.add_host(name)
        self.link_code: str | None = None
        self.credential_armor: str | None = None
        self.secured_lengths: list[int] = []
        self.cleartext: list[bytes] = []

    def join(self, pairing: PairingNetwork) -> None:
        if pairing.lan.name in self.host.interfaces:
            return   # already on it, and tapping it
        pairing.join(self.host)
        self.network.add_tap(pairing.lan.name, self._observe)

    def _observe(self, obs: Observation) -> None:
        if obs.data is None:
            self.secured_lengths.append(obs.length)
            return
        self.cleartext.append(bytes(obs.data))   # what it saw, not the writer's record
        try:
            msg = wire.http_parse(obs.data)
        except wire.WireError:
            return
        if msg.kind == "request":
            try:
                env = wire.oobe_decode(msg)
            except wire.WireError:
                return
            if env.method == "connectToAP" and isinstance(env.args.get("credential"), str):
                self.credential_armor = env.args["credential"]
                self.network.note(self.host, "sys", "eavesdrop:credential",
                                  payload={"length": len(self.credential_armor)})
        else:
            try:
                env = wire.oobe_decode_response(msg)
            except wire.WireError:
                return
            if env.method == "getLinkCode" and "code" in env.args:
                self.on_link_code(env.args["code"])

    def on_link_code(self, code: str) -> None:
        if self.link_code is None:
            self.link_code = code
            self.network.note(self.host, "sys", f"eavesdrop:link-code:{code}")


class Hijacker(Eavesdropper):
    """Eavesdropper with an uplink and an account of its own."""

    def __init__(self, network: Network, name: str, account_id: str, password: str):
        super().__init__(network, name)
        self.account_id = account_id
        self.password = password
        self.result: str | None = None

    def bring_uplink(self, lan_name: str) -> str:
        """Attach the attacker's own internet path (cellular data)."""
        return self.network.attach(self.host, lan_name)

    def on_link_code(self, code: str) -> None:
        first_sighting = self.link_code is None
        super().on_link_code(code)
        if first_sighting:
            self._race_registration(code)

    def _race_registration(self, code: str) -> None:
        try:
            chan = self.network.dial(self.host, wire.API_NAME, wire.TLS_PORT)
        except NetError:
            self.result = "no-route"
            return
        chan.handler = self._on_register_reply
        send_request(chan, "registerDevice", {
            "account": self.account_id, "password": self.password, "link_code": code})
        self.network.note(self.host, "sys", "hijack:submitted",
                          payload={"code": code})

    def _on_register_reply(self, chan: Endpoint, data: bytes) -> None:
        chan.close()   # one call, one reply
        env = read_reply(data)
        if env is None:
            self.result = "protocol-error"
            return
        if env.args.get("ok"):
            self.result = "hijacked"
            self.network.note(self.host, "sys", "hijack:succeeded")
        else:
            self.result = f"refused:{env.args.get('error')}"
            self.network.note(self.host, "sys", "hijack:refused",
                              payload={"error": env.args.get("error")})
