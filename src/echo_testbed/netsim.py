"""Deterministic single-process network fabric.

Everything runs on one virtual clock: a scheduler dispatches callbacks in
(time, insertion order), so a given seed and scenario replays the exact
same interleaving every time. No threads, no sockets, no wall clock.

Topology model:

    Network
      Lan         named broadcast domain with an address prefix; flags for
                  NAT (no inbound dials from other LANs) and isolation
                  (no route to or from the rest of the fabric)
      Host        named node with one interface (address) per attached LAN
      Channel     message-oriented duplex pipe between two endpoints,
                  opened synchronously to a (address, port) listener, or
                  secured to a service by name (Network.dial)

Every message send appends one TraceEvent. Channels opened secured model
an encrypted transport: the event carries no payload and a tap observation
only the length, never the bytes. An unsecured media event's payload is
{"hex": <the bytes it carries, in lower-case hex>}, which the channel
writes itself; any other send records no payload. Taps on a LAN see
each delivery before the destination handler runs, which is exactly the
edge a same-channel attacker has over the legitimate party. A send hands
them the very object it was given, so a record a Written carries lives
exactly as long as its bytes, and every reader of one delivery may use it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

HOP_MS = 1   # delivery latency within one LAN
WAN_MS = 2   # delivery latency across LANs

EVENT_BUDGET = 100_000   # dispatches per run; every built-in quiesces well inside it
HOSTS_PER_LAN = 254     # one /24: .1 to .254
SETUP_NETWORKS = 20     # concurrent setup-mode networks, 192.168.11-30
SETUP_PREFIXES = tuple(f"192.168.{n}" for n in range(11, 11 + SETUP_NETWORKS))
SETUP_LAN_NAMES = "pair:"   # a setup network's LAN is named this plus its SSID


class NetError(Exception):
    """Refused dial, unreachable address, or misuse of a closed channel."""


class BudgetExceeded(NetError):
    """The scheduler dispatched more events than the run allows; almost
    always a retry loop that never quiesces."""


# ---------------------------------------------------------------------------
# Virtual clock

class Scheduler:
    def __init__(self):
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable, tuple]] = []

    @property
    def now(self) -> int:
        return self._now

    def at(self, delay_ms: int, fn: Callable, *args) -> None:
        """Run fn(*args) delay_ms virtual milliseconds from now."""
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay_ms, self._seq, fn, args))

    def run_until_idle(self, budget: int = EVENT_BUDGET) -> int:
        """Dispatch until the queue drains; returns events processed."""
        processed = 0
        while self._heap:
            if processed >= budget:
                raise BudgetExceeded(f"scheduler event budget of {budget} "
                                     f"exceeded at t={self._now}ms")
            when, _, fn, args = heapq.heappop(self._heap)
            self._now = when
            fn(*args)
            processed += 1
        return processed


# ---------------------------------------------------------------------------
# Trace

# json.dumps(p, sort_keys=True, separators=(",", ":")) as one C encoder, made
# once rather than per call, without the check for cycles a payload never has;
# crypto.canonical_json writes what is signed or sealed with it too
_payload_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True)
_str = json.encoder.encode_basestring_ascii


class TraceEvent:
    """One recorded event, held as the trace line TraceLog.record wrote."""

    __slots__ = ("line",)

    def __init__(self, line: str):
        self.line = line

    def to_json(self) -> str:
        return self.line


# each trace layer, and its name as the JSON string a trace line holds
TRACE_LAYERS = {layer: _str(layer)
                for layer in ("http", "oobe", "sip", "sdp", "control", "media", "sys")}


class TraceLog:
    def __init__(self):
        self.events: list[TraceEvent] = []

    def record(self, t_ms: int, src: str, dst: str, lan: str, secured: bool,
               layer: str, summary: str, payload: dict | str | None = None) -> None:
        """Append the line json.dumps(fields, sort_keys=True, separators=(",", ":"))
        writes, payload left out when secured or None; a str payload is the
        payload's JSON text, already written so. The key set never changes,
        so the keys are written in their sorted order directly."""
        quoted_layer = TRACE_LAYERS.get(layer)
        if quoted_layer is None:
            raise ValueError(f"unknown trace layer {layer!r}")
        if secured or payload is None:
            payload = ""
        elif type(payload) is str:
            payload = f'"payload":{payload},'
        else:
            payload = f'"payload":{"".join(_payload_chunks(payload, 0))},'
        self.events.append(TraceEvent(
            f'{{"dst":{_str(dst)},"lan":{_str(lan)},"layer":{quoted_layer},{payload}'
            f'"secured":{"true" if secured else "false"},"seq":{len(self.events):d},'
            f'"src":{_str(src)},"summary":{_str(summary)},"t_ms":{t_ms:d}}}'))

    def jsonl(self) -> str:
        lines = [ev.to_json() for ev in self.events]
        lines.append("")   # the last line's "\n", without copying the joined trace
        return "\n".join(lines)

    def write(self, out) -> None:
        """Write what jsonl() returns to the text file out, one line at a time."""
        out.writelines(f"{ev.to_json()}\n" for ev in self.events)


_scan_once = json.JSONDecoder().scan_once   # the C scanner under json.loads


def iter_jsonl(lines: Iterable[str | bytes]) -> Iterator[dict]:
    """Read a trace in the format TraceLog.jsonl writes, one line at a time,
    back into event dicts. A bytes line is decoded as UTF-8 on its own.

    A line that starts with its JSON value, and ends with it or with one
    "\n" after it, is read by one call of the scanner json.loads runs, as
    every line TraceLog writes is. Any other line goes through json.loads
    itself, so it reads or fails just as it would there.

    Blank lines are skipped. Any other line that is not one event object,
    with exactly the fields TraceLog.record writes and their types, raises
    ValueError naming its 1-based line number.
    """
    for lineno, line in enumerate(lines, 1):
        if type(line) is bytes:
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"line {lineno}: not UTF-8") from None
        try:
            ev, end = _scan_once(line, 0)
        except Exception:   # StopIteration: no value at 0; else json.loads fails too
            end = None
        if end != len(line) and (end != len(line) - 1 or line[end] != "\n"):
            # the value is not all of the line but a last "\n": json.loads decides
            if not line.strip():
                continue
            try:
                ev = json.loads(line)
            except ValueError as exc:   # also an int past sys.get_int_max_str_digits()
                raise ValueError(f"line {lineno}: not JSON ({getattr(exc, 'msg', exc)})") from None
            except RecursionError:
                raise ValueError(f"line {lineno}: nested too deeply") from None
        try:   # the eight event fields, and nothing else but a payload
            ok = (type(ev["seq"]) is type(ev["t_ms"]) is int
                  and type(ev["secured"]) is bool and ev["layer"] in TRACE_LAYERS
                  and type(ev["src"]) is type(ev["dst"]) is str
                  and type(ev["lan"]) is type(ev["summary"]) is str
                  and (len(ev) == 8 or len(ev) == 9 and type(ev.get("payload")) is dict))
        except (KeyError, TypeError):   # not an object, or a field missing
            ok = False
        if not ok:
            raise ValueError(f"line {lineno}: not a trace event")
        yield ev


# ---------------------------------------------------------------------------
# Topology

@dataclass
class Lan:
    name: str
    prefix: str            # dotted /24-style prefix, e.g. "10.0.0"
    nat: bool = False      # True: no inbound dials from other LANs
    isolated: bool = False  # True: no route to or from other LANs
    assignments: dict[str, str] = field(default_factory=dict)  # addr -> host name

    def lowest_free(self) -> str:
        n = 1
        while f"{self.prefix}.{n}" in self.assignments:
            n += 1
        if n > HOSTS_PER_LAN:
            raise NetError(f"LAN {self.name} is full: {HOSTS_PER_LAN} hosts per LAN")
        return f"{self.prefix}.{n}"


class Host:
    """A node. Interfaces map LAN name to this host's address there."""

    def __init__(self, name: str):
        self.name = name
        self.interfaces: dict[str, str] = {}
        self.listeners: dict[int, Callable] = {}

    def listen(self, port: int, accept: Callable[["Endpoint"], None]) -> None:
        self.listeners[port] = accept

    def unlisten(self, port: int) -> None:
        self.listeners.pop(port, None)

    def addr(self, lan_name: str) -> str:
        return self.interfaces[lan_name]


class Written(bytes):
    """Bytes with their writer's record of them (in the instance dict: a bytes
    subtype takes no slots), whose record[0] names the owner: a version
    string, or the 1-tuple of the master key‖salt an SRTP direction was
    keyed from. A copy is plain bytes and takes the full path."""


@dataclass(frozen=True)
class Observation:
    """What a passive tap sees for one delivered message."""

    length: int
    data: bytes | None  # None when the channel is secured


class Endpoint:
    """One end of a channel. Set .handler to receive; call send to emit."""

    def __init__(self, channel: "Channel", host: Host, lan_name: str):
        self.channel = channel
        self.host = host
        self.lan_name = lan_name
        self.handler: Callable[["Endpoint", bytes], None] | None = None
        self.on_close: Callable[["Endpoint"], None] | None = None

    @property
    def peer(self) -> "Endpoint":
        a, b = self.channel.ends
        return b if self is a else a

    @property
    def closed(self) -> bool:
        return self.channel.closed

    def send(self, data: bytes, layer: str, summary: str) -> None:
        self.channel.send_from(self, data, layer, summary)

    def close(self) -> None:
        self.channel.close(self)


class Channel:
    """Duplex FIFO pipe. Per-message latency is fixed at open time."""

    def __init__(self, network: "Network", cid: int, a: tuple[Host, str],
                 b: tuple[Host, str], port: int, secured: bool, latency: int):
        self.network = network
        self.cid = cid
        self.port = port
        self.secured = secured
        self.latency = latency
        self.closed = False
        self.ends = (Endpoint(self, a[0], a[1]), Endpoint(self, b[0], b[1]))

    def send_from(self, src: Endpoint, data: bytes, layer: str, summary: str) -> None:
        if self.closed:
            raise NetError(f"send on closed channel cid={self.cid}")
        dst = src.peer
        net = self.network
        payload = f'{{"hex":"{data.hex()}"}}' if layer == "media" else None  # kept unless secured
        net.trace.record(net.scheduler.now, src.host.name, dst.host.name, dst.lan_name,
                         self.secured, layer, summary, payload)
        net.scheduler.at(self.latency, self._deliver, dst, data)

    def _deliver(self, dst: Endpoint, data: bytes) -> None:
        # close() stops new sends but frames already in flight still land,
        # so a peer that sends an error and immediately hangs up is heard
        # taps first: a sniffer reacts to a frame before its addressee does
        taps = self.network.taps.get(dst.lan_name)
        if taps:
            obs = Observation(length=len(data), data=None if self.secured else data)
            for tap in taps:
                tap(obs)
        if dst.handler is not None:
            dst.handler(dst, data)

    def close(self, closer: Endpoint) -> None:
        if self.closed:
            return
        self.closed = True
        self.network._forget(self)
        peer = closer.peer
        if peer.on_close is not None:
            self.network.scheduler.at(self.latency, self._notify_close, peer)

    def _notify_close(self, peer: Endpoint) -> None:
        if peer.on_close is not None:
            peer.on_close(peer)


# ---------------------------------------------------------------------------
# The fabric

class Network:
    def __init__(self):
        self.scheduler = Scheduler()
        self.trace = TraceLog()
        self.lans: dict[str, Lan] = {}
        self._lan_by_prefix: dict[str, Lan] = {}
        self.hosts: dict[str, Host] = {}
        self.taps: dict[str, list[Callable[[Observation], None]]] = {}
        self.dns: dict[str, str] = {}
        self.channels: list[Channel] = []
        # the open channels on each (host, LAN) interface, in cid order
        self._open: dict[tuple[Host, str], dict[int, Channel]] = {}
        self._next_cid = 1
        self._pairing_prefixes = list(SETUP_PREFIXES)

    # -- topology construction

    def add_lan(self, name: str, prefix: str, nat: bool = False,
                isolated: bool = False) -> Lan:
        if name in self.lans:
            raise NetError(f"duplicate LAN {name}")
        if prefix in self._lan_by_prefix:
            raise NetError(f"prefix {prefix} is already used by LAN "
                           f"{self._lan_by_prefix[prefix].name}")
        lan = Lan(name=name, prefix=prefix, nat=nat, isolated=isolated)
        self.lans[name] = lan
        self._lan_by_prefix[prefix] = lan
        return lan

    def add_host(self, name: str) -> Host:
        host = Host(name)
        self.hosts[name] = host
        return host

    def attach(self, host: Host, lan_name: str) -> str:
        """Put an interface on a LAN; lowest free address wins."""
        lan = self.lans[lan_name]
        addr = lan.lowest_free()
        lan.assignments[addr] = host.name
        host.interfaces[lan_name] = addr
        return addr

    def detach(self, host: Host, lan_name: str) -> None:
        """Drop an interface; every channel riding it closes."""
        lan = self.lans[lan_name]
        del lan.assignments[host.interfaces.pop(lan_name)]
        for chan in list(self._open.pop((host, lan_name), {}).values()):
            chan.close(next(end for end in chan.ends
                            if end.host is host and end.lan_name == lan_name))

    def _forget(self, chan: Channel) -> None:
        for end in chan.ends:
            on_iface = self._open.get((end.host, end.lan_name))
            if on_iface is not None:
                on_iface.pop(chan.cid, None)

    def remove_lan(self, name: str) -> None:
        lan = self.lans[name]
        for host_name in list(lan.assignments.values()):
            self.detach(self.hosts[host_name], name)
        del self.lans[name]
        del self._lan_by_prefix[lan.prefix]
        self.taps.pop(name, None)

    # -- names and addresses

    def register_name(self, name: str, addr: str) -> None:
        self.dns[name] = addr

    def lookup(self, name: str, from_host: Host) -> str:
        # name service lives on the open internet: a host whose every
        # interface sits on an isolated LAN cannot reach it
        if self.uplink(from_host) is None:
            raise NetError(f"{from_host.name} has no route to a resolver")
        if name not in self.dns:
            raise NetError(f"unknown name {name!r}")
        return self.dns[name]

    def lan_of(self, addr: str) -> Lan | None:
        """The LAN whose prefix addr carries, whether or not a host holds it."""
        return self._lan_by_prefix.get(addr.rpartition(".")[0])

    def whereis(self, addr: str) -> tuple[Host, Lan]:
        lan = self.lan_of(addr)
        if lan is None or addr not in lan.assignments:
            raise NetError(f"no host holds address {addr}")
        return self.hosts[lan.assignments[addr]], lan

    def uplink(self, host: Host) -> str | None:
        """The host's first LAN with a route off it, or None."""
        return next((name for name in host.interfaces if not self.lans[name].isolated),
                    None)

    # -- observation

    def add_tap(self, lan_name: str, observer: Callable[[Observation], None]) -> None:
        self.taps.setdefault(lan_name, []).append(observer)

    def note(self, host: Host | str, layer: str, summary: str,
             payload: dict | None = None, lan: str = "-") -> None:
        """Record a node-local trace event (mode changes, decisions)."""
        name = host.name if isinstance(host, Host) else host
        self.trace.record(self.scheduler.now, name, name, lan, False, layer, summary, payload)

    # -- dialing

    def open_channel(self, src: Host, dst_addr: str, port: int,
                     secured: bool = False) -> Endpoint:
        """Synchronously dial (dst_addr, port). Returns the caller's end;
        the listener's accept callback runs immediately with the other."""
        dst_host, dst_lan = self.whereis(dst_addr)
        src_lan_name, local = self._route(src, dst_host, dst_lan)
        accept = dst_host.listeners.get(port)
        if accept is None:
            raise NetError(f"connection refused: {dst_addr}:{port}")
        chan = Channel(self, self._next_cid, (src, src_lan_name),
                       (dst_host, dst_lan.name), port, secured,
                       HOP_MS if local else WAN_MS)
        self._next_cid += 1
        self.channels.append(chan)
        for end in chan.ends:
            self._open.setdefault((end.host, end.lan_name), {})[chan.cid] = chan
        client_end, server_end = chan.ends
        accept(server_end)
        return client_end

    def dial(self, src: Host, name: str, port: int) -> Endpoint:
        """Look name up from src and open a secured channel to it on port."""
        return self.open_channel(src, self.lookup(name, src), port, secured=True)

    def _route(self, src: Host, dst_host: Host, dst_lan: Lan) -> tuple[str, bool]:
        if dst_lan.name in src.interfaces:
            return dst_lan.name, True
        if dst_lan.isolated:
            raise NetError(f"{dst_lan.name} is isolated; only its own members reach it")
        if dst_lan.nat:
            raise NetError(f"{dst_host.name} is behind NAT on {dst_lan.name}")
        uplink = self.uplink(src)
        if uplink is None:
            raise NetError(f"{src.name} has no route off its isolated LAN(s)")
        return uplink, False

    # -- run control

    def run(self, budget: int = EVENT_BUDGET) -> int:
        return self.scheduler.run_until_idle(budget)


# ---------------------------------------------------------------------------
# Setup-mode micro-network

class PairingNetwork:
    """The temporary LAN a device in setup mode hosts: isolated from
    everything, owner at .1, its presence announced exactly once."""

    def __init__(self, network: Network, owner: Host, ssid: str):
        if not network._pairing_prefixes:
            raise NetError(f"no pairing prefixes left: {SETUP_NETWORKS} concurrent setup networks")
        self.network = network
        self.owner = owner
        self.ssid = ssid
        prefix = network._pairing_prefixes.pop(0)
        self.lan = network.add_lan(name=f"{SETUP_LAN_NAMES}{ssid}", prefix=prefix, isolated=True)
        owner_addr = network.attach(owner, self.lan.name)
        assert owner_addr.endswith(".1")
        network.note(owner, "sys", f"announce:{ssid}", lan=self.lan.name)

    @property
    def owner_addr(self) -> str:
        return self.owner.addr(self.lan.name)

    def join(self, host: Host) -> str:
        return self.network.attach(host, self.lan.name)

    def teardown(self) -> None:
        prefix = self.lan.prefix
        self.network.remove_lan(self.lan.name)
        self.network._pairing_prefixes.insert(0, prefix)
