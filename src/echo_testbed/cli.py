"""Scenario runner and trace assertion engine.

A scenario is one JSON file with three blocks. The topology block
builds the world: LANs, accounts, Wi-Fi networks, devices, phones, and
adversaries. The action block fires admin and attacker moves at given
virtual times. The assertion block is judged against the finished
trace. Running a scenario is therefore: validate, build, schedule, drain
the scheduler, judge the trace lines as the TraceLog recorded them.

Four assertion kinds cover everything the built-ins need:

    subsequence   these (layer, summary-pattern) steps occur in order
    count         exactly N events match a filter
    absent        a substring appears nowhere in summaries or payloads
    locality      matching events stay on given LANs, or always touch
                  a given host (e.g. all media rides the relay)

Exit codes follow CI convention: 0 all assertions hold, 1 at least one
failed, 2 the scenario or command line was unusable. The seed comes
from --seed, else the ECHO_TESTBED_SEED environment variable, else the
scenario file; identical seeds give byte-identical traces.

`run` and `assert` share one trace reader (netsim.iter_jsonl) and one
engine (evaluate_all). `run` judges the recorded lines directly, the very
lines it writes out, with no joined copy of the trace; `assert` reads
them back from the file. The engine streams: it reads CHUNK_EVENTS events
at a time and keeps one small judge per rule, so `assert` judges a saved
trace of any length, line by line, in the memory of one chunk plus the
judges, with no simulation involved. Verdicts are therefore reproducible
after the fact.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import random
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .client import CompanionApp, Eavesdropper, Hijacker, WifiCredential
from .cloud import CLOUD_HOSTS, CLOUD_LAN, CLOUD_PREFIX, CloudServices
from .device import EchoDevice, WifiNetwork, host_name
from .netsim import (
    EVENT_BUDGET,
    SETUP_LAN_NAMES,
    SETUP_PREFIXES,
    TRACE_LAYERS,
    BudgetExceeded,
    NetError,
    Network,
    iter_jsonl,
)

SCENARIO_BUDGET = EVENT_BUDGET   # the name the benchmark's workloads import

BUILTINS = (
    "pair",
    "pair_eavesdrop",
    "hijack_registered",
    "hijack_deregistered",
    "avs_handshake",
    "avs_replay",
    "intercom_same_lan",
    "call_cross_lan_fork",
    "call_pstn",
    "token_reuse",
)

SEED_ENV = "ECHO_TESTBED_SEED"


class ScenarioError(Exception):
    """The scenario file or its execution plan is unusable."""


# ---------------------------------------------------------------------------
# Validation: SCHEMA is the one description of a scenario file. Everything
# past validate_scenario and validate_assertion trusts what they let through.

class Field(NamedTuple):
    type: str                 # a key of _TYPES
    required: bool = False
    values: tuple = ()        # allowed values, when not empty
    ref: str = ""             # topology section that must name the value


def _is_strings(val) -> bool:
    return isinstance(val, list) and all(isinstance(s, str) for s in val)


_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_PREFIX = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}")


_TYPES = {   # type -> (check, what the message says a value must be)
    "string": (lambda v: isinstance(v, str), "a string"),
    "count": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "strings": (_is_strings, "a list of strings"),
    "prefix": (lambda v: isinstance(v, str) and _PREFIX.fullmatch(v) is not None,
               "three dot-separated decimal octets 0-255, e.g. '192.168.50'"),
    "uri-part": (lambda v: isinstance(v, str) and re.fullmatch("[!-~]+", v) is not None,
                 "a non-empty string of printable ASCII without whitespace"),
    "steps": (lambda v: isinstance(v, list) and all(
        _is_strings(s) and len(s) == 2 and s[0] in ("*", *TRACE_LAYERS) for s in v),
        "a list of [layer, summary-pattern] pairs"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
}

_STR, _REQ_STR = Field("string"), Field("string", True)

TOPOLOGY_SECTIONS = {   # section -> (field that names an entry, what an entry is)
    "lans": ("name", "LAN"),
    "accounts": ("id", "account"),
    "wifi": ("ssid", "Wi-Fi network"),
    "devices": ("serial", "device"),
    "clients": ("name", "client"),
    "attackers": ("name", "attacker"),
}

_COMMS = {   # the device fields build_world hands to its CommsEndpoint
    "intercom": Field("flag"), "answer_delay_ms": Field("count"),
    "frame_count": Field("count"), "auto_bye": Field("flag"),
}
_DEVICE = {"serial": Field("uri-part", True), "host": _STR, "state": _STR,
           "visible_wifi": Field("strings", ref="wifi"), **_COMMS}


class Op(NamedTuple):
    """One action op. An op with a precondition ends the run, naming the
    action, when holds(world, dev) fails as it fires: dev then `lacks`."""
    fields: dict              # its fields besides op, at and device
    fire: Callable            # fire(world, dev, act)
    lacks: str = ""
    holds: Callable | None = None


_IN_SETUP = ("is not in setup mode", lambda world, dev: dev.setup is not None)
_IN_SESSION = ("has no voice-service session",
               lambda world, dev: dev.serial in world.cloud.avs_sessions)
OPS = {
    "start_pairing": Op({"client": Field("string", True, ref="clients")},
                        lambda world, dev, act: world.clients[act["client"]].start_pairing(
                            dev.setup.pairing), *_IN_SETUP),
    "tap_pairing": Op({"attacker": Field("string", True, ref="attackers")},
                      lambda world, dev, act: world.attackers[act["attacker"]].join(
                          dev.setup.pairing), *_IN_SETUP),
    "start_call": Op({"callee": Field("uri-part", True),
                      "call_type": Field("string", values=("call", "intercom"))},
                     lambda world, dev, act: world.cloud.start_call(
                         dev.serial, act["callee"], act.get("call_type", "call")),
                     *_IN_SESSION),
    "enter_setup": Op({}, lambda world, dev, act: dev.enter_setup()),
    "deregister": Op({}, lambda world, dev, act: world.cloud.deregister_device(dev.serial)),
    "connect_avs": Op({}, lambda world, dev, act: dev.connect_avs(),
                      "has no registration grant", lambda world, dev: dev.grant is not None),
    "replay_negotiation": Op({}, lambda world, dev, act: dev.replay_negotiation(),
                             "has no captured hello", lambda world, dev: dev.hello is not None),
    "refresh": Op({}, lambda world, dev, act: world.cloud.refresh(dev.serial), *_IN_SESSION),
    "end_call": Op({}, lambda world, dev, act: world.cloud.end_call(dev.serial), *_IN_SESSION),
    "replay_invite": Op({}, lambda world, dev, act: dev.comms.replay_last_invite()),
}
_FILTERS = {
    "layer": Field("string", values=tuple(TRACE_LAYERS)), "lan": _STR, "summary": _STR,
    "src": _STR, "dst": _STR, "secured": Field("flag"),
}

# record -> (switch, variants). The value of the switch field picks the
# variant, that is the set of fields the record may have; an absent optional
# switch picks the first variant. A record without a switch has one variant.
SCHEMA = {
    "scenario": ("", {"": {
        "name": _REQ_STR, "description": _STR, "seed": _STR,
        "topology": Field("object"), "actions": Field("list"),
        "assertions": Field("list")}}),
    "topology": ("", {"": {section: Field("list") for section in TOPOLOGY_SECTIONS}}),
    "lans": ("", {"": {"name": _REQ_STR, "prefix": Field("prefix", True),
                       "nat": Field("flag"), "isolated": Field("flag")}}),
    "accounts": ("", {"": {"id": _REQ_STR, "password": _REQ_STR}}),
    "wifi": ("", {"": {"ssid": _REQ_STR, "lan": Field("string", True, ref="lans"),
                       "passphrase": _REQ_STR}}),
    "devices": ("state", {
        "factory": {**_DEVICE, "registered_to": Field("string", ref="accounts")},
        "paired": {**_DEVICE, "account": Field("string", True, ref="accounts"),
                   "lan": Field("string", True, ref="lans")}}),
    "clients": ("", {"": {
        "name": _REQ_STR, "account": Field("string", True, ref="accounts"),
        "wifi": Field("string", True, ref="wifi"), "lan": Field("string", ref="lans")}}),
    "attackers": ("kind", {
        "eavesdropper": {"name": _REQ_STR, "kind": _REQ_STR},
        "hijacker": {"name": _REQ_STR, "kind": _REQ_STR,
                     "account": Field("string", True, ref="accounts"),
                     "uplink": Field("string", ref="lans")}}),
    "actions": ("op", {op: {"op": _REQ_STR, "at": Field("count"),
                            "device": Field("string", True, ref="devices"), **spec.fields}
                       for op, spec in OPS.items()}),
    "assertions": ("kind", {   # "locality" takes exactly one of lans and via
        "subsequence": {"kind": _REQ_STR, "events": Field("steps", True), "lan": _STR},
        "count": {"kind": _REQ_STR, "equals": Field("count", True), **_FILTERS},
        "absent": {"kind": _REQ_STR, "pattern": _REQ_STR, **_FILTERS},
        "locality": {"kind": _REQ_STR, "lans": Field("strings"), "via": _STR, **_FILTERS},
    }),
}

_REQUIRED = {(record, variant): tuple(k for k, spec in fields.items() if spec.required)
             for record, (_, variants) in SCHEMA.items()
             for variant, fields in variants.items()}


def _check_record(obj, record: str, where: str, refs: list | None = None) -> None:
    """Check obj against SCHEMA[record]; add its references to refs."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: must be an object")
    switch, variants = SCHEMA[record]
    variant = next(iter(variants))
    if switch and switch in obj:
        variant = obj[switch]
        if not isinstance(variant, str) or variant not in variants:
            raise ScenarioError(f"{where}: unknown {switch} {variant!r}; "
                                f"expected one of {', '.join(variants)}")
    for key in _REQUIRED[record, variant]:
        if key not in obj:
            raise ScenarioError(f"{where}: missing {key!r}")
    fields = variants[variant]
    for key, val in obj.items():
        spec = fields.get(key)
        if spec is None:
            raise ScenarioError(f"{where}: unexpected field {key!r}")
        check, what = _TYPES[spec.type]
        if not check(val):
            raise ScenarioError(f"{where}: {key!r} must be {what}")
        if spec.values and val not in spec.values:
            raise ScenarioError(f"{where}: unknown {key} {val!r}; "
                                f"expected one of {', '.join(spec.values)}")
        if spec.ref and refs is not None:
            refs.append((where, spec, val))


def validate_assertion(rule, where: str = "assertion") -> None:
    _check_record(rule, "assertions", where)
    if rule["kind"] == "locality" and ("lans" in rule) == ("via" in rule):
        raise ScenarioError(f"{where}: needs exactly one of 'lans' or 'via'")


def validate_scenario(scn) -> None:
    """Raise ScenarioError naming the first field that breaks SCHEMA."""
    _check_record(scn, "scenario", "scenario")
    where = f"scenario {scn['name']!r}"
    topo = scn.get("topology", {})
    _check_record(topo, "topology", f"{where} topology")
    refs: list[tuple[str, Field, object]] = []
    names: dict[str, set] = {}
    for section, (key, what) in TOPOLOGY_SECTIONS.items():
        seen = names[section] = set()
        for i, entry in enumerate(topo.get(section, [])):
            _check_record(entry, section, f"{where} {section}[{i}]", refs)
            if entry[key] in seen:   # a later entry would replace the earlier
                raise ScenarioError(f"{where} {section}[{i}]: duplicate {what} {entry[key]!r}")
            seen.add(entry[key])
    hosts = dict.fromkeys(CLOUD_HOSTS, "a cloud host")   # one network, one name space
    spots = [(f"devices[{i}] host", host_name(dev["serial"], dev.get("host")))
             for i, dev in enumerate(topo.get("devices", []))]
    spots += [(f"{section}[{i}] name", entry["name"]) for section in ("clients", "attackers")
              for i, entry in enumerate(topo.get(section, []))]
    for spot, host in spots:
        if host in hosts:
            raise ScenarioError(f"{where} {spot}: {host!r} is also {hosts[host]}")
        hosts[host] = spot
    taken = {CLOUD_PREFIX: "the cloud LAN", **dict.fromkeys(SETUP_PREFIXES, "setup networks")}
    for i, lan in enumerate(topo.get("lans", [])):
        if lan["name"].startswith(SETUP_LAN_NAMES):
            raise ScenarioError(f"{where} lans[{i}]: 'name' {lan['name']!r} "
                                f"is reserved for setup networks")
        if lan["prefix"] in taken:
            raise ScenarioError(f"{where} lans[{i}]: 'prefix' {lan['prefix']!r} "
                                f"is used by {taken[lan['prefix']]}")
        taken[lan["prefix"]] = f"LAN {lan['name']!r}"
    for i, entry in enumerate(topo.get("wifi", [])):
        try:   # the phone refuses to provision a credential outside these rules
            WifiCredential(ssid=entry["ssid"], passphrase=entry["passphrase"]).validate()
        except ValueError as exc:
            raise ScenarioError(f"{where} wifi[{i}]: {exc}") from None
    for i, act in enumerate(scn.get("actions", [])):
        _check_record(act, "actions", f"{where} action[{i}]", refs)
    for i, rule in enumerate(scn.get("assertions", [])):
        validate_assertion(rule, f"{where} assertion[{i}]")
    names["lans"].add(CLOUD_LAN)   # build_world always adds it
    for spot, spec, val in refs:
        for name in val if spec.type == "strings" else [val]:
            if name not in names[spec.ref]:
                raise ScenarioError(
                    f"{spot}: no {TOPOLOGY_SECTIONS[spec.ref][1]} named {name!r}")
    isolated = {lan["name"] for lan in topo.get("lans", []) if lan.get("isolated")}
    for i, dev in enumerate(topo.get("devices", [])):   # only a paired device has a lan
        if dev.get("lan") in isolated:
            raise ScenarioError(f"{where} devices[{i}]: 'lan' {dev['lan']!r} is isolated")


def load_scenario(ref: str) -> dict:
    """Load a built-in by name or any scenario file by path, unvalidated."""
    if ref in BUILTINS:
        text = (resources.files(__package__) / "scenarios" / f"{ref}.json") \
            .read_text(encoding="utf-8")
    else:
        path = Path(ref)
        if not path.is_file():
            raise ScenarioError(
                f"unknown scenario {ref!r}; built-ins: {', '.join(BUILTINS)}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"{ref}: cannot read ({exc})") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"{ref}: not valid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# World construction

@dataclass
class World:
    """Everything a run built, for tests that reach past the trace."""

    network: Network
    cloud: CloudServices
    wifi: dict[str, WifiNetwork] = field(default_factory=dict)
    devices: dict[str, EchoDevice] = field(default_factory=dict)
    clients: dict[str, CompanionApp] = field(default_factory=dict)
    attackers: dict[str, Eavesdropper] = field(default_factory=dict)


def _component_rng(seed: str, label: str) -> random.Random:
    # one independent, reproducible stream per component
    return random.Random(f"{seed}:{label}")


def build_world(scn: dict, seed: str) -> World:
    """Build the topology of a scenario that validate_scenario accepted."""
    topo = scn.get("topology", {})
    net = Network()
    net.add_lan(CLOUD_LAN, CLOUD_PREFIX)
    cloud = CloudServices(net, _component_rng(seed, "cloud"))
    world = World(network=net, cloud=cloud)

    for entry in topo.get("lans", []):
        net.add_lan(entry["name"], entry["prefix"], nat=entry.get("nat", False),
                    isolated=entry.get("isolated", False))

    for entry in topo.get("accounts", []):
        cloud.provision_account(entry["id"], entry["password"])

    for entry in topo.get("wifi", []):
        world.wifi[entry["ssid"]] = WifiNetwork(
            ssid=entry["ssid"], lan_name=entry["lan"], passphrase=entry["passphrase"])

    for entry in topo.get("devices", []):
        serial = entry["serial"]
        visible = entry.get("visible_wifi", world.wifi)   # default: every SSID
        dev = EchoDevice(
            net, serial, _component_rng(seed, f"device:{serial}"),
            [world.wifi[ssid] for ssid in visible],
            name=entry.get("host"), **{k: entry[k] for k in _COMMS if k in entry})
        cloud.provision_factory(serial, dev.cert, dev.device_secret)
        if entry.get("state") == "paired":
            dev.provision_paired(entry["lan"],
                                 cloud.provision_grant(serial, entry["account"]))
        elif "registered_to" in entry:
            # the registry remembers a past owner; the device itself holds
            # nothing, as after a factory reset
            cloud.provision_grant(serial, entry["registered_to"])
        world.devices[serial] = dev

    for entry in topo.get("clients", []):
        name, account = entry["name"], entry["account"]
        w = world.wifi[entry["wifi"]]
        app = CompanionApp(net, name, account, cloud.accounts[account],
                           WifiCredential(ssid=w.ssid, passphrase=w.passphrase),
                           _component_rng(seed, f"client:{name}"))
        if "lan" in entry:
            app.join_home(entry["lan"])
        world.clients[name] = app

    for entry in topo.get("attackers", []):
        name = entry["name"]
        if entry["kind"] == "hijacker":
            atk: Eavesdropper = Hijacker(net, name, entry["account"],
                                         cloud.accounts[entry["account"]])
            if "uplink" in entry:
                atk.bring_uplink(entry["uplink"])
        else:
            atk = Eavesdropper(net, name)
        world.attackers[name] = atk

    return world


def _fire_action(world: World, act: dict, idx: int) -> None:
    op, dev = OPS[act["op"]], world.devices[act["device"]]
    if op.holds is not None and not op.holds(world, dev):
        raise ScenarioError(f"action[{idx}] {act['op']}: {dev.serial} {op.lacks}")
    op.fire(world, dev, act)


def _schedule_actions(world: World, actions: list) -> None:
    for idx, act in enumerate(actions):
        world.network.scheduler.at(act.get("at", 0), _fire_action, world, act, idx)


# ---------------------------------------------------------------------------
# Assertion engine

# events read and judged at a time. A chunk's new event dicts all live until
# it is judged, and CPython starts a collection per 700 containers made and
# not yet freed, so a small chunk sets off few collections that walk them
CHUNK_EVENTS = 512


@dataclass
class Verdict:
    kind: str
    ok: bool
    detail: str


_EQUALITY_FILTERS = ("lan", "src", "dst", "secured", "summary")   # layer: see _judge_chunk
# the characters json.dumps writes as they are: printable ASCII but " and \
_PLAIN = bytes(c for c in range(0x20, 0x7f) if c not in b'"\\')


def _is_glob(pat: str) -> bool:
    return any(c in pat for c in "*?[")


def _glob(pat: str):
    """A test of a string, compiled once, that agrees with fnmatch.fnmatchcase."""
    return re.compile(fnmatch.translate(pat)).match if _is_glob(pat) else pat.__eq__


class _Judge:
    """One rule's state while the trace streams past. _judge_chunk feeds it
    the events of each chunk that pass its filters, in trace order, and
    evaluate_all then reads its verdict; once done, it is fed nothing more."""

    def __init__(self, rule: dict):
        self.rule = rule
        self.layer = rule.get("layer")
        pat = rule.get("summary")
        self.match = _glob(pat) if pat is not None and _is_glob(pat) else None
        # the filters an index answers: all but the layer and a summary glob
        self.keys = tuple(k for k in _EQUALITY_FILTERS if rule.get(k) is not None
                          and (k != "summary" or self.match is None))
        self.want = itemgetter(*self.keys)(rule) if self.keys else None
        self.selected = 0   # events that passed the filters so far
        self.done = False


class _Count(_Judge):
    def __init__(self, rule):
        super().__init__(rule)
        self.seqs: list[int] = []   # of the first 5 selected events

    def take(self, hits, screens):
        if len(self.seqs) < 5:
            self.seqs += [ev["seq"] for ev in hits[:5 - len(self.seqs)]]

    def verdict(self) -> Verdict:
        want = self.rule["equals"]
        what = {k: self.rule[k] for k in _FILTERS if self.rule.get(k) is not None}
        if self.selected == want:
            return Verdict("count", True, f"{what} == {want}")
        return Verdict("count", False,
                       f"{what}: expected {want}, found {self.selected} (seq {self.seqs})")


class _Subsequence(_Judge):   # its one filter is lan
    def __init__(self, rule):
        super().__init__(rule)
        self.tests = [(layer, _glob(pat)) for layer, pat in rule["events"]]
        self.found = 0
        self.last_seq = None
        self.done = not self.tests

    def take(self, hits, screens):
        tests, found = self.tests, self.found
        for ev in hits:
            layer, match = tests[found]
            if (layer == "*" or ev["layer"] == layer) and match(ev["summary"]):
                found += 1
                self.last_seq = ev["seq"]
                if found == len(tests):
                    self.done = True
                    break
        self.found = found

    def verdict(self) -> Verdict:
        steps, found = self.rule["events"], self.found
        if found == len(steps):
            return Verdict("subsequence", True, f"all {len(steps)} steps found in order")
        after = "start" if self.last_seq is None else f"seq={self.last_seq}"
        return Verdict("subsequence", False,
                       f"step {found + 1}/{len(steps)} {steps[found]} not found after {after}")


def _screen(hits: list[dict]) -> tuple[str, str] | None:
    """The summaries of hits joined by "\n", and the quote-free runs of
    their payloads joined by "\n" (_Absent); None unless each payload is a
    dict of plain keys, and of values that are plain strings or ints."""
    runs = [": ", ", ", "}"]
    for payload in (p for ev in hits if (p := ev.get("payload")) is not None):
        if type(payload) is not dict:
            return None
        runs += payload
        for value in payload.values():   # type, not isinstance: a bool is written true
            runs += (f": {value}, ", f": {value}}}") if type(value) is int else (value,)
    try:   # the join fails on a key or other value that is no str
        text = "\n".join(runs)
    except TypeError:
        return None
    # json.dumps escapes a raw "\n" in a string, so only the joins may remain
    if not text.isascii() or \
            text.encode("ascii").translate(None, _PLAIN) != b"\n" * (len(runs) - 1):
        return None
    return "\n".join(map(itemgetter("summary"), hits)), text


class _Absent(_Judge):
    """An event's haystack is its summary s, then P = json.dumps(payload,
    sort_keys=True) if it has a payload. A payload is a dict, so P starts
    with "{", and a needle with neither "{" nor '"' in s + P lies in s or in
    a quote-free run of P, a stretch with no '"'. If each key is plain
    (printable ASCII but '"' and '\\') and each value plain or an int N,
    the runs are "{", each key and value, ": ", ", ", "}", ": N, " and
    ": N}", all in the _screen texts of the selection. If they lack the
    needle, the chunk is settled; else it is sought event by event, as
    they may hold it across two runs."""
    hit: dict | None = None

    def take(self, hits, screens):
        # for the chunk, screens holds each selection's _screen by id, with
        # the selection so that the id names no other
        needle = self.rule["pattern"]
        if "{" not in needle and '"' not in needle and hits:
            entry = screens.get(id(hits))
            if entry is None:
                entry = screens[id(hits)] = hits, _screen(hits)
            texts = entry[1]
            if texts is not None and needle not in texts[0] and needle not in texts[1]:
                return
        for ev in hits:
            payload = ev.get("payload")
            hay = ev["summary"] if payload is None else \
                ev["summary"] + json.dumps(payload, sort_keys=True)
            if needle in hay:
                self.hit = ev
                self.done = True
                return

    def verdict(self) -> Verdict:
        needle, ev = self.rule["pattern"], self.hit
        if ev is None:
            return Verdict("absent", True, f"{needle!r} absent from {self.selected} events")
        return Verdict("absent", False, f"{needle!r} present at seq={ev['seq']} "
                                        f"({ev['layer']} {ev['summary']})")


class _Locality(_Judge):
    bad = 0
    first_bad: dict | None = None

    def __init__(self, rule):
        super().__init__(rule)
        self.lans = set(rule["lans"]) if "lans" in rule else None

    def take(self, hits, screens):
        if self.lans is not None:
            bad = [ev for ev in hits if ev["lan"] not in self.lans]
        else:
            via = self.rule["via"]
            bad = [ev for ev in hits if via not in (ev["src"], ev["dst"])]
        if bad:
            self.bad += len(bad)
            if self.first_bad is None:
                self.first_bad = bad[0]

    def verdict(self) -> Verdict:
        place = (f"LANs {sorted(self.lans)}" if self.lans is not None
                 else f"host {self.rule['via']!r}")
        ev = self.first_bad
        if ev is None:
            return Verdict("locality", True, f"all {self.selected} events within {place}")
        return Verdict("locality", False,
                       f"{self.bad}/{self.selected} events outside {place}, first "
                       f"seq={ev['seq']} on lan={ev['lan']} ({ev['src']} -> {ev['dst']})")


_JUDGES = {"subsequence": _Subsequence, "count": _Count, "absent": _Absent,
           "locality": _Locality}


def evaluate_all(events: Iterable[dict], rules: list) -> list[Verdict]:
    """Judge rules that validate_assertion accepted, in order, over events
    read CHUNK_EVENTS at a time. Every event is read, even once every rule
    is settled, so that a reader that checks each line reaches the last one."""
    judges = [_JUDGES[rule["kind"]](rule) for rule in rules]
    events = iter(events)
    while _judge_chunk(judges, list(islice(events, CHUNK_EVENTS))):
        pass
    return [judge.verdict() for judge in judges]


def _judge_chunk(judges: list[_Judge], chunk: list[dict]) -> bool:
    """Feed one chunk to every judge not yet done; False once events ran out.
    A rule with a layer filter (never a subsequence) reads that layer's
    slice. Rules on one slice with the same filter keys share one index of
    it, built in one pass, from each value a rule wants to its events; each
    rule takes its bucket and matches a summary glob on it. Absent rules on
    one selection share its screen: a needle without "{" or '"' that neither
    text holds is in no haystack (_Absent)."""
    by_layer = defaultdict(list)
    for ev in chunk:
        by_layer[ev["layer"]].append(ev)
    live = [judge for judge in judges if not judge.done]
    # an index keeps only the values that live rules want; most events have
    # a summary of their own, so a bucket for each would cost a list each
    indexes: dict[tuple, dict] = defaultdict(dict)
    for judge in live:
        if judge.keys:
            indexes[judge.layer, judge.keys][judge.want] = []
    for (layer, keys), index in indexes.items():
        get = itemgetter(*keys)
        for ev in chunk if layer is None else by_layer.get(layer, ()):
            bucket = index.get(get(ev))
            if bucket is not None:
                bucket.append(ev)
    screens: dict[int, tuple] = {}
    for judge in live:
        if judge.keys:
            hits = indexes[judge.layer, judge.keys][judge.want]
        else:
            hits = chunk if judge.layer is None else by_layer.get(judge.layer, ())
        if judge.match is not None:
            hits = [ev for ev in hits if judge.match(ev["summary"])]
        judge.selected += len(hits)
        judge.take(hits, screens)
    return bool(chunk)


def evaluate_assertion(events: Iterable[dict], rule: dict) -> Verdict:
    """Judge one assertion that validate_assertion accepted."""
    return evaluate_all(events, [rule])[0]


# ---------------------------------------------------------------------------
# Running

@dataclass
class RunResult:
    name: str
    seed: str
    exit_code: int           # 0 pass, 1 assertion failure, 2 runtime error
    verdicts: list[Verdict]
    world: World
    error: str | None = None

    @property
    def jsonl(self) -> str:
        """The trace as `run` writes it, joined from the TraceLog when read."""
        return self.world.network.trace.jsonl()


def run_scenario(scn: dict, seed: str | None = None) -> RunResult:
    """Validate, build, run to quiescence, evaluate. Raises ScenarioError
    only for an invalid scenario or a setup problem; runtime failures come
    back as exit_code 2 with the partial trace attached."""
    validate_scenario(scn)
    name = scn["name"]
    if seed is None:
        seed = scn.get("seed", name)
    try:
        world = build_world(scn, seed)
        _schedule_actions(world, scn.get("actions", []))
    except (NetError, ValueError) as exc:
        raise ScenarioError(f"{name}: setup failed: {exc}") from exc

    error = None
    try:
        world.network.run()
    except (BudgetExceeded, NetError, ScenarioError) as exc:
        error = f"{type(exc).__name__}: {exc}"

    # judge the very lines that `run` writes and `assert` reads back
    verdicts = evaluate_all(iter_jsonl(ev.to_json() for ev in world.network.trace.events),
                            scn.get("assertions", []))
    if error is not None:
        exit_code = 2
    else:
        exit_code = 0 if all(v.ok for v in verdicts) else 1
    return RunResult(name=name, seed=seed, exit_code=exit_code, verdicts=verdicts,
                     world=world, error=error)


# ---------------------------------------------------------------------------
# Command line

def _print_verdicts(verdicts: list[Verdict]) -> None:
    for v in verdicts:
        print(f"{'PASS' if v.ok else 'FAIL'} {v.kind}: {v.detail}")


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        seed = args.seed or os.environ.get(SEED_ENV)
        result = run_scenario(scn, seed=seed)
        trace_path = Path(args.trace) if args.trace else Path(f"{result.name}.trace.jsonl")
        with trace_path.open("w", encoding="utf-8", newline="") as out:
            result.world.network.trace.write(out)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_verdicts(result.verdicts)
    passed = sum(v.ok for v in result.verdicts)
    print(f"{result.name}: seed={result.seed} events={len(result.world.network.trace.events)} "
          f"assertions={passed}/{len(result.verdicts)} trace={trace_path}")
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
    return result.exit_code


def cmd_list(args) -> int:
    for name in BUILTINS:
        scn = load_scenario(name)
        print(f"{name:22} {scn.get('description', '')}")
    return 0


def cmd_explain(args) -> int:
    try:
        scn = load_scenario(args.name)
        validate_scenario(scn)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    topo = scn.get("topology", {})
    print(scn["name"])
    print(f"  {scn.get('description', '(no description)')}")
    print(f"  seed: {scn.get('seed', scn['name'])}")
    parts = [f"{len(topo.get(s, []))} {s}" for s in
             ("lans", "accounts", "devices", "clients", "attackers")
             if topo.get(s)]
    print(f"  topology: {', '.join(parts) if parts else 'cloud only'}")
    for act in scn.get("actions", []):
        args_txt = ", ".join(f"{k}={v}" for k, v in act.items()
                             if k not in ("at", "op"))
        print(f"  t={act.get('at', 0):>6}ms  {act['op']}  {args_txt}")
    print(f"  assertions: {len(scn.get('assertions', []))}")
    for rule in scn.get("assertions", []):
        brief = {k: v for k, v in rule.items() if k != "kind"}
        print(f"    {rule['kind']}: {json.dumps(brief, sort_keys=True)}")
    return 0


def cmd_assert(args) -> int:
    try:
        rules = json.loads(Path(args.assertions).read_text(encoding="utf-8"))
        if isinstance(rules, dict):
            if "assertions" not in rules:
                raise ScenarioError('assertions file: an object needs an "assertions" list')
            rules = rules["assertions"]
        if not isinstance(rules, list):
            raise ScenarioError("assertions file: expected a list")
        for i, rule in enumerate(rules):
            validate_assertion(rule, f"assertion[{i}]")
        # binary lines split on b"\n" alone, as TraceLog.jsonl joins them;
        # no verdict is shown before the last line has passed its checks
        with open(args.trace, "rb") as trace:
            try:
                verdicts = evaluate_all(iter_jsonl(trace), rules)
            except ValueError as exc:
                raise ScenarioError(f"{args.trace}: {exc}") from None
    except (OSError, ValueError, RecursionError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_verdicts(verdicts)
    return 0 if all(v.ok for v in verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echo-testbed",
        description="Deterministic testbed for smart-speaker pairing, "
                    "voice-service handshake, and drop-in calling protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and judge its assertions")
    p_run.add_argument("scenario", help="built-in name or path to a JSON file")
    p_run.add_argument("--seed", help=f"override the seed (default: ${SEED_ENV} "
                                      "or the scenario file)")
    p_run.add_argument("--trace", help="trace output path "
                                       "(default: NAME.trace.jsonl)")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="name the built-in scenarios")
    p_list.set_defaults(fn=cmd_list)

    p_explain = sub.add_parser("explain", help="describe one scenario")
    p_explain.add_argument("name")
    p_explain.set_defaults(fn=cmd_explain)

    p_assert = sub.add_parser("assert",
                              help="evaluate an assertions file against a saved trace")
    p_assert.add_argument("trace", help="JSON-lines trace file")
    p_assert.add_argument("assertions", help="JSON file with an assertion list")
    p_assert.set_defaults(fn=cmd_assert)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
