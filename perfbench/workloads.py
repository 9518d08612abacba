"""Seeded generators for the benchmark's synthetic scenarios.

Each generator takes the seed and returns a plain scenario dict of the
same shape as the built-in JSON files, assertions included, so the program
sees nothing but a scenario. The assertions are the correctness gate: every
pairing completes, every call connects, relayed media touches only the
relay, the expected rejections happen, and no canary string reaches the
trace.

Scenarios stay inside the program's hard limits. A scenario that would
break one raises LimitError naming the limit; nothing is shrunk to fit.
"""

from __future__ import annotations

import random
from collections import Counter

from echo_testbed.calling import device_uri
from echo_testbed.cli import SCENARIO_BUDGET

MAX_SETUP_NETWORKS = 20     # netsim's pool of setup-network prefixes
MAX_HOSTS_PER_LAN = 254     # one /24 per LAN, .1 to .254
MAX_HOME_LANS = 16 * 256    # this generator's address plan: 172.16.0 - 172.31.255

# Measured dispatches per unit of work (scheduler events, not trace
# events), rounded up by about a tenth. The budget check uses them to refuse
# a scenario before it runs into SCENARIO_BUDGET halfway through.
DISPATCH_PER_DEVICE = 8          # hello, comms config, SIP register
DISPATCH_PER_RELAYED_CALL = 62   # signalling, 2 x 6 frames via the relay, BYE
DISPATCH_PER_PSTN_CALL = 28
DISPATCH_PER_INVITE_REPLAY = 5
DISPATCH_PER_HELLO_REPLAY = 4
DISPATCH_PER_PAIRING = 82        # OOBE dialogue, link-code polls, hello, register
DISPATCH_PER_MEDIA_CALL = 40     # signalling around the media
DISPATCH_PER_RELAYED_FRAME = 6   # two pumps, two hops to the relay, two forwards
DISPATCH_PER_DIRECT_FRAME = 4    # two pumps, two deliveries

FLEET_FRAMES = 6                # the device default: light media
PAIRING_WAVE_MS = 6_000         # one pairing settles in about 3 s of virtual time
MEDIA_RELAYED = 2               # media_stream calls across NAT, via the relay
MEDIA_INTERCOM = 2              # media_stream same-LAN calls, direct media


class LimitError(ValueError):
    """The requested scenario would exceed one of the program's hard limits."""


def _home_prefix(i: int) -> str:
    if i >= MAX_HOME_LANS:
        raise LimitError(f"address plan: at most {MAX_HOME_LANS} home LANs, asked for {i + 1}")
    return f"172.{16 + i // 256}.{i % 256}"


def _check_budget(estimate: int) -> None:
    if estimate > SCENARIO_BUDGET:
        raise LimitError(f"SCENARIO_BUDGET: about {estimate} dispatches expected, "
                         f"the program allows {SCENARIO_BUDGET}")


def check_hosts_per_lan(scn: dict) -> None:
    """Count the hosts each LAN will hold, setup networks included."""
    topo = scn["topology"]
    held = Counter({"cloud": 5})
    wifi_lan = {w["ssid"]: w["lan"] for w in topo.get("wifi", [])}
    for dev in topo.get("devices", []):
        # a factory device joins the LAN of the one Wi-Fi network it can see
        lan = dev.get("lan") or wifi_lan.get((dev.get("visible_wifi") or [None])[0])
        if lan:
            held[lan] += 1
    held.update(client["lan"] for client in topo.get("clients", []) if client.get("lan"))
    held.update(f"setup:{act['device']}" for act in scn.get("actions", [])
                if act["op"] in ("enter_setup", "start_pairing", "tap_pairing"))
    for lan, n in held.items():
        if n > MAX_HOSTS_PER_LAN:
            raise LimitError(f"{MAX_HOSTS_PER_LAN} hosts per LAN: {lan} would hold {n}")


def fleet_calls(seed: int, homes: int = 1000) -> dict:
    """NAT'd homes with one paired speaker each; half place relayed calls."""
    if homes < 4 or homes % 2:
        raise ValueError("fleet_calls needs an even number of homes, at least 4")
    rng = random.Random(f"fleet_calls:{seed}")
    lans, accounts, devices = [], [], []
    for i in range(homes):
        lans.append({"name": f"home-{i}", "prefix": _home_prefix(i), "nat": True})
        accounts.append({"id": f"acct-{i}", "password": f"acct-canary-{i}-{rng.randrange(10**6)}"})
        devices.append({"serial": f"EK-FL-{i:05d}", "host": f"spk-{i}", "state": "paired",
                        "account": f"acct-{i}", "lan": f"home-{i}",
                        "answer_delay_ms": rng.randrange(200, 601)})
    order = list(range(homes))
    rng.shuffle(order)
    callers, callees = order[:homes // 2], order[homes // 2:]
    n_calls = len(callers)
    pstn = set(rng.sample(range(n_calls), n_calls // 8))
    replays = set(rng.sample(range(n_calls), n_calls // 10))
    hello_replays = sorted(rng.sample(range(homes), homes // 10))

    actions = []
    for d in hello_replays:
        actions.append({"at": rng.randrange(100, 900), "op": "replay_negotiation",
                        "device": f"EK-FL-{d:05d}"})
    relayed_homes = set()
    for k, (a, b) in enumerate(zip(callers, callees)):
        at = rng.randrange(1_000, 3_000)
        if k in pstn:
            callee = f"tel:+1555{a:07d}"
        else:
            callee = device_uri(f"EK-FL-{b:05d}")
            relayed_homes.update((a, b))
        actions.append({"at": at, "op": "start_call", "device": f"EK-FL-{a:05d}",
                        "callee": callee, "call_type": "call"})
        if k in replays:
            actions.append({"at": at + 2_500, "op": "replay_invite",
                            "device": f"EK-FL-{a:05d}"})
    actions.sort(key=lambda act: act["at"])   # stable: ties keep generation order

    n_pstn, n_relayed, f = len(pstn), n_calls - len(pstn), FLEET_FRAMES
    _check_budget(homes * DISPATCH_PER_DEVICE + n_relayed * DISPATCH_PER_RELAYED_CALL
                  + n_pstn * DISPATCH_PER_PSTN_CALL
                  + len(replays) * DISPATCH_PER_INVITE_REPLAY
                  + len(hello_replays) * DISPATCH_PER_HELLO_REPLAY)
    assertions = [
        _count("sys", "sip:registered", homes),
        _count("sys", "avs:accepted:*", homes),
        _count("sys", "avs:rejected:replayed-timestamp", len(hello_replays)),
        _count("sys", "call-token:accepted", n_calls),
        _count("sys", "call-token:rejected", len(replays)),
        _count("sip", "403-INVITE", len(replays)),
        _count("control", "SipClient.OutboundCallAccepted", n_calls),
        _count("sys", "path:relay", 2 * n_relayed),
        _count("sys", "path:gateway", n_pstn),
        _count("media", "relay-forward", 2 * f * n_relayed),
        {"kind": "count", "layer": "media", "dst": "relay", "equals": 2 * f * n_relayed},
        {"kind": "count", "layer": "media", "dst": "gateway", "equals": f * n_pstn},
        # every media event is one of the three above: none bypasses the relay
        {"kind": "count", "layer": "media", "equals": 4 * f * n_relayed + f * n_pstn},
        {"kind": "locality", "layer": "media", "src": "relay",
         "lans": sorted(f"home-{h}" for h in relayed_homes)},
        {"kind": "subsequence", "events": [
            ["control", "SipClient.BeginCall"], ["sip", "INVITE"], ["sip", "INVITE-leg"],
            ["sip", "180-INVITE"], ["sip", "200-INVITE"], ["sys", "path:relay"],
            ["media", "relay-forward"], ["sip", "BYE"], ["sys", "call:closed:*"]]},
        {"kind": "subsequence", "events": [
            ["sys", "avs:accepted:*"], ["sys", "avs:rejected:replayed-timestamp"],
            ["sys", "call-token:accepted"], ["sys", "call-token:rejected"]]},
        {"kind": "absent", "pattern": "CANARY:"},
        {"kind": "absent", "pattern": "acct-canary-"},
    ]
    scn = {"name": "fleet_calls", "seed": f"perfbench:fleet_calls:{seed}",
           "topology": {"lans": lans, "accounts": accounts, "devices": devices},
           "actions": actions, "assertions": assertions}
    check_hosts_per_lan(scn)
    return scn


def pairing_waves(seed: int, speakers: int = 300, wave: int = MAX_SETUP_NETWORKS) -> dict:
    """Factory-fresh speakers paired in waves, a tap on every fourth setup LAN."""
    if wave > MAX_SETUP_NETWORKS:
        raise LimitError(f"{MAX_SETUP_NETWORKS} concurrent setup networks: "
                         f"asked for waves of {wave}")
    if speakers < 1 or wave < 1:
        raise ValueError("pairing_waves needs at least one speaker per wave")
    if speakers > 1000:
        # a setup network is named after the last three digits of the serial
        raise LimitError(f"setup network names: at most 1000 speakers, asked for {speakers}")
    rng = random.Random(f"pairing_waves:{seed}")
    lans, wifi, accounts, devices, clients, attackers, actions = [], [], [], [], [], [], []
    order = list(range(speakers))
    rng.shuffle(order)
    tapped = 0
    for slot, i in enumerate(order):
        serial = f"EK-PW-{i:05d}"
        lans.append({"name": f"home-{i}", "prefix": _home_prefix(i), "nat": True})
        wifi.append({"ssid": f"wifi-{i}", "lan": f"home-{i}",
                     "passphrase": f"wifi-canary-{i}-{rng.randrange(10**6)}"})
        accounts.append({"id": f"acct-{i}", "password": f"acct-canary-{i}-{rng.randrange(10**6)}"})
        devices.append({"serial": serial, "host": f"spk-{i}", "state": "factory",
                        "visible_wifi": [f"wifi-{i}"]})
        clients.append({"name": f"phone-{i}", "account": f"acct-{i}", "wifi": f"wifi-{i}"})
        t0 = (slot // wave) * PAIRING_WAVE_MS + (slot % wave) * 7 + rng.randrange(0, 5)
        actions.append({"at": t0, "op": "enter_setup", "device": serial})
        if slot % 4 == 0:
            attackers.append({"name": f"eve-{i}", "kind": "eavesdropper"})
            actions.append({"at": t0 + 5, "op": "tap_pairing", "attacker": f"eve-{i}",
                            "device": serial})
            tapped += 1
        actions.append({"at": t0 + 10, "op": "start_pairing", "client": f"phone-{i}",
                        "device": serial})
    actions.sort(key=lambda act: act["at"])
    _check_budget(speakers * DISPATCH_PER_PAIRING)
    assertions = [
        _count("sys", "phone:done:paired", speakers),
        _count("sys", "mode:paired", speakers),
        _count("sys", "register-device:*", speakers),
        _count("sys", "avs:accepted:*", speakers),
        _count("sys", "eavesdrop:credential", tapped),
        _count("sys", "eavesdrop:link-code:*", tapped),
        {"kind": "locality", "layer": "oobe",
         "lans": sorted(f"pair:Amazon-{d['serial'][-3:]}" for d in devices)},
        {"kind": "subsequence", "events": [
            ["oobe", "ping"], ["oobe", "getDeviceDetails"], ["oobe", "getScanList"],
            ["oobe", "connectToAP"], ["oobe", "getLinkCode"], ["http", "CONNECT"],
            ["http", "registerDevice"], ["oobe", "getRegistrationState"],
            ["oobe", "setupComplete"], ["sys", "mode:paired"]]},
        {"kind": "absent", "pattern": "wifi-canary-"},
        {"kind": "absent", "pattern": "acct-canary-"},
    ]
    scn = {"name": "pairing_waves", "seed": f"perfbench:pairing_waves:{seed}",
           "topology": {"lans": lans, "wifi": wifi, "accounts": accounts,
                        "devices": devices, "clients": clients, "attackers": attackers},
           "actions": actions, "assertions": assertions}
    check_hosts_per_lan(scn)
    return scn


def media_stream(seed: int, frames: int = 2600) -> dict:
    """Long calls: MEDIA_RELAYED relayed across NAT, MEDIA_INTERCOM on one LAN."""
    if frames < 1:
        raise ValueError("media_stream needs frames >= 1")
    relayed, intercom = MEDIA_RELAYED, MEDIA_INTERCOM
    rng = random.Random(f"media_stream:{seed}")
    lans, accounts, devices, actions, assertions = [], [], [], [], []
    home = 0

    def add_home(n_speakers: int, account: str) -> list[dict]:
        nonlocal home
        lans.append({"name": f"home-{home}", "prefix": _home_prefix(home), "nat": True})
        added = [{"serial": f"EK-MS-{home:03d}{s}", "host": f"spk-{home}-{s}",
                  "state": "paired", "account": account, "lan": f"home-{home}",
                  "frame_count": frames, "answer_delay_ms": rng.randrange(100, 301)}
                 for s in range(n_speakers)]
        devices.extend(added)
        home += 1
        return added

    for c in range(intercom):
        accounts.append({"id": f"acct-ic-{c}", "password": f"acct-canary-ic-{c}"})
        caller, callee = add_home(2, f"acct-ic-{c}")
        actions.append({"at": rng.randrange(200, 400), "op": "start_call",
                        "device": caller["serial"], "callee": device_uri(callee["serial"]),
                        "call_type": "intercom"})
        for dev in (caller, callee):
            assertions.append({"kind": "locality", "layer": "media", "src": dev["host"],
                               "lans": [dev["lan"]]})
    for c in range(relayed):
        accounts.append({"id": f"acct-a-{c}", "password": f"acct-canary-a-{c}"})
        accounts.append({"id": f"acct-b-{c}", "password": f"acct-canary-b-{c}"})
        (caller,) = add_home(1, f"acct-a-{c}")
        (callee,) = add_home(1, f"acct-b-{c}")
        actions.append({"at": rng.randrange(200, 400), "op": "start_call",
                        "device": caller["serial"], "callee": device_uri(callee["serial"]),
                        "call_type": "call"})
        for dev in (caller, callee):
            assertions.append({"kind": "locality", "layer": "media", "src": dev["host"],
                               "via": "relay"})
            assertions.append({"kind": "locality", "layer": "media", "dst": dev["host"],
                               "via": "relay"})
    actions.sort(key=lambda act: act["at"])
    _check_budget(relayed * (DISPATCH_PER_MEDIA_CALL + frames * DISPATCH_PER_RELAYED_FRAME)
                  + intercom * (DISPATCH_PER_MEDIA_CALL + frames * DISPATCH_PER_DIRECT_FRAME)
                  + len(devices) * DISPATCH_PER_DEVICE)
    assertions += [
        _count("control", "SipClient.OutboundCallAccepted", relayed + intercom),
        _count("sys", "auto-answer", intercom),
        _count("sys", "path:relay", 2 * relayed),
        _count("sys", "path:direct", 2 * intercom),
        _count("media", "relay-forward", 2 * frames * relayed),
        {"kind": "count", "layer": "media", "lan": "cloud", "equals": 2 * frames * relayed},
        {"kind": "count", "layer": "media",
         "equals": 4 * frames * relayed + 2 * frames * intercom},
        {"kind": "subsequence", "events": [
            ["control", "SipClient.BeginCall"], ["sip", "INVITE"], ["sip", "200-INVITE"],
            ["control", "SipClient.OutboundCallAccepted"], ["media", "media-frame:*"],
            ["sip", "BYE"], ["control", "SipClient.CallDisconnected"]]},
        {"kind": "absent", "pattern": "CANARY:"},
    ]
    scn = {"name": "media_stream", "seed": f"perfbench:media_stream:{seed}",
           "topology": {"lans": lans, "accounts": accounts, "devices": devices},
           "actions": actions, "assertions": assertions}
    check_hosts_per_lan(scn)
    return scn


def _count(layer: str, summary: str, n: int) -> dict:
    return {"kind": "count", "layer": layer, "summary": summary, "equals": n}


WORKLOADS = {
    "fleet_calls": fleet_calls,
    "pairing_waves": pairing_waves,
    "media_stream": media_stream,
}
