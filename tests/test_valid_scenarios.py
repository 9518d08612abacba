"""Every valid scenario runs to its end.

Scenarios are drawn in the shape of small homes: one to three LANs, each
open, behind NAT or isolated; accounts and Wi-Fi networks; devices that
start paired, in factory state or still bound to a past owner; phones and
attackers; and a dozen admin and attacker moves at random virtual times,
with a setup-mode entry usually placed before a pairing move, and some
moves bunched inside the media window of a call. Whatever the draw, a run
ends with exit code 0, 1 or 2, and exit 2 only for a refusal that names
the action or field at fault, or for the event budget; a run that ends
otherwise has ended every pairing dialogue it started, and left no call
inviting or ringing.
"""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from echo_testbed.cli import ScenarioError, run_scenario

from trace_reader import check_invariants

OPS = ("enter_setup", "start_pairing", "tap_pairing", "start_call", "end_call",
       "refresh", "deregister", "connect_avs", "replay_negotiation", "replay_invite")
# a refusal names the offending entry: "devices[1]: ..." or "action[3] refresh: ..."
NAMES_A_SPOT = re.compile(r"\b(lans|accounts|wifi|devices|clients|attackers|action)\[\d+\]")


@st.composite
def valid_scenarios(draw):
    lans = [{"name": f"lan-{i}", "prefix": f"172.16.{i}",
             **draw(st.sampled_from(({}, {"nat": True}, {"isolated": True})))}
            for i in range(draw(st.integers(1, 3)))]
    lan_names = st.sampled_from([lan["name"] for lan in lans])
    accounts = [{"id": f"acct-{i}", "password": f"pw-{i}"}
                for i in range(draw(st.integers(1, 3)))]
    account_ids = st.sampled_from([a["id"] for a in accounts])
    wifi = [{"ssid": f"Net-{i}", "lan": draw(lan_names), "passphrase": f"passphrase-{i}"}
            for i in range(draw(st.integers(1, 2)))]
    ssids = [w["ssid"] for w in wifi]

    devices = []
    for i in range(draw(st.integers(1, 4))):
        dev = {"serial": f"EK-{i:04d}"}
        start = draw(st.sampled_from(("factory", "paired", "registered_to")))
        if start == "paired":
            dev.update(state="paired", account=draw(account_ids), lan=draw(lan_names))
        elif start == "registered_to":
            dev["registered_to"] = draw(account_ids)
        if draw(st.booleans()):
            dev["visible_wifi"] = draw(st.lists(st.sampled_from(ssids), unique=True))
        for key, values in (("intercom", st.booleans()), ("auto_bye", st.booleans()),
                            ("answer_delay_ms", st.integers(0, 800)),
                            ("frame_count", st.integers(0, 60))):
            if draw(st.booleans()):
                dev[key] = draw(values)
        devices.append(dev)
    serials = st.sampled_from([d["serial"] for d in devices])

    clients = []
    for i in range(draw(st.integers(0, 2))):
        phone = {"name": f"phone-{i}", "account": draw(account_ids),
                 "wifi": draw(st.sampled_from(ssids))}
        if draw(st.booleans()):
            phone["lan"] = draw(lan_names)
        clients.append(phone)
    attackers = []
    if draw(st.booleans()):
        attackers.append({"name": "eve", "kind": "eavesdropper"})
    if draw(st.booleans()):
        mallet = {"name": "mallet", "kind": "hijacker", "account": draw(account_ids)}
        if draw(st.booleans()):
            mallet["uplink"] = draw(lan_names)
        attackers.append(mallet)

    ops = [op for op in OPS if (op != "start_pairing" or clients)
           and (op != "tap_pairing" or attackers)]
    callees = st.sampled_from([*(f"sip:dev-{d['serial']}@echo.example" for d in devices),
                               *(f"sip:user-{a['id']}@echo.example" for a in accounts),
                               "tel:+15551230100"])
    # moves bunched within one pairing dialogue, or while the media of a
    # call placed early is flowing, or spread over several
    at_ms = st.one_of(st.integers(0, 100), st.integers(150, 1500), st.integers(0, 6000))
    actions = []
    for _ in range(draw(st.integers(1, 12))):
        act = {"at": draw(at_ms), "op": draw(st.sampled_from(ops)), "device": draw(serials)}
        if act["op"] == "start_pairing":
            act["client"] = draw(st.sampled_from([c["name"] for c in clients]))
        elif act["op"] == "tap_pairing":
            act["attacker"] = draw(st.sampled_from([a["name"] for a in attackers]))
        elif act["op"] == "start_call":
            act["callee"] = draw(callees)
            act["call_type"] = draw(st.sampled_from(("call", "intercom")))
        if act["op"] in ("start_pairing", "tap_pairing") and draw(st.integers(0, 3)):
            actions.append({"at": max(0, act["at"] - draw(st.integers(0, 50))),
                            "op": "enter_setup", "device": act["device"]})
        actions.append(act)
    return {"name": "drawn", "seed": "drawn-v1",
            "topology": {"lans": lans, "accounts": accounts, "wifi": wifi,
                         "devices": devices, "clients": clients, "attackers": attackers},
            "actions": actions, "assertions": []}


def check_run(scn):
    """Run scn twice; assert the exit-code contract and the trace invariants."""
    try:
        result = run_scenario(scn)
    except ScenarioError as exc:   # the command line gives exit 2
        assert NAMES_A_SPOT.search(str(exc)), str(exc)
        return
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.error.startswith("BudgetExceeded:") or (
            result.error.startswith("ScenarioError:") and NAMES_A_SPOT.search(result.error)), \
            result.error
    assert run_scenario(scn).jsonl == result.jsonl
    check_invariants(result)
    if result.exit_code != 2:
        # not in check_invariants: a mutated final answer can strand a caller
        left = [(serial, call.call_id, call.state) for serial, dev in result.world.devices.items()
                for call in dev.comms.calls.values() if call.state in ("inviting", "ringing")]
        assert not left, left
    return result


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scn=valid_scenarios())
def test_a_valid_scenario_runs_to_its_end(scn):
    check_run(scn)


def test_a_comms_answer_on_a_replaced_session_is_dropped():
    # connect_avs at 1 ms: the device closes its first voice-service channel
    # once the second session is accepted, while its ConfigureCommsRequest on
    # the first is still in flight; the cloud's answer there is dropped
    scn = {"name": "drawn", "seed": "drawn-v1",
           "topology": {"lans": [{"name": "lan-0", "prefix": "172.16.0"}],
                        "accounts": [{"id": "acct-0", "password": "pw-0"}],
                        "devices": [{"serial": "EK-0000", "state": "paired",
                                     "account": "acct-0", "lan": "lan-0"}]},
           "actions": [{"at": 1, "op": "connect_avs", "device": "EK-0000"}], "assertions": []}
    result = check_run(scn)
    assert (result.exit_code, result.error) == (0, None)
    assert result.world.devices["EK-0000"].comms.registered
