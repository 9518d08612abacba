"""Fabric tests: clock ordering, routing rules, trace discipline, taps."""

import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from echo_testbed import cli, netsim
from echo_testbed.netsim import (
    EVENT_BUDGET,
    HOP_MS,
    WAN_MS,
    BudgetExceeded,
    NetError,
    Network,
    PairingNetwork,
    TRACE_LAYERS,
    Scheduler,
    TraceLog,
)

from trace_reader import text_lines, trace_events


# ---------------------------------------------------------------------------
# Scheduler

class TestScheduler:
    def test_time_order(self):
        sched = Scheduler()
        order = []
        sched.at(5, order.append, "b")
        sched.at(1, order.append, "a")
        sched.at(9, order.append, "c")
        sched.run_until_idle()
        assert order == ["a", "b", "c"]
        assert sched.now == 9

    def test_ties_break_by_insertion(self):
        sched = Scheduler()
        order = []
        for tag in "abcde":
            sched.at(3, order.append, tag)
        sched.run_until_idle()
        assert order == list("abcde")

    def test_nested_scheduling(self):
        sched = Scheduler()
        seen = []

        def first():
            seen.append(sched.now)
            sched.at(10, lambda: seen.append(sched.now))

        sched.at(2, first)
        sched.run_until_idle()
        assert seen == [2, 12]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().at(-1, lambda: None)

    def test_budget_guard(self):
        sched = Scheduler()

        def forever():
            sched.at(1, forever)

        sched.at(0, forever)
        with pytest.raises(BudgetExceeded,
                           match=r"^scheduler event budget of 500 exceeded at t=499ms$"):
            sched.run_until_idle(budget=500)

    def test_default_budget_value(self):
        assert EVENT_BUDGET == 10 ** 5 == cli.SCENARIO_BUDGET

    def test_a_network_runs_under_the_default_budget(self):
        net = Network()

        def forever():
            net.scheduler.at(1, forever)

        net.scheduler.at(0, forever)
        with pytest.raises(BudgetExceeded, match=f"budget of {EVENT_BUDGET} exceeded"):
            net.run()

    @given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                           max_size=50))
    def test_dispatch_never_reorders_time(self, delays):
        sched = Scheduler()
        fired = []
        for d in delays:
            sched.at(d, fired.append, d)
        sched.run_until_idle()
        assert fired == sorted(fired)


# ---------------------------------------------------------------------------
# Topology and routing

def two_lan_net():
    net = Network()
    net.add_lan("home", "10.0.0", nat=True)
    net.add_lan("cloud", "172.16.0")
    dev = net.add_host("device")
    api = net.add_host("api")
    net.attach(dev, "home")
    net.attach(api, "cloud")
    return net, dev, api


class TestRouting:
    def test_lowest_free_assignment(self):
        net = Network()
        net.add_lan("home", "10.0.0")
        a, b, c = (net.add_host(n) for n in "abc")
        assert net.attach(a, "home") == "10.0.0.1"
        assert net.attach(b, "home") == "10.0.0.2"
        net.detach(a, "home")
        assert net.attach(c, "home") == "10.0.0.1"

    def test_full_lan_names_the_limit(self):
        net = Network()
        net.add_lan("home", "10.0.0")
        for i in range(254):
            net.attach(net.add_host(f"h{i}"), "home")
        with pytest.raises(NetError, match="LAN home is full: 254 hosts per LAN"):
            net.attach(net.add_host("one-too-many"), "home")

    def test_outbound_through_nat_allowed(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        assert end.lan_name == "home"

    def test_inbound_to_nat_refused(self):
        net, dev, api = two_lan_net()
        dev.listen(8080, lambda ep: None)
        with pytest.raises(NetError, match="NAT"):
            net.open_channel(api, dev.addr("home"), 8080)

    def test_same_lan_ignores_nat(self):
        net, dev, _ = two_lan_net()
        phone = net.add_host("phone")
        net.attach(phone, "home")
        dev.listen(8080, lambda ep: None)
        end = net.open_channel(phone, dev.addr("home"), 8080)
        assert end.channel.latency == HOP_MS

    def test_cross_lan_latency(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        assert end.channel.latency == WAN_MS

    def test_isolated_lan_unreachable_from_outside(self):
        net, dev, api = two_lan_net()
        net.add_lan("island", "192.168.50", isolated=True)
        iso = net.add_host("iso")
        net.attach(iso, "island")
        iso.listen(80, lambda ep: None)
        with pytest.raises(NetError, match="isolated"):
            net.open_channel(api, iso.addr("island"), 80)

    def test_isolated_host_cannot_reach_out(self):
        net, dev, api = two_lan_net()
        net.add_lan("island", "192.168.50", isolated=True)
        iso = net.add_host("iso")
        net.attach(iso, "island")
        api.listen(443, lambda ep: None)
        with pytest.raises(NetError, match="no route"):
            net.open_channel(iso, api.addr("cloud"), 443)

    def test_refused_without_listener(self):
        net, dev, api = two_lan_net()
        with pytest.raises(NetError, match="refused"):
            net.open_channel(dev, api.addr("cloud"), 9999)

    def test_unknown_address(self):
        net, dev, _ = two_lan_net()
        with pytest.raises(NetError, match="no host"):
            net.open_channel(dev, "203.0.113.7", 80)
        for addr in ("203.0.113.7", "10.0.0.9", "garbage"):   # unknown prefix, free host
            with pytest.raises(NetError, match="no host"):
                net.whereis(addr)

    def test_a_prefix_belongs_to_one_live_lan(self):
        net, _, _ = two_lan_net()
        with pytest.raises(NetError, match="prefix 10.0.0 is already used by LAN home"):
            net.add_lan("home-b", "10.0.0", nat=True)
        net.remove_lan("home")   # setup networks hand their prefix back this way
        assert net.add_lan("home-b", "10.0.0").prefix == "10.0.0"

    def test_lookup_requires_route(self):
        net, dev, api = two_lan_net()
        net.register_name("api.example", api.addr("cloud"))
        assert net.lookup("api.example", dev) == api.addr("cloud")
        net.add_lan("island", "192.168.50", isolated=True)
        iso = net.add_host("iso")
        net.attach(iso, "island")
        with pytest.raises(NetError, match="resolver"):
            net.lookup("api.example", iso)

    @pytest.mark.parametrize("src_lan, name, error", [
        ("home", "x", "unknown name 'x'"),
        ("island", "api.example", "device has no route to a resolver"),
        ("home", "quiet.example", "connection refused: 172.16.0.2:443"),
        ("home", "api.example", None),
    ])
    def test_dial_looks_the_name_up_and_opens_a_secured_channel(self, src_lan, name, error):
        net, dev, api = two_lan_net()
        api.listen(443, lambda end: None)
        net.register_name("api.example", api.addr("cloud"))
        net.register_name("quiet.example", net.attach(net.add_host("quiet"), "cloud"))
        if src_lan == "island":   # the device's only interface is on an isolated LAN
            net.detach(dev, "home")
            net.add_lan("island", "192.168.50", isolated=True)
            net.attach(dev, "island")
        if error is not None:
            with pytest.raises(NetError, match=f"^{re.escape(error)}$"):
                net.dial(dev, name, 443)
            assert net.channels == []
            return
        end = net.dial(dev, name, 443)
        assert (end.host, end.peer.host, end.channel.port) == (dev, api, 443)
        assert end.channel.secured


# ---------------------------------------------------------------------------
# Channels, trace, taps

class TestChannels:
    def test_message_round_trip_and_latency(self):
        net, dev, api = two_lan_net()
        got = []
        api.listen(443, lambda ep: setattr(
            ep, "handler", lambda e, data: got.append((net.scheduler.now, data))))
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(b"hello", layer="control", summary="hi")
        net.run()
        assert got == [(WAN_MS, b"hello")]

    def test_reply_goes_back(self):
        net, dev, api = two_lan_net()

        def accept(server_end):
            server_end.handler = lambda e, data: e.send(b"pong", "control", "pong")

        api.listen(443, accept)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        replies = []
        end.handler = lambda e, data: replies.append(data)
        end.send(b"ping", "control", "ping")
        net.run()
        assert replies == [b"pong"]

    def test_trace_event_fields(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(b"x", "media", "probe")
        ev = trace_events(net)[-1]
        assert (ev["src"], ev["dst"], ev["lan"]) == ("device", "api", "cloud")
        assert ev["layer"] == "media"
        assert ev["payload"] == {"hex": "78"}
        assert ev["summary"] == "probe"

    @pytest.mark.parametrize("data", [b"", b"\x00", b"\x80\xff\x0a\"\\", bytes(range(256))])
    def test_unsecured_media_event_carries_the_hex_of_its_bytes(self, data):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(data, "media", "frame")
        assert trace_events(net)[-1]["payload"] == {"hex": data.hex()}
        # the line a dict payload of the same hex gives, byte for byte
        ref = TraceLog()
        ref.record(0, "device", "api", "cloud", False, "media", "frame", {"hex": data.hex()})
        assert net.trace.events[-1].to_json() == ref.events[0].to_json()

    def test_secured_media_event_carries_no_payload(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443, secured=True)
        end.send(b"\x80\x00ciphertext", "media", "frame")
        assert "payload" not in trace_events(net)[-1]

    def test_tap_sees_plaintext_only_when_unsecured(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        seen = []
        net.add_tap("cloud", seen.append)
        open_end = net.open_channel(dev, api.addr("cloud"), 443)
        open_end.send(b"clear", "control", "a")
        sec_end = net.open_channel(dev, api.addr("cloud"), 443, secured=True)
        sec_end.send(b"hidden", "control", "b")
        net.run()
        assert seen[0].data == b"clear"
        assert seen[1].data is None
        assert seen[1].length == len(b"hidden")

    def test_observation_is_built_only_for_a_tapped_lan(self, monkeypatch):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        built = []
        monkeypatch.setattr(netsim, "Observation", lambda **kw: built.append(kw))
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(b"untapped", "control", "a")
        net.run()
        assert built == []
        net.add_tap("cloud", lambda obs: None)
        end.send(b"tapped", "control", "b")
        net.run()
        assert built == [{"length": 6, "data": b"tapped"}]

    def test_tap_runs_before_destination_handler(self):
        net, dev, api = two_lan_net()
        order = []
        api.listen(443, lambda ep: setattr(
            ep, "handler", lambda e, d: order.append("handler")))
        net.add_tap("cloud", lambda obs: order.append("tap"))
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(b"x", "control", "x")
        net.run()
        assert order == ["tap", "handler"]

    def test_send_after_close_raises(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.close()
        with pytest.raises(NetError, match="closed"):
            end.send(b"x", "control", "x")

    def test_close_notifies_peer(self):
        net, dev, api = two_lan_net()
        closed = []
        api.listen(443, lambda ep: setattr(ep, "on_close", lambda e: closed.append(True)))
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.close()
        net.run()
        assert closed == [True]

    def test_detach_closes_channels(self):
        net, dev, api = two_lan_net()
        api.listen(443, lambda ep: None)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        net.detach(dev, "home")
        assert end.closed

    def test_detach_closes_only_that_interface_in_cid_order(self):
        net, dev, api = two_lan_net()
        net.add_lan("guest", "10.0.1")
        net.attach(dev, "guest")
        phone = net.add_host("phone")
        net.attach(phone, "home")
        closed = []
        api.listen(443, lambda ep: setattr(
            ep, "on_close", lambda e: closed.append(e.channel.cid)))
        ends = [net.open_channel(host, api.addr("cloud"), 443)
                for host in (dev, phone, dev, dev)]
        ends[3].close()   # already closed: detach must not close it again
        net.detach(dev, "home")
        net.run()
        # dev's channels left through its first uplink, home; phone's stays open
        assert [end.closed for end in ends] == [True, False, True, True]
        assert closed == [4, 1, 3]
        net.detach(phone, "home")
        net.run()
        assert closed == [4, 1, 3, 2]

    def test_in_flight_message_survives_close(self):
        # hang up right after sending: the wire still carries the last frame,
        # and the peer hears it before the close notice
        net, dev, api = two_lan_net()
        order = []
        def accept(ep):
            ep.handler = lambda e, d: order.append(("data", d))
            ep.on_close = lambda e: order.append(("closed", None))
        api.listen(443, accept)
        end = net.open_channel(dev, api.addr("cloud"), 443)
        end.send(b"x", "control", "x")
        end.close()
        net.run()
        assert order == [("data", b"x"), ("closed", None)]


# ---------------------------------------------------------------------------
# Pairing micro-network

class TestPairingNetwork:
    def test_owner_at_dot_one_and_announce_once(self):
        net = Network()
        dev = net.add_host("device")
        pair = PairingNetwork(net, dev, "Amazon-ABC")
        assert pair.owner_addr.endswith(".1")
        announces = [ev for ev in trace_events(net)
                     if ev["layer"] == "sys" and ev["summary"].startswith("announce:")]
        assert len(announces) == 1
        assert announces[0]["summary"] == "announce:Amazon-ABC"

    def test_isolated_from_internet(self):
        net = Network()
        net.add_lan("cloud", "172.16.0")
        api = net.add_host("api")
        net.attach(api, "cloud")
        api.listen(443, lambda ep: None)
        dev = net.add_host("device")
        pair = PairingNetwork(net, dev, "Amazon-ABC")
        phone = net.add_host("phone")
        pair.join(phone)
        with pytest.raises(NetError):
            net.open_channel(phone, api.addr("cloud"), 443)

    def test_pool_exhaustion_names_the_limit(self):
        net = Network()
        for i in range(20):
            PairingNetwork(net, net.add_host(f"dev{i}"), f"Amazon-{i}")
        with pytest.raises(NetError, match="20 concurrent setup networks"):
            PairingNetwork(net, net.add_host("dev20"), "Amazon-20")

    def test_teardown_frees_prefix_for_reuse(self):
        net = Network()
        dev = net.add_host("device")
        pair1 = PairingNetwork(net, dev, "Amazon-ABC")
        prefix = pair1.lan.prefix
        pair1.teardown()
        pair2 = PairingNetwork(net, dev, "Amazon-DEF")
        assert pair2.lan.prefix == prefix

    def test_join_assigns_above_owner(self):
        net = Network()
        dev = net.add_host("device")
        pair = PairingNetwork(net, dev, "Amazon-ABC")
        phone = net.add_host("phone")
        assert pair.join(phone).endswith(".2")


# ---------------------------------------------------------------------------
# Trace log shape

# text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and lone surrogates, besides whatever Hypothesis draws
_JSON_TEXT = st.text() | st.text(st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\u2028", "é", "日", "\U0001f600",
     "\ud800", "\udfff", "a", " "]))
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=10)


class TestTrace:
    def test_jsonl_round_trips(self):
        log = TraceLog()
        log.record(0, "a", "b", "home", False, "sys", "hello", {"k": 1})
        log.record(1, "b", "a", "home", True, "sip", "INVITE", {"hidden": True})
        lines = log.jsonl().strip().split("\n")
        first, second = (json.loads(ln) for ln in lines)
        assert first["payload"] == {"k": 1}
        assert "payload" not in second  # secured events never carry payloads
        assert [e["seq"] for e in (first, second)] == [0, 1]

    @pytest.mark.parametrize("count", [0, 1, 50])
    def test_jsonl_ends_every_line_with_a_newline(self, count):
        log = TraceLog()
        for i in range(count):
            log.record(i, "a", "b", "home", False, "sys", f"e{i}", {"i": i})
        assert log.jsonl() == "".join(ev.to_json() + "\n" for ev in log.events)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_write_puts_out_what_jsonl_returns(self, count):
        log = TraceLog()
        for i in range(count):
            log.record(i, "a", "b", "home", False, "sys", f"e{i}", {"i": i})
        out = io.StringIO()
        log.write(out)
        assert out.getvalue() == log.jsonl()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(texts=st.lists(_JSON_TEXT, min_size=4, max_size=4),
           layer=st.sampled_from(tuple(TRACE_LAYERS)),
           seq=st.integers(min_value=0, max_value=3),
           t_ms=st.integers(min_value=0, max_value=2 ** 63),
           secured=st.booleans(),
           payload=st.none() | st.dictionaries(_JSON_TEXT, _JSON_VALUE, max_size=4))
    def test_event_line_is_the_sorted_compact_json_dump(self, texts, layer, seq, t_ms,
                                                         secured, payload):
        src, dst, lan, summary = texts
        log = TraceLog()
        for _ in range(seq):
            log.record(0, "a", "b", "l", False, "sys", "before")
        log.record(t_ms, src, dst, lan, secured, layer, summary, payload)
        fields = {"seq": seq, "t_ms": t_ms, "src": src, "dst": dst, "lan": lan,
                  "secured": secured, "layer": layer, "summary": summary}
        if payload is not None and not secured:   # a secured event never carries one
            fields["payload"] = payload
        line = log.events[-1].to_json()
        assert line == json.dumps(fields, sort_keys=True, separators=(",", ":"))
        assert log.jsonl().split("\n")[seq] == line

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=st.text(alphabet="ab\n\r\x0b\x85\u2028 ", max_size=12))
    def test_text_lines_splits_as_split_on_newline_alone(self, text):
        assert list(text_lines(text)) == text.split("\n")

    def test_unknown_layer_rejected(self):
        log = TraceLog()
        with pytest.raises(ValueError):
            log.record(0, "a", "b", "l", False, "bogus", "x")
