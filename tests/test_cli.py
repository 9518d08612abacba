"""Scenario loading, the assertion engine, and the command-line surface."""

import copy
import dataclasses
import fnmatch
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from echo_testbed import cli, netsim
from echo_testbed.cli import (
    BUILTINS,
    RunResult,
    ScenarioError,
    Verdict,
    evaluate_all,
    evaluate_assertion,
    load_scenario,
    main,
    run_scenario,
    validate_assertion,
    validate_scenario,
)
from echo_testbed.netsim import HOSTS_PER_LAN, TraceEvent, TraceLog, iter_jsonl

from trace_reader import trace_events


def _ev(seq, layer, summary, *, lan="home-a", src="a", dst="b",
        secured=False, payload=None):
    ev = {"seq": seq, "t_ms": seq, "src": src, "dst": dst, "lan": lan,
          "secured": secured, "layer": layer, "summary": summary}
    if payload is not None:
        ev["payload"] = payload
    return ev


SAMPLE = [
    _ev(0, "oobe", "ping"),
    _ev(1, "oobe", "ping-ok"),
    _ev(2, "sys", "mode:setup", lan="setup-x"),
    _ev(3, "http", "CONNECT", secured=False),
    _ev(4, "http", "registerDevice", secured=True),
    _ev(5, "media", "media-frame:dev:0", src="kitchen", dst="relay", lan="cloud",
        payload={"hex": "aa"}),
    _ev(6, "media", "relay-forward", src="relay", dst="den", lan="home-b"),
    _ev(7, "sys", "phone:done:paired", payload={"code": "AB12C"}),
]


# ---------------------------------------------------------------------------
# assertion engine

def test_subsequence_in_order_passes():
    v = evaluate_assertion(SAMPLE, {"kind": "subsequence", "events": [
        ["oobe", "ping"], ["http", "CONNECT"], ["sys", "phone:done:*"]]})
    assert v.ok and "3 steps" in v.detail


def test_subsequence_out_of_order_fails_with_pointer():
    v = evaluate_assertion(SAMPLE, {"kind": "subsequence", "events": [
        ["http", "CONNECT"], ["oobe", "ping"]]})
    assert not v.ok
    assert "step 2/2" in v.detail and "seq=3" in v.detail


def test_subsequence_wildcard_layer():
    v = evaluate_assertion(SAMPLE, {"kind": "subsequence", "events": [
        ["*", "ping"], ["*", "relay-forward"]]})
    assert v.ok


def test_subsequence_consumes_events_strictly_forward():
    # the same event cannot satisfy two steps
    v = evaluate_assertion(SAMPLE, {"kind": "subsequence", "events": [
        ["oobe", "ping"], ["oobe", "ping"], ["oobe", "ping"]]})
    assert not v.ok


def test_count_exact_with_filters():
    assert evaluate_assertion(SAMPLE, {"kind": "count", "layer": "oobe",
                                       "equals": 2}).ok
    assert evaluate_assertion(SAMPLE, {"kind": "count", "layer": "media",
                                       "dst": "relay", "equals": 1}).ok
    assert evaluate_assertion(SAMPLE, {"kind": "count", "secured": True,
                                       "equals": 1}).ok
    assert evaluate_assertion(SAMPLE, {"kind": "count", "lan": "cloud",
                                       "equals": 1}).ok


def test_count_glob_summary():
    assert evaluate_assertion(SAMPLE, {"kind": "count", "summary": "ping*",
                                       "equals": 2}).ok


def test_count_mismatch_reports_found():
    v = evaluate_assertion(SAMPLE, {"kind": "count", "layer": "oobe", "equals": 5})
    assert not v.ok and "expected 5, found 2" in v.detail


def test_absent_scans_summaries_and_payloads():
    assert evaluate_assertion(SAMPLE, {"kind": "absent", "pattern": "hunter2"}).ok
    hit = evaluate_assertion(SAMPLE, {"kind": "absent", "pattern": "AB12C"})
    assert not hit.ok and "seq=7" in hit.detail
    hit2 = evaluate_assertion(SAMPLE, {"kind": "absent", "pattern": "relay-forward"})
    assert not hit2.ok


def test_absent_respects_filters():
    # the code only appears outside the setup LAN here, so a lan-filtered
    # scan stays clean
    v = evaluate_assertion(SAMPLE, {"kind": "absent", "pattern": "AB12C",
                                    "lan": "setup-x"})
    assert v.ok


def test_locality_lans():
    ok = evaluate_assertion(SAMPLE, {"kind": "locality", "layer": "oobe",
                                     "lans": ["home-a"]})
    assert ok.ok
    bad = evaluate_assertion(SAMPLE, {"kind": "locality", "layer": "media",
                                      "lans": ["home-a"]})
    assert not bad.ok and "seq=5" in bad.detail


def test_locality_via_host():
    assert evaluate_assertion(SAMPLE, {"kind": "locality", "layer": "media",
                                       "via": "relay"}).ok
    v = evaluate_assertion(SAMPLE, {"kind": "locality", "layer": "http",
                                    "via": "relay"})
    assert not v.ok


def test_locality_no_matching_events_is_vacuously_true():
    assert evaluate_assertion(SAMPLE, {"kind": "locality", "layer": "sdp",
                                       "lans": ["nowhere"]}).ok


def test_malformed_assertions_rejected():
    for rule in (
        {"kind": "nope"},
        {"kind": "count"},                              # no equals
        {"kind": "absent"},                             # no pattern
        {"kind": "subsequence", "events": [["oobe"]]},  # step not a pair
        {"kind": "locality", "layer": "media"},         # neither lans nor via
        {"kind": "locality", "lans": ["x"], "via": "y"},
        {"kind": "count", "equals": True},              # bool is not an int
        {"kind": "count", "equals": -1},
        {"kind": "count", "equals": 1, "summary": 7},   # filters are strings
        {"kind": "count", "equals": 1, "layer": "htpp"},
        {"kind": "count", "equals": 1, "secured": "yes"},
        {"kind": "count", "equals": 1, "typo": 1},      # unknown field
        {"kind": "subsequence", "events": [["htpp", "x"]]},
        {"kind": "subsequence", "events": [["sip", "x"]], "layer": "sip"},
        {"kind": "locality", "lans": "home-a"},
        "not-an-object",
    ):
        with pytest.raises(ScenarioError):
            validate_assertion(rule)


def test_evaluate_all_preserves_order():
    verdicts = evaluate_all(SAMPLE, [
        {"kind": "count", "layer": "oobe", "equals": 2},
        {"kind": "count", "layer": "oobe", "equals": 3},
    ])
    assert [v.ok for v in verdicts] == [True, False]
    assert all(isinstance(v, Verdict) for v in verdicts)


class _LayerOnly(dict):
    """A trace event of which nothing but the layer may be read."""

    def __getitem__(self, key):
        assert key == "layer", f"read {key!r} of a {dict.__getitem__(self, 'layer')} event"
        return dict.__getitem__(self, key)

    get = __getitem__


def test_evaluate_all_judges_rules_in_order_and_feeds_a_layer_rule_its_layer_alone():
    rules = [
        {"kind": "count", "layer": "oobe", "equals": 2},
        {"kind": "subsequence", "events": [["oobe", "ping"], ["sys", "phone:*"]]},
        {"kind": "absent", "pattern": "AB12C", "layer": "sys"},
        {"kind": "locality", "layer": "sdp", "via": "relay"},
        {"kind": "count", "summary": "ping*", "equals": 2},
        {"kind": "locality", "layer": "media", "lans": ["cloud"]},
        {"kind": "count", "layer": "oobe", "equals": 2},
    ]
    verdicts = evaluate_all(iter(SAMPLE), rules)
    assert [v.kind for v in verdicts] == [rule["kind"] for rule in rules]
    assert [v.ok for v in verdicts] == [True, True, False, True, True, False, True]
    assert verdicts == [_oracle(SAMPLE, rule) for rule in rules]
    for rule in rules:
        if "layer" in rule:   # any read of another layer's event fails the test
            fenced = [ev if ev["layer"] == rule["layer"] else _LayerOnly(ev) for ev in SAMPLE]
            assert evaluate_all(iter(fenced), [rule]) == [_oracle(SAMPLE, rule)]


# ---------------------------------------------------------------------------
# the engine against a naive oracle: every filter read again for every
# event, one json.dumps per payload, as the engine did before it compiled
# its rules

def _oracle_matches(ev, rule):
    for key in ("layer", "lan", "src", "dst", "secured"):
        want = rule.get(key)
        if want is not None and ev[key] != want:
            return False
    pat = rule.get("summary")
    return pat is None or fnmatch.fnmatchcase(ev["summary"], pat)


def _oracle(events, rule):
    kind = rule["kind"]
    if kind == "subsequence":
        steps, lan, idx, last_seq = rule["events"], rule.get("lan"), 0, None
        for ev in events:
            if idx < len(steps) and lan in (None, ev["lan"]) \
                    and steps[idx][0] in ("*", ev["layer"]) \
                    and fnmatch.fnmatchcase(ev["summary"], steps[idx][1]):
                idx, last_seq = idx + 1, ev["seq"]
        if idx == len(steps):
            return Verdict(kind, True, f"all {len(steps)} steps found in order")
        after = "start" if last_seq is None else f"seq={last_seq}"
        return Verdict(kind, False,
                       f"step {idx + 1}/{len(steps)} {steps[idx]} not found after {after}")
    hits = [ev for ev in events if _oracle_matches(ev, rule)]
    if kind == "count":
        want = rule["equals"]
        what = {k: rule[k] for k in ("layer", "lan", "summary", "src", "dst", "secured")
                if k in rule}
        if len(hits) == want:
            return Verdict(kind, True, f"{what} == {want}")
        return Verdict(kind, False, f"{what}: expected {want}, found {len(hits)} "
                                    f"(seq {[ev['seq'] for ev in hits[:5]]})")
    if kind == "absent":
        needle = rule["pattern"]
        for ev in hits:
            hay = ev["summary"]
            if "payload" in ev:
                hay += json.dumps(ev["payload"], sort_keys=True)
            if needle in hay:
                return Verdict(kind, False, f"{needle!r} present at seq={ev['seq']} "
                                            f"({ev['layer']} {ev['summary']})")
        return Verdict(kind, True, f"{needle!r} absent from {len(hits)} events")
    if "lans" in rule:
        bad = [ev for ev in hits if ev["lan"] not in rule["lans"]]
        place = f"LANs {sorted(set(rule['lans']))}"
    else:
        bad = [ev for ev in hits if rule["via"] not in (ev["src"], ev["dst"])]
        place = f"host {rule['via']!r}"
    if not bad:
        return Verdict(kind, True, f"all {len(hits)} events within {place}")
    ev = bad[0]
    return Verdict(kind, False, f"{len(bad)}/{len(hits)} events outside {place}, first "
                                f"seq={ev['seq']} on lan={ev['lan']} "
                                f"({ev['src']} -> {ev['dst']})")


EVENT_LAYERS = ("sip", "media", "sys")
RULE_LAYERS = EVENT_LAYERS + ("oobe",)   # no event is on oobe
LANS, HOSTS = ("home-a", "home-b", "cloud"), ("a", "b", "relay")
SUMMARIES = st.lists(st.sampled_from(("a", "b", "B", "x", "x.", "+", "(", "*", "[", "]",
                                      "-", "!", "{", "\n")), max_size=3).map("".join)
# payloads whose json.dumps(p, sort_keys=True) the engine must search: non-ASCII
# escaped (U+1F600 as a surrogate pair), NaN and infinities allowed, keys
# sorted at every depth
PAYLOAD_KEYS = st.sampled_from(("k", "hex", "a", "\u00e9", "\U0001f600"))
PAYLOAD_DICTS = st.dictionaries(PAYLOAD_KEYS, st.recursive(
    st.none() | st.booleans() | st.integers(0, 2) | st.floats()
    | st.sampled_from((float("nan"), float("-inf"), 1e16))
    | st.text(alphabet='abx{"k\u00e9\u4e2d\U0001f600', max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(PAYLOAD_KEYS, inner, max_size=2),
    max_leaves=4), max_size=2)
PAYLOADS = st.none() | PAYLOAD_DICTS
EVENTS = st.lists(st.builds(
    lambda layer, summary, lan, src, dst, secured, payload: _ev(
        0, layer, summary, lan=lan, src=src, dst=dst, secured=secured, payload=payload),
    st.sampled_from(EVENT_LAYERS), SUMMARIES, st.sampled_from(LANS), st.sampled_from(HOSTS),
    st.sampled_from(HOSTS), st.booleans(), PAYLOADS), max_size=12).map(
    lambda evs: [{**ev, "seq": i, "t_ms": i} for i, ev in enumerate(evs)])


@st.composite
def _pattern(draw, events):
    """A summary glob: a random one, or one made from a summary in events by
    turning characters into ?, *, classes, or the other case."""
    if not events or draw(st.booleans()):
        return draw(st.lists(st.sampled_from(
            ("a", "x", ".", "+", "(", "*", "?", "[a-c]", "[!x]", "[", "]")),
            max_size=3).map("".join))
    return "".join(draw(st.sampled_from((c, c, "?", "*", f"[{c}]", f"[!{c}]", "[a-c]",
                                         c.swapcase())))
                   for c in draw(st.sampled_from(events))["summary"])


def _slice(draw, text, *, head=False, tail=False):
    """A slice of text: its head, its tail, or any run of it."""
    start = 0 if head else draw(st.integers(0, len(text)))
    return text[start:len(text) if tail else draw(st.integers(start, len(text)))]


@st.composite
def _needle(draw, events):
    """An absent pattern: often a slice of what one event is searched as,
    the summary followed by the payload's json.dumps. A short slice, of an
    escape, a separator or keys in their order, is one that a payload
    written otherwise than json.dumps writes it would not hold. Others lie
    where the engine's screen of a selection holds them and no one event
    does: across the "\\n" it joins two summaries or two payload runs with,
    or across two payloads; summaries and needles may hold "\\n" too. One
    that runs from a summary into its payload holds "{", and one within a
    payload often '"', which is how the engine knows not to trust the screen."""
    if not events or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(('x{"k', '"k": 1', "x.", "", "\n", "a\nb", "}\n",
                                     "}, ", "}, {", "1}, {}")))
    summaries = [ev["summary"] for ev in events]
    payloads = [json.dumps(ev["payload"], sort_keys=True) for ev in events if "payload" in ev]
    haystacks = [ev["summary"] + (json.dumps(ev["payload"], sort_keys=True)
                                  if "payload" in ev else "") for ev in events]
    across = draw(st.sampled_from(("", "haystacks", "summaries", "payloads", "into payload")))
    if across == "haystacks" and len(events) > 1:
        i = draw(st.integers(0, len(events) - 2))
        return _slice(draw, haystacks[i], tail=True) + "\n" + \
            _slice(draw, haystacks[i + 1], head=True)
    if across == "summaries" and len(events) > 1:
        i = draw(st.integers(0, len(events) - 2))
        return _slice(draw, summaries[i], tail=True) + "\n" + \
            _slice(draw, summaries[i + 1], head=True)
    if across == "payloads" and len(payloads) > 1:
        i = draw(st.integers(0, len(payloads) - 2))
        return _slice(draw, payloads[i], tail=True) + ", " + \
            _slice(draw, payloads[i + 1], head=True)
    if across == "into payload" and payloads:
        ev = draw(st.sampled_from([ev for ev in events if "payload" in ev]))
        return _slice(draw, ev["summary"], tail=True) + "{" + \
            _slice(draw, json.dumps(ev["payload"], sort_keys=True)[1:], head=True)
    i = draw(st.sampled_from([i for i, ev in enumerate(events) if "payload" in ev]
                             or range(len(events))))
    hay = haystacks[i]
    start = draw(st.integers(0, len(hay)))
    return hay[start:draw(st.integers(start, len(hay)) | st.integers(start, start + 8))]


def _filters(events):
    return {"layer": st.sampled_from(RULE_LAYERS), "lan": st.sampled_from(LANS),
            "summary": _pattern(events), "src": st.sampled_from(HOSTS),
            "dst": st.sampled_from(HOSTS), "secured": st.booleans()}


def _kinds(events):
    """Each kind of rule but subsequence, with the fields it needs."""
    return [("count", {"equals": st.integers(0, 3)}),
            ("absent", {"pattern": _needle(events)}),
            ("locality", {"lans": st.lists(st.sampled_from(LANS), max_size=2)}),
            ("locality", {"via": st.sampled_from(HOSTS)})]


def _rules(events):
    filters = _filters(events)
    return st.lists(st.one_of(
        *(st.fixed_dictionaries({"kind": st.just(kind), **fields}, optional=filters)
          for kind, fields in _kinds(events)),
        # the needle's own event is selected, so a payload written otherwise
        # than json.dumps writes it shows
        st.fixed_dictionaries({"kind": st.just("absent"), "pattern": _needle(events)}),
        st.fixed_dictionaries(
            {"kind": st.just("subsequence"),
             "events": st.lists(st.tuples(st.sampled_from(("*",) + RULE_LAYERS),
                                          _pattern(events)).map(list), max_size=3)},
            optional={"lan": st.sampled_from(LANS)}),
    ), max_size=6)


@st.composite
def _shared_filter_rules(draw, events):
    """media_stream's shape: several count and locality rules on one layer
    with the same filter keys and different values, so that they share one
    index of each chunk's layer slice; sometimes on two layers, or one and
    none, whose indexes must stay apart."""
    filters = _filters(events)
    layers = [draw(st.sampled_from(RULE_LAYERS)), draw(st.sampled_from(RULE_LAYERS + (None,) * 3))]
    if events and draw(st.booleans()):   # a summary an event has, often glob-free
        filters["summary"] = st.sampled_from([ev["summary"] for ev in events])
    keys = draw(st.lists(st.sampled_from(("dst", "lan", "secured", "src", "summary")),
                         min_size=1, max_size=3, unique=True))
    shapes = [(kind, fields) for kind, fields in _kinds(events) if kind != "absent"]
    rules = []
    for kind, fields in draw(st.lists(st.sampled_from(shapes), min_size=2, max_size=8)):
        layer = draw(st.sampled_from(layers))
        rules.append({"kind": kind, **({} if layer is None else {"layer": layer}),
                      **{k: draw(filters[k]) for k in keys},
                      **{k: draw(v) for k, v in fields.items()}})
    return rules


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_engine_agrees_with_the_naive_oracle(data):
    events = data.draw(EVENTS)
    rules = data.draw(_rules(events) | _shared_filter_rules(events))
    chunk = data.draw(st.integers(1, len(events) + 1), label="chunk size")
    for rule in rules:
        validate_assertion(rule)
    want = [_oracle(events, rule) for rule in rules]
    with mock.patch.object(cli, "CHUNK_EVENTS", chunk):
        assert [evaluate_assertion(events, rule) for rule in rules] == want
        assert evaluate_all((ev for ev in events), rules) == want


def test_oracle_cases_the_engine_must_get_right():
    events = [_ev(0, "sys", "x", payload={"k": 1}), _ev(1, "sip", "a.b"),
              _ev(2, "sip", "[b]"), _ev(3, "media", "A(1)+"), _ev(4, "sys", "e", payload={})]
    for rule, ok in (
        ({"kind": "absent", "pattern": 'x{"k'}, False),        # summary then payload
        ({"kind": "absent", "pattern": '"k": 1'}, False),      # json.dumps spacing
        ({"kind": "absent", "pattern": "e{}"}, False),         # an empty payload counts
        ({"kind": "absent", "pattern": "A(1"}, False),         # a summary alone
        ({"kind": "absent", "pattern": '"k"'}, False),         # a payload alone
        ({"kind": "absent", "pattern": ""}, False),            # in every event
        ({"kind": "absent", "pattern": "x\na.b"}, True),       # across two summaries
        ({"kind": "absent", "pattern": "1}, "}, True),         # across two payloads
        ({"kind": "absent", "pattern": "1}, {}"}, True),
        ({"kind": "absent", "pattern": "A(1", "layer": "sys"}, True),
        ({"kind": "count", "summary": "a.b", "equals": 1}, True),
        ({"kind": "count", "summary": "a?b", "equals": 1}, True),
        ({"kind": "count", "summary": "a.c", "equals": 0}, True),
        ({"kind": "count", "summary": "[[]b]", "equals": 1}, True),
        ({"kind": "count", "summary": "[!a]*", "equals": 4}, True),
        ({"kind": "count", "summary": "a(1)+", "equals": 0}, True),   # case-sensitive
        ({"kind": "count", "summary": "A(1)+", "equals": 1}, True),
        ({"kind": "count", "layer": "oobe", "equals": 0}, True),
    ):
        assert _oracle(events, rule).ok is ok
        for chunk in (1, 2, 3, 512):
            with mock.patch.object(cli, "CHUNK_EVENTS", chunk):
                assert evaluate_all(events, [rule]) == [_oracle(events, rule)]
    # two selections made for one rule each, one after the other: the
    # second must be screened as itself, not as the first
    rules = [{"kind": "absent", "pattern": "k", "summary": "[ae]*"},
             {"kind": "absent", "pattern": "k", "summary": "x*"}]
    assert [v.ok for v in evaluate_all(events, rules)] == [True, False]
    assert evaluate_all(events, rules) == [_oracle(events, rule) for rule in rules]
    # a caller that bypasses the reader may pass a payload that is no dict,
    # whose json.dumps does not start with "{"
    odd = [_ev(0, "sys", "x", payload="abc"), _ev(1, "sys", "y", payload=[1])]
    rules = [{"kind": "absent", "pattern": 'x"a'}, {"kind": "absent", "pattern": "y[1"}]
    assert [v.ok for v in evaluate_all(odd, rules)] == [False, False]
    assert evaluate_all(odd, rules) == [_oracle(odd, rule) for rule in rules]
    # payloads the screen must not misread: a raw "\n" that json.dumps
    # escapes as \n, an int's runs, a bool it writes as true, the separators
    flat = [_ev(0, "sys", "v", payload={"v": "x\nCANARY:"}),
            _ev(1, "sip", "p", payload={"port": 5000}), _ev(2, "sys", "b", payload={"b": True}),
            _ev(3, "sys", "s", payload={"a": "b", "c": "d"}), _ev(4, "sys", "e", payload={})]
    for rule, ok in (
        ({"kind": "absent", "pattern": "nCANARY:"}, False),
        ({"kind": "absent", "pattern": "0}"}, False),
        ({"kind": "absent", "pattern": ": 5000"}, False),
        ({"kind": "absent", "pattern": "5000, "}, True),
        ({"kind": "absent", "pattern": "true"}, False),
        ({"kind": "absent", "pattern": '"port"'}, False),
        ({"kind": "absent", "pattern": "}", "summary": "[se]"}, False),
        ({"kind": "absent", "pattern": ", ", "summary": "s"}, False),
        ({"kind": "absent", "pattern": ": ", "summary": "s"}, False),
        ({"kind": "absent", "pattern": "d}", "summary": "s"}, True),
        ({"kind": "absent", "pattern": "b, c", "summary": "s"}, True),
    ):
        assert _oracle(flat, rule).ok is ok
        for chunk in (1, 2, 512):
            with mock.patch.object(cli, "CHUNK_EVENTS", chunk):
                assert evaluate_all(flat, [rule]) == [_oracle(flat, rule)]


# strings that json.dumps writes as they are, and ones with one character
# it writes otherwise: escaped, or non-ASCII
PLAIN_TEXT = st.text(alphabet="ab0:, }~-", max_size=4)
ODD_TEXT = st.builds(lambda head, odd, tail: head + odd + tail, PLAIN_TEXT,
                     st.sampled_from('"\\\n\x7f\x01\u00e9\U0001f600'), PLAIN_TEXT)
PLAIN_DICTS = st.dictionaries(PLAIN_TEXT, PLAIN_TEXT | st.integers(-300, 300), max_size=3)
ODD_SCALARS = ODD_TEXT | st.booleans() | st.none() | st.floats()
ANY_VALUES = st.recursive(
    PLAIN_TEXT | st.integers(-300, 300) | ODD_SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(PLAIN_TEXT, inner, max_size=2),
    max_leaves=3)


def _plain(payload) -> bool:
    """Whether the screen must take payload: a dict of plain keys, and of
    values that are plain strings or ints but no bool."""
    def plain(text):
        return all(" " <= c <= "~" and c not in '"\\' for c in text)
    return type(payload) is dict and all(
        plain(k) and (type(v) is int or type(v) is str and plain(v)) for k, v in payload.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_screen_holds_every_quote_free_run_of_each_haystack(data):
    """Every stretch of a haystack with neither "{" nor '"' lies in one of
    the screen's texts, whenever it gives texts; a selection of plain
    payloads always gets them. The payloads are plain but for one item, or
    one payload, at most."""
    events = data.draw(st.lists(st.builds(
        lambda summary, payload: _ev(0, "sys", summary, payload=payload),
        ODD_TEXT | st.just('{"'), st.none() | PLAIN_DICTS), max_size=4))
    dicts = [ev for ev in events if "payload" in ev]
    spoil = data.draw(st.sampled_from(("nothing", "item", "payload")))
    if spoil == "item" and dicts:
        ev = data.draw(st.sampled_from(dicts))
        key, value = data.draw(st.tuples(ODD_TEXT, PLAIN_TEXT | st.integers(-300, 300))
                               | st.tuples(PLAIN_TEXT, ODD_SCALARS | ANY_VALUES))
        ev["payload"] = {**ev["payload"], key: value}
    elif spoil == "payload" and events:
        data.draw(st.sampled_from(events))["payload"] = data.draw(ANY_VALUES.filter(
            lambda value: value is not None))
    texts = cli._screen(events)
    if texts is None:
        assert not all(_plain(ev["payload"]) for ev in events if "payload" in ev)
        return
    for ev in events:
        hay = ev["summary"] + (json.dumps(ev["payload"], sort_keys=True) if "payload" in ev else "")
        for run in re.split('[{"]', hay):
            assert run in texts[0] or run in texts[1], (run, hay, texts)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(payload=PAYLOAD_DICTS)
def test_absent_searches_each_payload_as_json_dumps_writes_it(payload):
    hay = "s" + json.dumps(payload, sort_keys=True)
    assert evaluate_all([_ev(0, "sys", "s", payload=payload)], [
        {"kind": "absent", "pattern": hay}, {"kind": "absent", "pattern": hay + "x"}]) == [
        Verdict("absent", False, f"{hay!r} present at seq=0 (sys s)"),
        Verdict("absent", True, f"{hay + 'x'!r} absent from 1 events")]


def test_absent_screens_plain_payloads_unencoded_and_others_event_by_event(monkeypatch):
    def payload(seq):   # plain strings and ints but at seq 5
        if seq == 5:
            return {"hex": f"{seq:04x}", "n": [seq, 1.5, None], "\u00e9": {}}
        return None if seq % 4 == 3 else {"hex": f"{seq:04x}", "n": -seq}
    events = [_ev(seq, ("sip", "media", "sys")[seq % 3], f"ev-{seq}", payload=payload(seq))
              for seq in range(11)]
    encoded, dumps = [], json.dumps   # the id of each payload encoded
    monkeypatch.setattr(json, "dumps",
                        lambda obj, **kw: encoded.append(id(obj)) or dumps(obj, **kw))
    monkeypatch.setattr(cli, "CHUNK_EVENTS", 4)
    chunks = [events[i:i + 4] for i in range(0, len(events), 4)]

    def ids(evs):
        return [id(ev["payload"]) for ev in evs if "payload" in ev]
    # plain selections, each screened once a chunk for the two rules over it,
    # settle each needle without an encoding
    plain = [ev for ev in events if ev["seq"] != 5]

    def build_encoder(*args, **kwargs):
        raise AssertionError("a JSON encoder was built while judging")
    with monkeypatch.context() as m:
        m.setattr(json.encoder, "c_make_encoder", build_encoder)
        m.setattr(json.JSONEncoder, "iterencode", build_encoder)
        assert evaluate_all(plain, [
            {"kind": "absent", "pattern": "never"},
            {"kind": "absent", "pattern": "also-never", "layer": "sip"},
            {"kind": "absent", "pattern": "nor-this"},
            {"kind": "absent", "pattern": "nor-that", "layer": "sip"}]) == [
            Verdict("absent", True, "'never' absent from 10 events"),
            Verdict("absent", True, "'also-never' absent from 4 events"),
            Verdict("absent", True, "'nor-this' absent from 10 events"),
            Verdict("absent", True, "'nor-that' absent from 4 events")]
    assert encoded == []
    # the chunk with a payload that is not plain is judged event by event,
    # to the end or up to the event that holds the needle, and that chunk alone
    assert evaluate_all(events, [{"kind": "absent", "pattern": "never"}]) == [
        Verdict("absent", True, "'never' absent from 11 events")]
    assert encoded == ids(chunks[1])
    encoded.clear()
    assert evaluate_all(events, [{"kind": "absent", "pattern": "0006"}]) == [
        Verdict("absent", False, "'0006' present at seq=6 (sip ev-6)")]
    assert encoded == ids(events[4:7])
    # a needle with '"' is searched for event by event in every chunk
    encoded.clear()
    assert evaluate_all(plain, [{"kind": "absent", "pattern": '"0002"'}]) == [
        Verdict("absent", False, "'\"0002\"' present at seq=2 (sys ev-2)")]
    assert encoded == ids(plain[:3])


# ---------------------------------------------------------------------------
# scenario loading and validation

def test_all_builtins_load_and_validate():
    seen = set()
    for name in BUILTINS:
        scn = load_scenario(name)
        assert scn["name"] == name
        assert scn.get("description")
        seen.add(name)
    assert len(seen) == 10


def test_load_from_path(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(json.dumps({"name": "mini"}))
    assert load_scenario(str(p))["name"] == "mini"


def test_unknown_name_and_bad_json_raise(tmp_path):
    with pytest.raises(ScenarioError, match="unknown scenario"):
        load_scenario("definitely-not-real")
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(p))
    p.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(p))


def test_validate_rejects_bad_shapes():
    for scn in (
        [],                                        # not an object
        {},                                        # no name
        {"name": "x", "topology": []},             # topology not an object
        {"name": "x", "actions": [{"op": "warp"}]},
        {"name": "x", "actions": [{"op": "refresh"}]},            # missing device
        {"name": "x", "actions": [{"op": "refresh", "device": "d", "at": -5}]},
        {"name": "x", "assertions": [{"kind": "count"}]},
        {"name": "x", "assertions": 5},
        {"name": "x", "actions": 5},
        {"name": "x", "assertions": [{"kind": "count", "summary": 7, "equals": 1}]},
        {"name": "x", "assertions": [{"kind": "count", "equals": True}]},
        {"name": 5},
        {"name": "x", "seed": 5},
        {"name": "x", "nickname": "y"},                     # unknown field
        {"name": "x", "topology": {"lans": 5}},
        {"name": "x", "topology": {"phones": []}},
        {"name": "x", "topology": {"lans": [{"name": "a", "prefix": "10.1.1",
                                             "nat": "no"}]}},
        {"name": "x", "topology": {"devices": [{"serial": "d", "state": "broken"}]}},
        {"name": "x", "topology": {"devices": [{"serial": "d", "frame_count": "6"}]}},
        {"name": "x", "topology": {"devices": [{"serial": "d", "answer_delay_ms": -1}]}},
        {"name": "x", "topology": {"devices": [{"serial": "d"}]},
         "actions": [{"op": "start_call", "device": "d", "callee": "tel:+1",
                      "call_type": "bogus"}]},
        {"name": "x", "topology": {"devices": [{"serial": "d"}]},
         "actions": [{"op": "refresh", "device": "d", "at": True}]},
        {"name": "x", "topology": {"lans": [{"name": "a", "prefix": "10.1.1"}],
                                   "wifi": [{"ssid": "n", "lan": "a",
                                             "passphrase": "short"}]}},
        {"name": "x", "topology": {"accounts": [{"id": "a", "password": "p"},
                                                {"id": "a", "password": "q"}]}},
        {"name": "x", "topology": {"devices": [{"serial": "EK-1", "host": "h1"},
                                               {"serial": "EK-1", "host": "h2"}]}},
        {"name": "x", "topology": {"lans": [{"name": "a", "prefix": "10.1.1"},
                                            {"name": "a", "prefix": "10.1.2"}]}},
        *({"name": "x", "topology": {"lans": [{"name": "a", "prefix": prefix}]}}
          for prefix in (5, "10.1", "10.1.1.1", "10.1.256", "10.01.1", "10.1.x", "10.1.1 ",
                         "١٠.1.1", "10.0.0", "192.168.11", "192.168.30")),
        {"name": "x", "topology": {"lans": [{"name": "a", "prefix": "10.1.1"},
                                            {"name": "b", "prefix": "10.1.1"}]}},
        {"name": "x", "topology": {"attackers": [{"name": "m", "kind": "eavesdropper"},
                                                 {"name": "m", "kind": "eavesdropper"}]}},
    ):
        with pytest.raises(ScenarioError):
            validate_scenario(scn)


def test_validate_scenario_checks_references():
    def broken(section, entry, **over):
        scn = _mini(**over)
        scn["topology"].setdefault(section, []).append(entry)
        return scn

    for scn, complaint in (
        (broken("clients", {"name": "ph", "account": "nobody", "wifi": "Net"}),
         "no account named 'nobody'"),
        (broken("attackers", {"name": "m", "kind": "gremlin"}), "unknown kind"),
        (broken("devices", {"serial": "d2", "state": "paired", "account": "a1",
                            "lan": "home-a", "registered_to": "a1"}),
         "registered_to"),
        (broken("devices", {"serial": "d2", "state": "paired", "account": "a1",
                            "lan": "no-such-lan"}), "no LAN named 'no-such-lan'"),
        (broken("devices", {"serial": "d2", "registered_to": "nobody"}),
         "no account named 'nobody'"),
        (broken("devices", {"serial": "d2", "visible_wifi": ["Gone"]}),
         "no Wi-Fi network named 'Gone'"),
        (broken("wifi", {"ssid": "Net", "lan": "nowhere", "passphrase": "longenough"}),
         "no LAN named 'nowhere'"),
        (broken("attackers", {"name": "m", "kind": "hijacker", "account": "a1",
                              "uplink": "cell"}), "no LAN named 'cell'"),
        (broken("attackers", {"name": "m", "kind": "hijacker"}), "missing 'account'"),
        (broken("attackers", {"name": "m", "kind": "eavesdropper"},
                actions=[{"op": "tap_pairing", "attacker": "x",
                          "device": "EK-TEST-0009"}]), "no attacker named 'x'"),
        (_mini(actions=[{"op": "start_pairing", "client": "ph",
                         "device": "EK-TEST-0009"}]), "no client named 'ph'"),
        (_mini(actions=[{"op": "refresh", "device": "ghost"}]),
         "no device named 'ghost'"),
        (broken("accounts", {"id": "a1", "password": "other"}),
         r"scenario 'mini' accounts\[1\]: duplicate account 'a1'"),
        (broken("devices", {"serial": "EK-TEST-0009", "host": "box2"}),
         r"devices\[1\]: duplicate device 'EK-TEST-0009'"),
    ):
        with pytest.raises(ScenarioError, match=complaint):
            validate_scenario(scn)
    # the fabric's own LAN may be named without being declared
    scn = broken("clients", {"name": "ph", "account": "a1", "wifi": "Net",
                             "lan": "cloud"})
    scn["topology"]["wifi"] = [{"ssid": "Net", "lan": "home-a",
                                "passphrase": "longenough"}]
    validate_scenario(scn)


# ---------------------------------------------------------------------------
# running inline scenarios

def _mini(name="mini", **over):
    scn = {
        "name": name,
        "seed": "mini-seed",
        "topology": {
            "lans": [{"name": "home-a", "prefix": "192.168.77", "nat": True}],
            "accounts": [{"id": "a1", "password": "pw-one"}],
            "devices": [{"serial": "EK-TEST-0009", "host": "box",
                         "state": "paired", "account": "a1", "lan": "home-a"}],
        },
        "actions": [],
        "assertions": [],
    }
    scn.update(over)
    return scn


def test_run_scenario_passes_and_traces():
    result = run_scenario(_mini())
    assert result.exit_code == 0
    assert result.seed == "mini-seed"
    events = trace_events(result.world.network)
    assert events and result.jsonl.endswith("\n")
    dev = result.world.devices["EK-TEST-0009"]
    assert dev.setup is None and dev.grant is not None
    # jsonl lines parse back to the event dicts
    lines = [json.loads(l) for l in result.jsonl.splitlines()]
    assert lines == events


def test_a_run_encodes_each_payload_once_when_it_is_recorded(monkeypatch):
    encoded, lines = [], []
    chunks, to_json = netsim._payload_chunks, TraceEvent.to_json
    monkeypatch.setattr(netsim, "_payload_chunks",
                        lambda payload, level: encoded.append(payload) or chunks(payload, level))
    monkeypatch.setattr(TraceEvent, "to_json", lambda ev: lines.append(ev) or to_json(ev))
    result = run_scenario(load_scenario("pair"))
    # run_scenario reads each recorded line once
    assert lines == result.world.network.trace.events
    # the payload of each unsecured event that has one, and no other
    events = trace_events(result.world.network)
    assert len(encoded) == sum("payload" in ev for ev in events) > 0
    assert not any(ev["secured"] and "payload" in ev for ev in events)
    encoded.clear()
    assert result.jsonl and encoded == []   # joining the lines encodes nothing


def test_run_scenario_judges_the_recorded_lines_without_joining_them(monkeypatch):
    results = [run_scenario(load_scenario(name)) for name in BUILTINS]

    def refuse(log):
        raise AssertionError("the trace was joined")
    monkeypatch.setattr(TraceLog, "jsonl", refuse)
    for name, before in zip(BUILTINS, results):
        after = run_scenario(load_scenario(name))
        assert (after.exit_code, after.verdicts) == (before.exit_code, before.verdicts), name


def test_a_run_result_holds_no_trace_text():
    result = run_scenario(load_scenario("pair"))
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(RunResult)}
    assert "jsonl" not in fields and "events" not in fields
    assert not any(isinstance(val, str) and '"seq":' in val for val in fields.values())
    assert result.jsonl == result.world.network.trace.jsonl()


def test_readme_trace_example_is_an_event_of_the_pair_trace():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Traces", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    [event] = iter_jsonl(example.split("\n"))
    result = run_scenario(load_scenario("pair"))
    assert event in trace_events(result.world.network)
    assert example.strip() in result.jsonl.split("\n")   # as the trace writes it


def test_run_scenario_failing_assertion_exits_1():
    scn = _mini(assertions=[{"kind": "count", "layer": "sip",
                             "summary": "no-such-thing", "equals": 9}])
    result = run_scenario(scn)
    assert result.exit_code == 1
    assert not result.verdicts[0].ok


def test_run_scenario_seed_override_beats_file_seed():
    a = run_scenario(_mini())
    b = run_scenario(_mini(), seed="different")
    assert b.seed == "different"
    # everything here rides secured channels, so the trace itself is
    # seed-blind; the minted key material is not
    ka = a.world.devices["EK-TEST-0009"].identity.to_dict()
    kb = b.world.devices["EK-TEST-0009"].identity.to_dict()
    assert ka != kb


@pytest.mark.parametrize("section, entries, complaint", [
    ("devices", [{"serial": "EK-TEST-0010", "host": "box"}],
     r"devices\[1\] host: 'box' is also devices\[0\] host"),
    # two serials that end alike get the same default host, echo-0042
    ("devices", [{"serial": "EK-A-0042"}, {"serial": "EK-B-0042"}],
     r"devices\[2\] host: 'echo-0042' is also devices\[1\] host"),
    ("clients", [{"name": "api", "account": "a1", "wifi": "n"}],
     r"clients\[0\] name: 'api' is also a cloud host"),
    ("attackers", [{"name": "box", "kind": "eavesdropper"}],
     r"attackers\[0\] name: 'box' is also devices\[0\] host"),
])
def test_a_host_name_used_twice_names_the_field(section, entries, complaint):
    scn = _mini()
    scn["topology"]["wifi"] = [{"ssid": "n", "lan": "home-a", "passphrase": "long-enough"}]
    scn["topology"].setdefault(section, []).extend(entries)
    with pytest.raises(ScenarioError, match=complaint):
        run_scenario(scn)


def test_setup_errors_raise_scenario_error():
    scn = _mini()   # one host more than a LAN holds
    scn["topology"]["wifi"] = [{"ssid": "n", "lan": "home-a", "passphrase": "long-enough"}]
    scn["topology"]["clients"] = [{"name": f"phone-{i}", "account": "a1", "wifi": "n",
                                   "lan": "home-a"} for i in range(HOSTS_PER_LAN)]
    with pytest.raises(ScenarioError, match="setup failed: LAN home-a is full"):
        run_scenario(scn)
    scn2 = _mini(actions=[{"op": "refresh", "device": "ghost"}])
    with pytest.raises(ScenarioError, match="no device named"):
        run_scenario(scn2)


def test_runtime_action_error_exits_2_with_partial_trace():
    scn = _mini()
    scn["topology"]["devices"][0] = {"serial": "EK-TEST-0009", "host": "box",
                                     "state": "factory"}
    scn["actions"] = [{"at": 0, "op": "enter_setup", "device": "EK-TEST-0009"},
                      {"at": 5, "op": "refresh", "device": "EK-TEST-0009"}]
    result = run_scenario(scn)
    assert result.exit_code == 2
    assert "no voice-service session" in result.error
    assert trace_events(result.world.network)  # what ran before the error survived


def test_start_pairing_without_setup_mode_is_a_runtime_error():
    scn = _mini()
    scn["topology"]["devices"][0] = {"serial": "EK-TEST-0009", "host": "box",
                                     "state": "factory"}
    scn["topology"]["wifi"] = [{"ssid": "Net", "lan": "home-a",
                                "passphrase": "longenough"}]
    scn["topology"]["clients"] = [{"name": "ph", "account": "a1", "wifi": "Net"}]
    scn["actions"] = [{"at": 5, "op": "start_pairing", "client": "ph",
                       "device": "EK-TEST-0009"}]
    result = run_scenario(scn)
    assert result.exit_code == 2
    assert "not in setup mode" in result.error


@pytest.mark.parametrize("op", ["end_call", "refresh", "start_call"])
def test_a_session_action_without_a_voice_session_names_the_action(op):
    scn = load_scenario("call_pstn")
    act = {"at": 0, "op": op, "device": "EK-KITCH-0001"}
    if op == "start_call":
        act["callee"] = "tel:+15551230100"
    scn["actions"].insert(0, act)
    result = run_scenario(scn)
    assert result.exit_code == 2
    assert result.error == (f"ScenarioError: action[0] {op}: EK-KITCH-0001 "
                            "has no voice-service session")


PRECONDITIONS = [   # each op with a precondition, and what a factory-fresh device lacks
    ("connect_avs", "has no registration grant"),
    ("replay_negotiation", "has no captured hello"),
    ("start_pairing", "is not in setup mode"),
    ("tap_pairing", "is not in setup mode"),
    ("start_call", "has no voice-service session"),
    ("end_call", "has no voice-service session"),
    ("refresh", "has no voice-service session"),
]


def test_every_op_with_a_precondition_is_checked():
    assert {op for op, _ in PRECONDITIONS} == {op for op, spec in cli.OPS.items() if spec.holds}


@pytest.mark.parametrize("op,lacks", PRECONDITIONS)
def test_an_avs_action_on_a_factory_device_names_the_action(op, lacks):
    extra = {"start_pairing": {"client": "ph"}, "tap_pairing": {"attacker": "eve"},
             "start_call": {"callee": "tel:+15551230100"}}.get(op, {})
    scn = _mini(actions=[{"at": 5, "op": op, "device": "EK-TEST-0010", **extra}])
    topo = scn["topology"]
    topo["devices"].append({"serial": "EK-TEST-0010", "host": "box2"})
    topo["wifi"] = [{"ssid": "Net", "lan": "home-a", "passphrase": "longenough"}]
    topo["clients"] = [{"name": "ph", "account": "a1", "wifi": "Net"}]
    topo["attackers"] = [{"name": "eve", "kind": "eavesdropper"}]
    result = run_scenario(scn)
    assert result.exit_code == 2
    assert result.error == f"ScenarioError: action[0] {op}: EK-TEST-0010 {lacks}"


def test_validate_refuses_a_paired_device_on_an_isolated_lan():
    scn = _mini()
    scn["topology"]["lans"].append({"name": "lab", "prefix": "10.9.9", "isolated": True})
    scn["topology"]["devices"].append({"serial": "EK-TEST-0010", "host": "box2",
                                       "state": "paired", "account": "a1", "lan": "lab"})
    with pytest.raises(ScenarioError,
                       match=r"scenario 'mini' devices\[1\]: 'lan' 'lab' is isolated"):
        validate_scenario(scn)


def test_a_second_tap_by_the_same_attacker_is_a_no_op():
    scn = load_scenario("pair_eavesdrop")
    tap = next(a for a in scn["actions"] if a["op"] == "tap_pairing")
    scn["actions"].append({**tap, "at": tap["at"] + 1})
    result = run_scenario(scn)
    assert result.error is None and result.exit_code == 0
    assert result.jsonl == run_scenario(load_scenario("pair_eavesdrop")).jsonl


def test_world_builds_reproducibly_with_distinct_keys():
    scn = _mini()
    scn["topology"]["devices"].append({
        "serial": "EK-EXTRA-0001", "host": "extra", "state": "paired",
        "account": "a1", "lan": "home-a"})
    one = run_scenario(scn)
    two = run_scenario(scn)
    for serial in ("EK-TEST-0009", "EK-EXTRA-0001"):
        assert (one.world.devices[serial].identity.to_dict()
                == two.world.devices[serial].identity.to_dict())
    assert (one.world.devices["EK-TEST-0009"].identity.to_dict()
            != one.world.devices["EK-EXTRA-0001"].identity.to_dict())


# ---------------------------------------------------------------------------
# command line

def test_cli_run_writes_trace_and_exits_0(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    code = main(["run", "pair", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert trace.exists() and trace.read_text().count("\n") > 50
    assert "PASS subsequence" in out
    assert "assertions=6/6" in out


def test_cli_run_writes_the_lines_run_scenario_judged(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ECHO_TESTBED_SEED", raising=False)
    trace = tmp_path / "out.jsonl"
    assert main(["run", "call_cross_lan_fork", "--trace", str(trace)]) == 0
    assert trace.read_bytes() == run_scenario(load_scenario("call_cross_lan_fork")).jsonl.encode()


def test_cli_run_unknown_scenario_exits_2(capsys):
    assert main(["run", "not-a-thing"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_refuses_a_scenario_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read (")


def test_cli_run_refuses_a_lan_named_as_the_cloud_lan(tmp_path, capsys):
    # the cloud LAN is no topology entry, so only building the world finds the clash
    scn = _mini(topology={**_mini()["topology"],
                          "lans": [{"name": "cloud", "prefix": "192.168.77"}]})
    scn["topology"]["devices"][0]["lan"] = "cloud"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err == "error: mini: setup failed: duplicate LAN cloud\n"


def test_cli_list_names_all_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


def test_cli_explain_known_and_unknown(capsys):
    assert main(["explain", "token_reuse"]) == 0
    out = capsys.readouterr().out
    assert "replay_invite" in out and "assertions" in out
    assert main(["explain", "nope"]) == 2


def test_cli_assert_on_saved_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(["run", "avs_handshake", "--trace", str(trace)])
    capsys.readouterr()
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([
        {"kind": "count", "layer": "control", "summary": "System.Refresh",
         "equals": 1}]))
    assert main(["assert", str(trace), str(rules)]) == 0
    rules.write_text(json.dumps(
        {"assertions": [{"kind": "count", "layer": "control",
                         "summary": "System.Refresh", "equals": 7}]}))
    assert main(["assert", str(trace), str(rules)]) == 1
    rules.write_text("{broken")
    assert main(["assert", str(trace), str(rules)]) == 2
    capsys.readouterr()
    # an object without "assertions" is refused, not judged as no rules
    rules.write_text(json.dumps({"assertion": [{"kind": "count", "equals": 999}]}))
    assert main(["assert", str(trace), str(rules)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and '"assertions"' in err


@pytest.mark.parametrize("rules", ["7", "true", "null"])
def test_cli_assert_refuses_an_assertions_file_that_is_no_list(tmp_path, capsys, rules):
    trace, path = tmp_path / "t.jsonl", tmp_path / "rules.json"
    trace.write_bytes(b"")
    path.write_text(rules)
    assert main(["assert", str(trace), str(path)]) == 2
    assert capsys.readouterr().err == "error: assertions file: expected a list\n"


def test_cli_seed_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    t1, t2, t3, t4 = (tmp_path / f"t{i}.jsonl" for i in range(4))
    monkeypatch.setenv("ECHO_TESTBED_SEED", "env-seed")
    main(["run", "pair", "--trace", str(t1)])
    main(["run", "pair", "--trace", str(t2)])
    assert t1.read_bytes() == t2.read_bytes()
    main(["run", "pair", "--trace", str(t3), "--seed", "cli-seed"])
    assert t3.read_bytes() != t1.read_bytes()
    monkeypatch.delenv("ECHO_TESTBED_SEED")
    main(["run", "pair", "--trace", str(t4), "--seed", "env-seed"])
    capsys.readouterr()
    assert t4.read_bytes() == t1.read_bytes()


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("scn", [
    pytest.param(_mini(assertions=5), id="assertions-int"),
    pytest.param(_mini(actions=5), id="actions-int"),
    pytest.param(_mini(assertions=[{"kind": "count", "summary": 7, "equals": 1}]),
                 id="summary-int"),
    pytest.param(_mini(actions=[{"op": "start_call", "device": "EK-TEST-0009",
                                 "callee": "tel:+15551230100", "call_type": "bogus"}]),
                 id="call-type-bogus"),
    pytest.param(_mini(topology={"lans": [{"name": "home-a", "prefix": "192.168.77",
                                           "nat": "no"}]}), id="nat-string"),
    pytest.param(_mini(assertions=[{"kind": "count", "equals": True}]), id="equals-bool"),
    pytest.param(_mini(topology={"accounts": [{"id": "a", "password": "p"},
                                              {"id": "a", "password": "q"}]}),
                 id="duplicate-account"),
    pytest.param(_mini(topology={"devices": [{"serial": "EK-1", "host": "h1"},
                                             {"serial": "EK-1", "host": "h2"}]}),
                 id="duplicate-serial"),
])
def test_cli_run_refuses_an_invalid_scenario(tmp_path, capsys, scn):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: scenario")
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("value, complaint", [
    ("192.168.50", "'prefix' '192.168.50' is used by LAN 'home-a'"),
    ("10.0.0", "'prefix' '10.0.0' is used by the cloud LAN"),
    ("192.168.11", "'prefix' '192.168.11' is used by setup networks"),
    ("pair:Amazon-001", "'name' 'pair:Amazon-001' is reserved for setup networks"),
    ("192.168.300", "'prefix' must be three dot-separated decimal octets 0-255"),
])
def test_cli_run_refuses_a_prefix_two_lans_would_share(tmp_path, capsys, value, complaint):
    # two NAT'd homes on one prefix once ran: the callee took the caller's
    # address for one on its own LAN, so no media frame reached the relay;
    # a LAN named as a setup network would clash with one when it opened.
    # The complaint names the field that value is set in.
    scn = load_scenario("call_cross_lan_fork")
    scn["topology"]["lans"][1][complaint.split("'")[1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert f"lans[1]: {complaint}" in capsys.readouterr().err


EVENT = (b'{"dst":"b","lan":"home-a","layer":"sip","secured":false,"seq":0,'
         b'"src":"a","summary":"INVITE","t_ms":0}')


@pytest.mark.parametrize("trace, line", [
    pytest.param(b"5\n", 1, id="number"),
    pytest.param(b"[1,2]\n", 1, id="list"),
    pytest.param(b'{"layer":"sip","summary":7}\n', 1, id="int-summary"),
    pytest.param(b"\xff\xfe", 1, id="not-utf8"),
    pytest.param(EVENT + b"\n\n5\n", 3, id="number-after-blank"),
    pytest.param(EVENT + b"\n" + EVENT + b"\xff\n", 2, id="not-utf8-line-2"),
    pytest.param(EVENT + b"\n" + EVENT.replace(b'"seq":0', b'"seq":true') + b"\n", 2,
                 id="bool-seq"),
    pytest.param(EVENT.replace(b'"layer":"sip"', b'"layer":"smtp"') + b"\n", 1,
                 id="unknown-layer"),
    pytest.param(EVENT.replace(b"}", b',"extra":1}') + b"\n", 1, id="extra-field"),
    pytest.param(EVENT.replace(b"}", b',"payload":[1]}') + b"\n", 1, id="list-payload"),
    pytest.param(EVENT[:-5] + b"\n", 1, id="truncated"),
    pytest.param(EVENT + b"\n" + b"[" * 100_000 + b"]" * 100_000, 2, id="nested-too-deeply"),
])
@pytest.mark.parametrize("rule", [
    pytest.param({"kind": "count", "equals": 1}, id="count"),
    pytest.param({"kind": "count", "layer": "sip", "equals": 1}, id="count-layer"),
])
def test_cli_assert_rejects_malformed_trace_lines(tmp_path, capsys, trace, line, rule):
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"
    path.write_bytes(trace)
    rules.write_text(json.dumps([rule]))
    assert main(["assert", str(path), str(rules)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_cli_assert_accepts_a_well_formed_trace(tmp_path):
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"
    path.write_bytes(EVENT + b"\n\n" + EVENT.replace(b"}", b',"payload":{"a":1}}'))
    rules.write_text(json.dumps([{"kind": "count", "layer": "sip", "equals": 2}]))
    assert main(["assert", str(path), str(rules)]) == 0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
def test_cli_assert_names_the_line_of_an_integer_too_long_to_convert(tmp_path, capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError) as exc:
        int(digits)
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"
    path.write_bytes(EVENT + b"\n" + EVENT.replace(b'"seq":0', b'"seq":' + digits.encode()))
    rules.write_text(json.dumps([{"kind": "count", "equals": 2}]))
    assert main(["assert", str(path), str(rules)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: not JSON ({exc.value})\n"


def _reader_before_the_fast_path(lines):
    """iter_jsonl as it was when every line went through json.loads, for
    the property test below; it differs from today's only on an integer
    too long to convert, which that test does not draw."""
    for lineno, line in enumerate(lines, 1):
        if type(line) is bytes:
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"line {lineno}: not UTF-8") from None
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not JSON ({exc.msg})") from None
        except RecursionError:
            raise ValueError(f"line {lineno}: nested too deeply") from None
        try:
            ok = (type(ev["seq"]) is type(ev["t_ms"]) is int
                  and type(ev["secured"]) is bool and ev["layer"] in netsim.TRACE_LAYERS
                  and type(ev["src"]) is type(ev["dst"]) is str
                  and type(ev["lan"]) is type(ev["summary"]) is str
                  and (len(ev) == 8 or len(ev) == 9 and type(ev.get("payload")) is dict))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise ValueError(f"line {lineno}: not a trace event")
        yield ev


READER_LINES = (EVENT, EVENT.replace(b"}", b',"payload":{"a":[1.5,{"b":"\\u00e9"}]}}'),
                EVENT.replace(b'"INVITE"', '"café  "'.encode()))
# each turns one well-formed line into what a damaged or hand-edited trace holds
READER_MUTATIONS = {
    "as-is": lambda line: line,
    "trailing-json-whitespace": lambda line: line + b" \t\r",
    "trailing-vertical-tab": lambda line: line + b"\x0b",
    "trailing-no-break-space": lambda line: line + " ".encode(),
    "crlf": lambda line: line + b"\r",
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "leading-space": lambda line: b" " + line,
    "two-objects": lambda line: line + line,
    "two-objects-spaced": lambda line: line + b" " + line,
    "deep": lambda line: line.replace(b'"t_ms":0', b'"t_ms":' + b"[" * 50_000 + b"]" * 50_000),
    "nan": lambda line: line.replace(b"}", b',"payload":{"x":NaN,"y":-Infinity}}'),
    "duplicate-key": lambda line: line.replace(b'"seq":0', b'"seq":"x","seq":0'),
    "duplicate-key-wrong-last": lambda line: line.replace(b'"seq":0', b'"seq":0,"seq":"x"'),
    "blank": lambda line: b"",
    "whitespace-only": lambda line: b" \t\x0b\x0c\r",
    "not-utf8": lambda line: line[:9] + b"\xff" + line[9:],
    "cut": lambda line: line[:-3],
}


def _outcome(read, lines):
    try:
        return repr(list(read(lines)))   # repr, since NaN != NaN
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(READER_LINES), st.sampled_from(
    sorted(READER_MUTATIONS))).map(lambda pick: READER_MUTATIONS[pick[1]](pick[0])),
    max_size=5), final_newline=st.booleans())
def test_reader_agrees_with_the_reader_before_the_fast_path(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    # as `assert` reads a file, and as `run` reads its own lines
    assert _outcome(iter_jsonl, io.BytesIO(data)) == \
        _outcome(_reader_before_the_fast_path, io.BytesIO(data))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert _outcome(iter_jsonl, text.split("\n")) == \
        _outcome(_reader_before_the_fast_path, text.split("\n"))


# ---------------------------------------------------------------------------
# no input gives a traceback: random damage to the built-ins and to traces

BUILTIN_SCENARIOS = [load_scenario(name) for name in BUILTINS]
ODD_VALUES = (None, 0, -1, 5, 2**70, 1.5, True, "", "x", "a b", "\u00e9", [], [1], {}, {"a": 1})


def _slots(node):
    """Every (container, key) pair that holds a value, depth first."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def damaged(draw, originals):
    """A deep copy of one of originals with one to three random faults: a
    key or list item deleted, a value set from ODD_VALUES or copied in from
    elsewhere in the same copy, or a string renamed."""
    root = copy.deepcopy(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(root))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(("set", "copy", "delete", "rename")))
        if how == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif how == "copy":
            other, other_key = draw(st.sampled_from(slots))
            parent[key] = copy.deepcopy(other[other_key])
        elif how == "delete":
            del parent[key]
        elif isinstance(parent[key], str):
            # a renamed LAN, account, device... leaves its referents dangling
            parent[key] += "-renamed"
    return root


def _edited(name: str, value, *path):
    """Built-in name with the value at path set to value."""
    scn = load_scenario(name)
    node = scn
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return scn


# a callee or serial the SIP writer refuses once escaped as a traceback
SIP_REFUSED = [
    pytest.param(_edited("call_cross_lan_fork", value, "actions", 0, "callee"), "'callee'",
                 id=f"callee-{value!r}") for value in ("", "a b", "\u00e9")] + [
    pytest.param(json.loads(json.dumps(load_scenario(name)).replace("EK-KITCH-0001", "\u00e9")),
                 "devices[0]: 'serial'", id=f"{name}-serial-renamed")
    for name in ("pair", "intercom_same_lan", "avs_handshake")] + [
    pytest.param(_edited("call_cross_lan_fork", "a b", "topology", "devices", 1, "serial"),
                 "devices[1]: 'serial'", id="call_cross_lan_fork-serial-a-b")]


@pytest.mark.parametrize("scn, field", SIP_REFUSED)
def test_cli_run_refuses_a_serial_or_callee_no_sip_uri_carries(tmp_path, capsys, scn, field):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert (f"{field} must be a non-empty string of printable ASCII without whitespace"
            in capsys.readouterr().err)


def run_never_raises(tmp_path_factory, scn) -> None:
    work = tmp_path_factory.mktemp("run")
    path = work / "scenario.json"
    path.write_text(json.dumps(scn))
    assert main(["run", str(path), "--trace", str(work / "t.jsonl")]) in (0, 1, 2)


# about 2 s here; CI also runs it long, in tests/fuzz_scenarios.py
@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scn=damaged(BUILTIN_SCENARIOS))
@example(scn=_edited("call_cross_lan_fork", "", "actions", 0, "callee"))
@example(scn=_edited("call_cross_lan_fork", "a b", "actions", 0, "callee"))
@example(scn=_edited("call_cross_lan_fork", "\u00e9", "actions", 0, "callee"))
@example(scn=_edited("intercom_same_lan", "\u00e9", "topology", "devices", 1, "serial"))
@example(scn=_edited("call_cross_lan_fork", "a b", "topology", "devices", 1, "serial"))
def test_cli_run_never_raises_on_damaged_scenarios(tmp_path_factory, scn):
    run_never_raises(tmp_path_factory, scn)


def _trace_line(event_text: str):
    event = json.loads(event_text)
    garbage = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=6)
    bad_field = st.builds(lambda key, value: json.dumps({**event, key: value}),
                          st.sampled_from(sorted(event)), garbage)
    return st.one_of(st.just(event_text), bad_field, garbage.map(json.dumps),
                     st.text(max_size=20)).map(str.encode) | st.binary(max_size=20)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lines=st.lists(_trace_line(EVENT.decode()), max_size=6),
       rules=damaged([scn["assertions"] for scn in BUILTIN_SCENARIOS]))
def test_cli_assert_never_raises_on_damaged_traces(tmp_path_factory, lines, rules):
    work = tmp_path_factory.mktemp("assert")
    trace, rules_path = work / "t.jsonl", work / "rules.json"
    trace.write_bytes(b"\n".join(lines))
    rules_path.write_text(json.dumps(rules))
    assert main(["assert", str(trace), str(rules_path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# `assert` reads the trace as a stream

def test_cli_assert_judges_nothing_before_the_last_line_passes(tmp_path, capsys, monkeypatch):
    # both rules are settled by the first event, in the first of three chunks
    monkeypatch.setattr(cli, "CHUNK_EVENTS", 1)
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"
    path.write_bytes(EVENT + b"\n" + EVENT + b"\n" + EVENT[:-5] + b"\n")
    rules.write_text(json.dumps([{"kind": "absent", "pattern": "INVITE"},
                                 {"kind": "subsequence", "events": [["sip", "INVITE"]]}]))
    assert main(["assert", str(path), str(rules)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 3: not JSON" in err


def test_cli_assert_judges_a_payload_as_deep_as_the_reader_takes(tmp_path, capsys):
    """A needle with "{" is searched for event by event; one without is
    first looked for in a screen, which a nested payload does not get, so
    it is searched for event by event too. At the deepest payload the first
    is judged at, found by probing, the others must be judged too, and alike."""
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"

    def judge(depth, needle):
        path.write_text('{"dst":"b","lan":"l","layer":"sys","payload":' + '{"k":' * depth
                        + "{}" + "}" * depth + ',"secured":false,"seq":0,"src":"a",'
                        '"summary":"s","t_ms":0}\n')
        rules.write_text(json.dumps([{"kind": "absent", "pattern": needle}]))
        code = main(["assert", str(path), str(rules)])
        return code, capsys.readouterr().out

    lo, hi = 0, sys.getrecursionlimit()   # judged at lo, refused at hi
    assert judge(lo, "{never")[0] == 0 and judge(hi, "{never")[0] == 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if judge(mid, "{never")[0] == 0 else (lo, mid)
    assert judge(lo, "never") == (0, "PASS absent: 'never' absent from 1 events\n")
    assert judge(lo, '"k"') == (1, "FAIL absent: '\"k\"' present at seq=0 (sys s)\n")


@pytest.mark.parametrize("trace, code, complaint", [
    # whitespace between tokens: one valid event, as split("\n") reads it
    pytest.param(EVENT.replace(b',"src"', b',\r"src"') + b"\n", 0, "", id="between-tokens"),
    pytest.param(EVENT + b"\n" + EVENT.replace(b'"INVITE"', b'"INV\rITE"') + b"\n" + b"5\n",
                 2, "line 2: not JSON (Invalid control character at)", id="inside-a-string"),
])
def test_cli_assert_splits_lines_on_newline_alone(tmp_path, capsys, trace, code, complaint):
    path, rules = tmp_path / "t.jsonl", tmp_path / "rules.json"
    path.write_bytes(trace)
    rules.write_text(json.dumps([{"kind": "count", "layer": "sip", "equals": 1}]))
    assert main(["assert", str(path), str(rules)]) == code
    assert complaint in capsys.readouterr().err


def _assert_peak_bytes(tmp_path, n_events: int) -> int:
    path, rules = tmp_path / f"t{n_events}.jsonl", tmp_path / "rules.json"
    log = TraceLog()
    for seq in range(n_events):
        log.record(seq, "a", "relay" if seq % 3 else "b", f"lan-{seq % 4}", False,
                   ("sip", "media", "sys")[seq % 3], f"ev-{seq}", {"hex": f"{seq:064x}"})
    path.write_text(log.jsonl(), encoding="utf-8")
    del log
    # every kind, each with state that could grow with the trace
    rules.write_text(json.dumps([
        {"kind": "count", "layer": "media", "equals": 1},
        {"kind": "absent", "pattern": "never"},
        {"kind": "absent", "pattern": "also-never", "layer": "sip"},
        {"kind": "locality", "lans": ["lan-0"]},
        {"kind": "locality", "layer": "sys", "via": "nowhere"},
        {"kind": "subsequence", "events": [["sip", "ev-0"], ["*", "never"]]},
    ]))
    tracemalloc.start()
    try:
        assert main(["assert", str(path), str(rules)]) == 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_assert_memory_does_not_grow_with_the_trace(tmp_path, capsys):
    small = _assert_peak_bytes(tmp_path, 5_000)
    large = _assert_peak_bytes(tmp_path, 50_000)
    assert large < 1.25 * small, (small, large)
