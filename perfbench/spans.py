"""In-memory span tracer and the instrumentation of the traced run.

Tracing lives entirely in the benchmark: `instrument` swaps wrappers in
for the program's public functions and methods, from outside, and puts the
originals back when it exits. A span is [name, start, end, parent, value,
rejected]; `value` carries bytes for the codecs and SRTP, `rejected` marks
a failed verification or a dropped media packet.

Span names are categories, such as "wire.sip" or "crypto.verify". A call
into a category from outside it is an entry: `calls` counts entries and
`s` is their inclusive time, so a codec calling itself is counted once.
Self time is a span's duration minus that of its direct children.

Callables the fabric invokes (scheduled callbacks, channel handlers, close
callbacks, accept callbacks and taps) get a span named after the module that defines
them, for example "device.handler"; their self time is the module's own
share of the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from echo_testbed import cli, crypto, netsim, wire

NAME, START, END, PARENT, VALUE, REJECTED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open = -1   # index of the innermost open span

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording one span per call.

        observe(args, result, failed) returns (value, rejected) for the span.
        """
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open
            rec = [name, 0.0, 0.0, parent, 0, 0]
            tracer._open = len(spans)
            spans.append(rec)
            result, failed = None, True
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                rec[END] = clock()
                tracer._open = parent
                if observe is not None:
                    rec[VALUE], rec[REJECTED] = observe(args, result, failed)
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: entries, their inclusive time, self time, all spans,
    and the value and rejections summed over entries."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "spans": 0, "value": 0, "rejected": 0})
    for rec, own in zip(spans, self_times(spans)):
        row = out[rec[NAME]]
        row["spans"] += 1
        row["self_s"] += own
        parent = rec[PARENT]
        if parent < 0 or spans[parent][NAME] != rec[NAME]:
            row["calls"] += 1
            row["s"] += rec[END] - rec[START]
            row["value"] += rec[VALUE]
            row["rejected"] += rec[REJECTED]
    return out


# ---------------------------------------------------------------------------
# What gets wrapped

def _in_bytes(args, result, failed):
    return (len(args[0]) if isinstance(args[0], bytes) else 0), 0


def _out_bytes(args, result, failed):
    return (len(result) if isinstance(result, bytes) else 0), 0


def _verdict(args, result, failed):
    return 0, int(failed or result is False)


def _srtp_in(args, result, failed):
    return len(args[1]), int(failed)


def _srtp_out(args, result, failed):
    return (0 if failed else len(result)), 0


MODULE_FUNCTIONS = {
    wire: {
        "wire.http": {"http_parse": _in_bytes, "http_serialize": _out_bytes,
                      "oobe_encode": None, "api_encode": None, "oobe_decode": None,
                      "api_decode": None, "oobe_response": None,
                      "oobe_decode_response": None},
        "wire.sip": {"sip_parse": _in_bytes, "sip_serialize": _out_bytes},
        "wire.sdp": {"sdp_decode": _in_bytes, "sdp_encode": _out_bytes},
        "wire.control": {"control_decode": _in_bytes, "control_encode": _out_bytes},
    },
    crypto: {
        "crypto.keygen": {"keygen": None},
        "crypto.sign": {"sign_detached": None},
        "crypto.verify": {"verify_detached": _verdict, "verify_certificate": _verdict,
                          "verify_call_token": _verdict, "open_auth_token": _verdict},
        "crypto.wrap": {"wrap_key": None, "unwrap_key": None, "encrypt_credential": None,
                        "decrypt_credential": None, "aes256_cbc_encrypt": None,
                        "aes256_cbc_decrypt": None},
        "crypto.srtp": {"srtp_protect": _srtp_out, "srtp_unprotect": _srtp_in,
                        "srtp_derive": None},
    },
    cli: {
        "cli.assert": {"cmd_assert": None},
        "cli.build": {"build_world": None},
    },
}

METHODS = {
    "netsim.sched": (netsim.Scheduler, "run_until_idle"),
    "netsim.send": (netsim.Channel, "send_from"),
    "netsim.note": (netsim.Network, "note"),
    "netsim.open_channel": (netsim.Network, "open_channel"),
    "netsim.whereis": (netsim.Network, "whereis"),
    "netsim.detach": (netsim.Network, "detach"),
    "netsim.to_json": (netsim.TraceEvent, "to_json"),
}


def handler_span(fn) -> str:
    """'echo_testbed.device' -> 'device.handler'."""
    return (getattr(fn, "__module__", None) or "").rpartition(".")[2] + ".handler"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's entry points for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    missing = object()

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__.get(attr, missing)))
        setattr(owner, attr, new)

    for module, groups in MODULE_FUNCTIONS.items():
        for name, functions in groups.items():
            for attr, observe in functions.items():
                patch(module, attr, tracer.wrap(name, getattr(module, attr), observe))
    for name, (cls, attr) in METHODS.items():
        patch(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    counts = tracer.counts
    orig_at, orig_listen = netsim.Scheduler.at, netsim.Host.listen
    orig_add_tap, orig_evaluate = netsim.Network.add_tap, cli.evaluate_assertion

    def at(self, delay_ms, fn, *args):
        counts["pending"] += 1
        counts["queue_peak"] = max(counts["queue_peak"], counts["pending"])
        wrapped = tracer.wrap(handler_span(fn), fn)

        def dispatch(*a):
            counts["pending"] -= 1
            counts["dispatches"] += 1
            return wrapped(*a)
        return orig_at(self, delay_ms, dispatch, *args)

    def evaluate_assertion(events, rule):
        return tracer.wrap(f"cli.eval.{rule.get('kind')}", orig_evaluate)(events, rule)

    def listen(self, port, accept):
        return orig_listen(self, port, tracer.wrap(handler_span(accept), accept))

    def add_tap(self, lan_name, observer):
        def tap(obs):
            counts["tap_observations"] += 1
            return observer(obs)
        return orig_add_tap(self, lan_name, tracer.wrap(handler_span(observer), tap))

    def callback_slot(attr):
        slot = f"_traced_{attr}"

        def get(end):
            return end.__dict__.get(slot)

        def set_(end, fn):
            end.__dict__[slot] = None if fn is None else tracer.wrap(handler_span(fn), fn)
        return property(get, set_)

    patch(netsim.Scheduler, "at", at)
    patch(netsim.Host, "listen", listen)
    patch(netsim.Network, "add_tap", add_tap)
    patch(netsim.Endpoint, "handler", callback_slot("handler"))
    patch(netsim.Endpoint, "on_close", callback_slot("on_close"))
    patch(cli, "evaluate_assertion", evaluate_assertion)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
