"""The test suites' one reader of a network's trace."""

from echo_testbed.netsim import iter_jsonl, text_lines


def trace_events(net):
    """The trace read back from its lines, as `assert` reads it."""
    return list(iter_jsonl(text_lines(net.trace.jsonl())))
