"""The test suites' one reader of a network's trace."""

from typing import Iterator

from echo_testbed.netsim import iter_jsonl


def text_lines(text: str) -> Iterator[str]:
    """The lines text.split("\n") gives, one at a time; io.StringIO would
    hold a copy at four bytes a character."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def trace_events(net):
    """The trace read back from its lines, as `assert` reads it."""
    return list(iter_jsonl(text_lines(net.trace.jsonl())))
