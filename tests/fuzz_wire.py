"""test_wire's written-back property, run long: every start line the parse
accepts, the serializer writes back.

Tier-1 does not collect this file, as its name does not start with test_.
Run it by path: pytest tests/fuzz_wire.py
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from test_wire import START_LINES, written_back


@settings(max_examples=3000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(start=START_LINES, body=st.sampled_from([b"", b"hi"]))
def test_what_the_parse_accepts_is_written_back_over_many_start_lines(start, body):
    written_back(start, body)
