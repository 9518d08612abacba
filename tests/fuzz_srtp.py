"""test_crypto's two SRTP properties, run long: the receiver's record
against its full path, and the sender against the reference packet.

Tier-1 does not collect this file, as its name does not start with test_.
Run it by path: pytest tests/fuzz_srtp.py
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from test_crypto import (SRTP_OFFSETS, SRTP_SEND_STEPS, SRTP_STEPS, sender_matches_reference,
                         unprotect_matches_full_path)


@settings(max_examples=3000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(offset=SRTP_OFFSETS, primed=st.booleans(), steps=SRTP_STEPS)
def test_unprotect_matches_the_full_path_over_many_streams(offset, primed, steps):
    unprotect_matches_full_path(offset, primed, steps)


@settings(max_examples=3000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=SRTP_SEND_STEPS)
def test_every_sent_packet_matches_the_reference_over_many_streams(steps):
    sender_matches_reference(steps)
