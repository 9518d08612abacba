"""test_crypto's SRTP record-against-full-path property, run long.

Tier-1 does not collect this file, as its name does not start with test_.
Run it by path: pytest tests/fuzz_srtp.py
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from test_crypto import SRTP_OFFSETS, SRTP_STEPS, unprotect_matches_full_path


@settings(max_examples=3000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(offset=SRTP_OFFSETS, primed=st.booleans(), steps=SRTP_STEPS)
def test_unprotect_matches_the_full_path_over_many_streams(offset, primed, steps):
    unprotect_matches_full_path(offset, primed, steps)
