"""test_cli's never-raises property over damaged built-ins, run long.

Tier-1 does not collect this file, as its name does not start with test_.
Run it by path: pytest tests/fuzz_scenarios.py
"""

from hypothesis import HealthCheck, given, settings

from test_cli import BUILTIN_SCENARIOS, damaged, run_never_raises


@settings(max_examples=2000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scn=damaged(BUILTIN_SCENARIOS))
def test_cli_run_never_raises_on_many_damaged_scenarios(tmp_path_factory, scn):
    run_never_raises(tmp_path_factory, scn)
