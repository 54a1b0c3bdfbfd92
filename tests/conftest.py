import sys

import pytest
from hypothesis import settings

# The file frame's shared tests live in a helper module that two test modules import.
pytest.register_assert_rewrite("frame_cases")

# No per-example deadline: CPU steal on a shared host must not fail a property
# test on timing.  print_blob lets a failure be replayed with @reproduce_failure.
settings.register_profile("thzgen", deadline=None, print_blob=True)
settings.load_profile("thzgen")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-gate pass/fail lines after the test report."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
