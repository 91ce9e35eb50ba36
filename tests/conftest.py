"""Tier-1's stepping cost in cell-steps, a count no machine changes.

Every call of ramanecho.stages.march made in this process is counted as
n_node x n_z x the steps it took, and charged to the test whose setup,
call or teardown made it; a fixture's stages go to the first test that
asks for the fixture.  The terminal summary prints the total and the ten
dearest tests.  Stages that a test runs in a subprocess, such as the CLI
reruns and the BLAS-thread checks, are not counted.  A session whose
total exceeds CELL_STEP_BUDGET fails, whatever its tests did: the count
is the same on every machine, so a rise is a change to the suite or to
the stages it runs, never noise.
"""

import functools
from collections import Counter

import pytest

from ramanecho import stages

# the most cell-steps the whole suite may march: its measured total of
# 508,023,477, plus about 2% (10 million cell-steps) for tests to come.
# A change that needs more raises it and says why
CELL_STEP_BUDGET = 518_000_000


class CellSteps:
    """Cell-steps marched per test id."""

    def __init__(self):
        self.per_test = Counter()
        self.current = "(outside any test)"

    def add(self, state, steps: int) -> None:
        n_node, n_z = state.r12.shape
        self.per_test[self.current] += n_node * n_z * steps

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.current = item.nodeid
        yield
        self.current = "(outside any test)"

    def over_budget(self) -> bool:
        return sum(self.per_test.values()) > CELL_STEP_BUDGET

    def pytest_sessionfinish(self, session):
        if self.over_budget():
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        write = terminalreporter.write_line
        terminalreporter.section("cell-steps (n_node x n_z x steps)")
        write(f"total: {sum(self.per_test.values()):,} from "
              f"{len(self.per_test)} tests that step a stage")
        for nodeid, count in self.per_test.most_common(10):
            write(f"{count:>15,}  {nodeid}")
        if self.over_budget():
            write(f"FAILED: the total exceeds CELL_STEP_BUDGET = "
                  f"{CELL_STEP_BUDGET:,} (tests/conftest.py)", red=True)


def pytest_configure(config):
    counter = CellSteps()
    config.pluginmanager.register(counter, "cell-steps")
    march = stages.march

    @functools.wraps(march)
    def counted(state, advance):
        start = state.step_index
        try:
            march(state, advance)
        finally:
            counter.add(state, state.step_index - start)

    stages.march = counted
    config.add_cleanup(lambda: setattr(stages, "march", march))
