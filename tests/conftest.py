import numpy as np
import pytest

from diffswitch import RegimeSpec, ScenarioSpec, ThresholdPair, compose_scenario, simulators, stats


@pytest.fixture
def brownian_300():
    spec = ScenarioSpec(300, (), (RegimeSpec(simulators.BROWNIAN),))
    return compose_scenario(spec, rng=np.random.default_rng(12345))[0]


@pytest.fixture
def relaxed_300_30():
    # Published relaxed cut-offs for n=300, k=30; avoids calibrating in
    # unit tests that only need plausible thresholds.
    return ThresholdPair(0.74, 3.26)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("threshold-cache")


class StackRows:
    """Sets the rows of every replicate stack, and records the stacks that are made.

    Calling it with a row count makes stats.block_rows, which sizes both the
    replicate stacks and the kernel blocks, return that count; None restores
    the byte budget. Each call empties `made`, which then lists the row count
    of every compose_stack stack, so a test can assert that its size took.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch, self.made, self.default = monkeypatch, [], stats.block_rows
        compose = simulators.compose_stack

        def recording(*args, **kwargs):
            stack = compose(*args, **kwargs)
            self.made.append(len(stack))
            return stack

        monkeypatch.setattr(simulators, "compose_stack", recording)

    def __call__(self, rows):
        self.monkeypatch.setattr(stats, "block_rows", self.default if rows is None else lambda n, d: rows)
        self.made.clear()

    def split(self, replicates, rows, n=None):
        """The row counts of `replicates` in stacks of `rows`, or of the byte budget at n if rows is None."""
        rows = rows or self.default(n, 2)
        return [rows] * (replicates // rows) + [replicates % rows] * (replicates % rows > 0)


@pytest.fixture
def stack_rows(monkeypatch):
    return StackRows(monkeypatch)
