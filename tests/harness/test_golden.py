"""The pinned golden digests: experiment results stay byte-identical."""

import dataclasses

import pytest

from repro.harness import golden
from repro.harness.results import ExperimentResult

PINNED = golden.load()


def result(**changes):
    base = ExperimentResult(experiment="x", title="t",
                            rows=({"a": 1, "b": 0.5},), notes=("n",))
    return dataclasses.replace(base, **changes)


class TestResultDigest:
    def test_ignores_meta(self):
        assert (golden.result_digest(result(meta={"wall_s": 1.0}))
                == golden.result_digest(result()))

    def test_sees_a_changed_row(self):
        assert (golden.result_digest(result(rows=({"a": 1, "b": 0.25},)))
                != golden.result_digest(result()))

    def test_ignores_key_order(self):
        assert (golden.result_digest(result(rows=({"b": 0.5, "a": 1},)))
                == golden.result_digest(result()))


@pytest.mark.parametrize("experiment", sorted(PINNED))
def test_digest_matches_golden(experiment):
    assert golden.experiment_digest(experiment) == PINNED[experiment]
