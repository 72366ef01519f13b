"""The executor must clear the process-wide address memos between
jobs: in a long-running service every job brings a fresh address space
(seeds differ), so an uncleaned memo grows monotonically forever."""

import pytest

from repro.net import addresses
from repro.service.executor import JobExecutor
from repro.service.spec import JobSpec


@pytest.fixture()
def executor(tmp_path):
    return JobExecutor(tmp_path / "jobs")


def _memo_size() -> int:
    return len(addresses._normalize_memo) + len(addresses._p2p_memo)


def _run(executor, job_id, seed):
    spec = JobSpec(pipeline="toy", seed=seed, targets=6, hosts=2)
    return executor.execute(job_id, spec, "full", attempt=1)


class TestMemoHygiene:
    def test_preseeded_garbage_is_dropped(self, executor):
        addresses._normalize_memo["203.0.113.99"] = "203.0.113.99"
        addresses._p2p_memo[("203.0.113.99", 30)] = None
        result = _run(executor, "job-a", seed=1)
        assert result.artifacts
        assert "203.0.113.99" not in addresses._normalize_memo
        assert ("203.0.113.99", 30) not in addresses._p2p_memo

    def test_memo_size_does_not_grow_across_jobs(self, executor):
        _run(executor, "job-a", seed=1)
        after_first = _memo_size()
        _run(executor, "job-b", seed=2)
        after_second = _memo_size()
        # Each job starts from empty memos, so the residue after job B
        # reflects job B's own address space only — not A's plus B's.
        assert after_second <= after_first

    def test_memos_cleared_even_when_the_job_raises(
        self, executor, monkeypatch
    ):
        import repro.measure.substrates as substrates

        def boom(**kwargs):
            # Simulate a job dying mid-dispatch with memo entries in
            # play; the executor's finally must still clean up.
            addresses._normalize_memo["203.0.113.99"] = "203.0.113.99"
            raise RuntimeError("substrate exploded")

        monkeypatch.setattr(substrates, "toy_substrate", boom)
        with pytest.raises(RuntimeError, match="substrate exploded"):
            executor.execute(
                "job-x", JobSpec(pipeline="toy", seed=1), "full", attempt=1
            )
        assert "203.0.113.99" not in addresses._normalize_memo
        assert not addresses._p2p_memo
