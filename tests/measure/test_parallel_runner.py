"""Parallel campaign runs: byte-identical to serial at the default sharding.

The multi-process runner is ``SupervisedCampaignRunner``; its own tests
(``test_supervisor.py``) pin two workers and ten-job shards. These run
a three-worker pool with the runner's default shard size over a mixed
target list (toy-diamond and cable addresses), the pool shape a CLI
``--workers 3`` run gets.
"""

from repro.io.checkpoint import trace_to_dict
from repro.measure.runner import CampaignRunner
from repro.measure.substrates import WorkerSpec, toy_substrate
from repro.measure.supervisor import SupervisedCampaignRunner

SPEC = WorkerSpec("repro.measure.substrates:toy_substrate", {"hosts": 3})
TARGETS = ["10.0.0.14", "10.0.0.6", "198.18.5.1", "198.18.5.9"]


def _jobs(vps, targets=TARGETS):
    return [(vp, target) for vp in vps.values() for target in targets]


def _run(runner, vps):
    return [trace_to_dict(t) for t in runner.run(_jobs(vps), stage="s")]


def _serial():
    tracer, vps = toy_substrate(hosts=3)
    runner = CampaignRunner(tracer, list(vps.values()))
    return _run(runner, vps), runner


def _comparable_health(runner):
    """Health minus the supervisor-only shard/worker bookkeeping."""
    return {
        key: value for key, value in runner.health.as_dict().items()
        if not key.startswith(("shards_", "workers_"))
    }


def _parallel():
    tracer, vps = toy_substrate(hosts=3)
    runner = SupervisedCampaignRunner(
        tracer, list(vps.values()), worker_spec=SPEC, workers=3
    )
    return _run(runner, vps), runner


class TestFaultFreeParity:
    def test_corpus_byte_identical_to_serial(self):
        reference, _serial_runner = _serial()
        corpus, runner = _parallel()
        assert corpus == reference
        assert runner.health.shards_planned >= 1
        assert runner.health.shards_poisoned == 0

    def test_health_counters_match_serial(self):
        _reference, serial = _serial()
        _corpus, runner = _parallel()
        assert _comparable_health(runner) == _comparable_health(serial)
