"""Supervised pipeline execution: byte-identical artifacts, same health,
same span tree once the supervisor's own spans are dropped.

One module-scoped ``workers=2`` run is compared against the session's
serial ``comcast_run``, so only the supervised run is paid for here.
"""

import pytest

from repro.infer.pipeline import CableInferencePipeline
from repro.io.export import region_to_json
from repro.measure.substrates import WorkerSpec


@pytest.fixture(scope="module")
def supervised(internet, standard_vps):
    pipeline = CableInferencePipeline(
        internet.network, internet.comcast, standard_vps, sweep_vps=6,
        profile=True, workers=2,
        worker_spec=WorkerSpec(
            "repro.measure.substrates:cable_substrate", {"seed": 3}
        ),
    )
    return pipeline, pipeline.run()


def _comparable_health(health):
    """Health minus the supervisor-only shard/worker bookkeeping."""
    return {
        key: value for key, value in health.as_dict().items()
        if not key.startswith(("shards_", "workers_"))
    }


def _structure(tracer):
    """(depth, name, parent name, attributes) per span, with the
    supervisor's ``supervise:*``/``shard:*`` spans dropped.  Ids are
    not compared: the dropped spans shift every later creation index."""
    names = {span.span_id: span.name for span in tracer.spans}
    return [
        (span.depth, span.name, names.get(span.parent_id), span.attributes)
        for span in tracer.spans
        if not span.name.startswith(("supervise:", "shard:"))
    ]


class TestSupervisedPipelineParity:
    def test_exported_regions_byte_identical(self, supervised, comcast_result):
        _pipeline, result = supervised
        assert set(result.regions) == set(comcast_result.regions)
        for name in sorted(comcast_result.regions):
            assert region_to_json(result.regions[name]) == region_to_json(
                comcast_result.regions[name]
            ), f"region {name} diverged under --workers"

    def test_health_matches_serial(self, supervised, comcast_result):
        _pipeline, result = supervised
        assert result.health.shards_planned > 0
        assert _comparable_health(result.health) == _comparable_health(
            comcast_result.health
        )

    def test_span_tree_matches_serial_without_supervisor_spans(
        self, supervised, comcast_run
    ):
        pipeline, _result = supervised
        serial_pipeline, _serial_result = comcast_run
        assert any(
            span.name.startswith("supervise:") for span in pipeline.obs.spans
        )
        assert _structure(pipeline.obs) == _structure(serial_pipeline.obs)

    def test_profiler_reported_phases(self, supervised):
        pipeline, _result = supervised
        report = pipeline.profiler.as_dict()
        assert set(report["phases_s"]) == {
            "collect", "aliases", "ip2co", "adjacency", "refine", "entries"
        }
        assert report["total_s"] > 0
        assert report["peak_rss_kb"] > 0
