"""Integration: the full §5 pipeline against the Comcast-like ISP.

Shares the session-scoped ``comcast_result`` fixture, so the expensive
campaign runs once for the whole file.
"""

import statistics
from collections import Counter

import pytest

from repro.infer.entries import EntryInferrer
from repro.infer.metrics import (
    edge_to_agg_ratio,
    score_region,
    single_upstream_fraction,
)
from repro.infer.pipeline import CableInferencePipeline


class TestCoverage:
    def test_all_regions_inferred(self, internet, comcast_result):
        assert set(comcast_result.regions) == set(internet.comcast.regions)

    def test_mapping_statistics_shape(self, comcast_result):
        stats = comcast_result.mapping.stats
        assert stats.initial > 500
        assert stats.final >= stats.initial  # alias+p2p add more than they drop
        assert stats.alias_changed + stats.alias_added > 0

    def test_adjacency_pruning_ran(self, comcast_result):
        stats = comcast_result.adjacencies.stats
        assert stats.initial_ip > 1000
        assert stats.backbone_ip > 0
        assert stats.cross_region_ip > 0  # stale rDNS produced some


class TestTable1:
    def test_aggregation_type_counts(self, comcast_result):
        counts = Counter(comcast_result.aggregation_types().values())
        assert counts["single"] == 5
        assert counts["two"] == 11
        assert counts["multi"] == 12

    def test_types_match_ground_truth(self, internet, comcast_result):
        truth = {n: r.agg_type for n, r in internet.comcast.regions.items()}
        inferred = comcast_result.aggregation_types()
        mismatches = {
            name for name in truth if inferred.get(name) != truth[name]
        }
        assert len(mismatches) <= 2  # near-perfect recovery


class TestEntries:
    def test_nearly_every_region_has_two_backbone_cos(self, comcast_result):
        per_region = EntryInferrer.backbone_cos_per_region(
            comcast_result.entries
        )
        two_plus = sum(1 for n in per_region.values() if n >= 2)
        assert two_plus >= len(per_region) - 3  # the paper missed three

    def test_connecticut_entered_via_newengland(self, comcast_result):
        inter = [
            e for e in comcast_result.entries
            if not e.is_backbone and e.region == "connecticut"
        ]
        assert inter and all(e.outside_region == "newengland" for e in inter)

    def test_centralca_connects_to_sanfrancisco(self, comcast_result):
        inter = [
            e for e in comcast_result.entries
            if not e.is_backbone and e.region == "centralca"
        ]
        assert any(e.outside_region == "sanfrancisco" for e in inter)


class TestAccuracy:
    def test_edge_f1_high(self, internet, comcast_result):
        tag_of_co = {
            uid: internet.comcast.co_tag(co)
            for region in internet.comcast.regions.values()
            for uid, co in region.cos.items()
        }
        scores = [
            score_region(
                comcast_result.regions[name],
                internet.comcast.regions[name],
                tag_of_co,
            )
            for name in comcast_result.regions
        ]
        assert statistics.fmean(s.edge_f1 for s in scores) > 0.8
        assert statistics.fmean(s.co_recall for s in scores) > 0.8

    def test_single_upstream_fraction_near_paper(self, comcast_result):
        fraction = single_upstream_fraction(
            list(comcast_result.regions.values())
        )
        assert 0.05 < fraction < 0.25  # paper: 11.4 %

    def test_edge_to_agg_ratio_order_of_magnitude(self, comcast_result):
        ratio = edge_to_agg_ratio(list(comcast_result.regions.values()))
        assert 3.0 < ratio < 12.0  # paper: 7.7x (both ISPs combined)


class TestRefinementBehaviour:
    def test_ring_completion_added_edges(self, comcast_result):
        added = sum(
            r.stats.added_ring_edges for r in comcast_result.regions.values()
        )
        assert added > 0

    def test_false_edges_removed(self, comcast_result):
        removed = sum(
            r.stats.removed_edge_edges
            for r in comcast_result.regions.values()
        )
        assert removed > 0

    def test_every_region_has_agg_cos(self, comcast_result):
        for name, region in comcast_result.regions.items():
            assert region.agg_cos, name


class TestSpanDeterminism:
    def test_trace_seed_changes_span_ids_not_structure(
        self, internet, standard_vps
    ):
        def ids_for(trace_seed):
            pipeline = CableInferencePipeline(
                internet.network, internet.comcast, standard_vps,
                sweep_vps=2, trace_seed=trace_seed,
            )
            pipeline.run()
            names = [s.name for s in pipeline.obs.spans]
            return names, [s.span_id for s in pipeline.obs.spans]

        names_a, ids_a = ids_for(0)
        names_b, ids_b = ids_for(99)
        assert names_a == names_b
        assert ids_a != ids_b
