"""Unit tests for IP→CO mapping and adjacency pruning on synthetic
corpora (no simulated internet needed)."""

import pytest

from repro.alias.resolve import AliasSets
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.entries import EntryInferrer
from repro.infer.ip2co import Ip2CoMapper, Ip2CoMapping
from repro.infer.stats import SufficientStats
from repro.measure.traceroute import Hop, TraceResult
from repro.net.dns import RdnsStore


def _trace(addresses, completed=True, with_names=None):
    hops = [
        Hop(i + 1, addr, (with_names or {}).get(addr))
        for i, addr in enumerate(addresses)
    ]
    return TraceResult("192.0.2.1", addresses[-1] or "0.0.0.0",
                       hops, completed=completed)


def _comcast_name(co, region="denver"):
    return f"ae-1-ar01.{co}.co.{region}.comcast.net"


@pytest.fixture()
def rdns():
    store = RdnsStore()
    # Two COs in 'denver': aggco (10.0.0.x) and edgeco (10.0.1.x).
    for addr in ("10.0.0.1", "10.0.0.5"):
        store.set(addr, _comcast_name("aggco"))
    store.set("10.0.1.2", _comcast_name("edgeco"))
    return store


class TestIp2CoStages:
    def test_initial_mapping_from_rdns(self, rdns):
        mapper = Ip2CoMapper(rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.1.2"])]
        mapping = mapper.build(SufficientStats.from_traces(traces), AliasSets([]))
        assert mapping.co_of("10.0.0.1") == ("denver", "aggco.co")
        assert mapping.co_of("10.0.1.2") == ("denver", "edgeco.co")
        assert mapping.stats.initial == 2

    def test_alias_majority_fills_unnamed(self, rdns):
        mapper = Ip2CoMapper(rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.1.2"])]
        aliases = AliasSets([{"10.0.0.1", "10.0.0.5", "10.0.0.9"}])
        mapping = mapper.build(SufficientStats.from_traces(traces), aliases)
        assert mapping.co_of("10.0.0.9") == ("denver", "aggco.co")
        assert mapping.stats.alias_added >= 1

    def test_alias_majority_corrects_stale(self, rdns):
        rdns.set_stale("10.0.0.9", _comcast_name("wrongco"))
        mapper = Ip2CoMapper(rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.0.9"])]
        aliases = AliasSets([{"10.0.0.1", "10.0.0.5", "10.0.0.9"}])
        mapping = mapper.build(SufficientStats.from_traces(traces), aliases)
        assert mapping.co_of("10.0.0.9") == ("denver", "aggco.co")
        assert mapping.stats.alias_changed == 1

    def test_alias_tie_removes_mapping(self, rdns):
        rdns.set("10.0.2.1", _comcast_name("otherco"))
        mapper = Ip2CoMapper(rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.2.1"])]
        aliases = AliasSets([{"10.0.0.1", "10.0.2.1"}])
        mapping = mapper.build(SufficientStats.from_traces(traces), aliases)
        assert mapping.co_of("10.0.0.1") is None
        assert mapping.co_of("10.0.2.1") is None
        assert mapping.stats.alias_removed == 2

    def test_p2p_vote_fills_previous_hop(self, rdns):
        """Fig 19: x unnamed; the peers of the next hops map to the CO."""
        # y=10.0.3.2 (peer 10.0.3.1 named aggco); x = 10.9.9.9 unnamed.
        rdns.set("10.0.3.1", _comcast_name("aggco"))
        mapper = Ip2CoMapper(rdns, "comcast")
        traces = [
            _trace(["10.9.9.9", "10.0.3.2", "10.0.1.2"]),
            _trace(["10.9.9.9", "10.0.3.2", "10.0.1.2"]),
        ]
        mapping = mapper.build(SufficientStats.from_traces(traces), AliasSets([]))
        assert mapping.co_of("10.9.9.9") == ("denver", "aggco.co")
        assert mapping.stats.p2p_added == 1

    def test_p2p_vote_ignores_final_echo(self, rdns):
        """An echo reply carries the probed address; it must not vote."""
        rdns.set("10.0.3.1", _comcast_name("aggco"))
        mapper = Ip2CoMapper(rdns, "comcast")
        # Completed trace whose final hop is 10.0.3.2: peer(10.0.3.2)
        # would wrongly place the previous hop in aggco.
        traces = [_trace(["10.9.9.9", "10.0.3.2"], completed=True)] * 2
        mapping = mapper.build(SufficientStats.from_traces(traces), AliasSets([]))
        assert mapping.co_of("10.9.9.9") is None

    def test_stats_rows_render(self, rdns):
        mapper = Ip2CoMapper(rdns, "comcast")
        mapping = mapper.build(
            SufficientStats.from_traces([_trace(["10.0.0.1"])]), AliasSets([])
        )
        rows = mapping.stats.as_rows()
        assert rows[0] == ("Initial", "1")
        assert any("%" in value for _label, value in rows[1:4])


class TestAdjacencyPruning:
    def _mapping(self):
        return Ip2CoMapping(mapping={
            "10.0.0.1": ("denver", "aggco.co"),
            "10.0.1.2": ("denver", "edgeco.co"),
            "10.0.2.1": ("denver", "otherco.co"),
            "10.2.0.1": ("seattle", "remote.wa"),
        })

    def test_basic_extraction(self, rdns):
        extractor = AdjacencyExtractor(self._mapping(), rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.1.2"])] * 2
        adjacencies = extractor.extract(SufficientStats.from_traces(traces))
        assert adjacencies.per_region["denver"][("aggco.co", "edgeco.co")] == 2

    def test_single_observation_pruned(self, rdns):
        extractor = AdjacencyExtractor(self._mapping(), rdns, "comcast")
        adjacencies = extractor.extract(
            SufficientStats.from_traces([_trace(["10.0.0.1", "10.0.1.2"])])
        )
        assert "denver" not in adjacencies.per_region
        assert adjacencies.stats.single_co == 1

    def test_cross_region_pruned(self, rdns):
        extractor = AdjacencyExtractor(self._mapping(), rdns, "comcast")
        traces = [_trace(["10.2.0.1", "10.0.1.2"])] * 3
        adjacencies = extractor.extract(SufficientStats.from_traces(traces))
        assert not adjacencies.per_region
        assert adjacencies.stats.cross_region_co == 1

    def test_backbone_pairs_set_aside(self, rdns):
        rdns.set("4.4.4.4", "be-1-cr01.denver.co.ibone.comcast.net")
        extractor = AdjacencyExtractor(self._mapping(), rdns, "comcast")
        traces = [_trace(["4.4.4.4", "10.0.0.1", "10.0.1.2"])] * 2
        adjacencies = extractor.extract(SufficientStats.from_traces(traces))
        assert adjacencies.backbone_pairs[("denver.co", "denver", "aggco.co")] == 2
        assert adjacencies.stats.backbone_co == 1

    def test_mpls_pair_pruned_with_followups(self, rdns):
        extractor = AdjacencyExtractor(self._mapping(), rdns, "comcast")
        traces = [_trace(["10.0.0.1", "10.0.1.2"])] * 3
        # A follow-up to the egress reveals an interior hop between them.
        followups = [_trace(["10.0.0.1", "10.0.2.1", "10.0.1.2"])]
        adjacencies = extractor.extract(SufficientStats.from_traces(traces, followups))
        assert ("aggco.co", "edgeco.co") not in adjacencies.per_region.get(
            "denver", {}
        )
        assert adjacencies.stats.mpls_co == 1

    def test_same_co_hops_ignored(self, rdns):
        mapping = Ip2CoMapping(mapping={
            "10.0.0.1": ("denver", "aggco.co"),
            "10.0.0.5": ("denver", "aggco.co"),
        })
        extractor = AdjacencyExtractor(mapping, rdns, "comcast")
        adjacencies = extractor.extract(
            SufficientStats.from_traces([_trace(["10.0.0.1", "10.0.0.5"])] * 2)
        )
        assert not adjacencies.per_region


class TestEntryInference:
    def test_backbone_entries(self, rdns):
        mapping = Ip2CoMapping(mapping={})
        from repro.infer.adjacency import RegionAdjacencies

        adjacencies = RegionAdjacencies()
        adjacencies.backbone_pairs[("denver.co", "denver", "agg1")] = 4
        adjacencies.backbone_pairs[("dallas.tx", "denver", "agg1")] = 4
        entries = EntryInferrer(mapping).backbone_entries(adjacencies)
        assert len(entries) == 2
        assert EntryInferrer.backbone_cos_per_region(entries) == {"denver": 2}

    def test_triplet_rule_requires_onward_co(self):
        mapping = Ip2CoMapping(mapping={
            "10.0.0.1": ("regionA", "a1"),
            "10.1.0.1": ("regionB", "b1"),
            "10.1.0.5": ("regionB", "b2"),
        })
        inferrer = EntryInferrer(mapping)
        good = [_trace(["10.0.0.1", "10.1.0.1", "10.1.0.5"])]
        entries = inferrer.inter_region_entries(good)
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.outside_region, entry.region) == ("regionA", "regionB")
        assert not entry.is_backbone

    def test_dead_end_rejected(self):
        mapping = Ip2CoMapping(mapping={
            "10.0.0.1": ("regionA", "a1"),
            "10.1.0.1": ("regionB", "b1"),
        })
        inferrer = EntryInferrer(mapping)
        entries = inferrer.inter_region_entries(
            [_trace(["10.0.0.1", "10.1.0.1"])]
        )
        assert entries == []
