"""Failure injection: the pipeline degrades gracefully, not wrongly.

The paper stresses that its maps stayed "surprisingly accurate in spite
of considerable noise" (§9).  These tests inject extra measurement
failure — silent routers, lossy replies — into a small region and check
the inference degrades (fewer COs/edges) without inventing structure.
"""

from collections import Counter

import pytest

from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.refine import RegionRefiner
from repro.measure.traceroute import Tracerouter
from repro.net.router import ReplyPolicy


REGION = "saltlake"


@pytest.fixture()
def small_world():
    """A fresh internet (mutating policies must not touch the session
    fixture shared with other tests)."""
    from repro.topology.internet import SimulatedInternet

    internet = SimulatedInternet(
        seed=23, include_telco=False, include_mobile=False
    )
    fleet = list(internet.build_standard_vps())
    return internet, fleet


def _infer_region(internet, fleet, flows=4):
    isp = internet.comcast
    tracer = Tracerouter(internet.network)
    region = isp.regions[REGION]
    targets = [
        str(iface.address)
        for co in region.cos.values()
        for router in co.routers
        for iface in router.interfaces
    ]
    traces = []
    for vp in fleet[:12]:
        for target in targets:
            trace = tracer.trace(vp.host, target, src_address=vp.src_address)
            if trace.hops:
                traces.append(trace)
    mapper = Ip2CoMapper(internet.network.rdns, isp.name)
    from repro.alias.resolve import AliasSets
    from repro.infer.stats import SufficientStats

    stats = SufficientStats.from_traces(traces)
    mapping = mapper.build(stats, AliasSets([]))
    extractor = AdjacencyExtractor(mapping, internet.network.rdns, isp.name)
    adjacencies = extractor.extract(stats)
    counter = adjacencies.per_region.get(REGION, Counter())
    if not counter:
        return None
    return RegionRefiner().refine(REGION, counter)


class TestLossyReplies:
    def test_heavy_loss_shrinks_but_does_not_invent(self, small_world):
        internet, fleet = small_world
        clean = _infer_region(internet, fleet)
        assert clean is not None

        # Inject 40 % probe loss on every router in the region.
        for router in internet.comcast.regions[REGION].routers():
            router.policy = ReplyPolicy(respond_prob=0.6)
        lossy = _infer_region(internet, fleet)

        if lossy is None:
            return  # total loss of the region is acceptable degradation
        assert lossy.graph.number_of_nodes() <= clean.graph.number_of_nodes()
        # Whatever survives must be a subset of the clean inference —
        # noise must not create new CO names.
        assert set(lossy.graph.nodes) <= set(clean.graph.nodes)

    def test_silent_aggs_leave_no_region(self, small_world):
        internet, fleet = small_world
        region = internet.comcast.regions[REGION]
        for co in region.agg_cos:
            for router in co.routers:
                router.policy = ReplyPolicy(respond_prob=0.0)
        degraded = _infer_region(internet, fleet)
        # With every AggCO silent, CO adjacencies cannot form: either
        # nothing is inferred or only backbone-to-edge fragments remain.
        if degraded is not None:
            agg_tags = {
                internet.comcast.co_tag(co) for co in region.agg_cos
            }
            assert not (set(degraded.graph.nodes) & agg_tags)
