"""Ablation — how vantage-point count drives topology visibility.

The paper's core measurement argument (§5.1, §6.1): coverage requires
many topologically diverse VPs; a handful of research-platform probes
sees only a fraction of the CO interconnections.  This ablation runs
the same rDNS-target sweep into one Comcast region with growing VP
fleets and counts the distinct CO adjacencies observed.
"""

from repro.analysis.tables import render_table
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.stats import SufficientStats
from repro.measure.traceroute import Tracerouter

REGION = "chicago"


def test_ablation_vantage_points(benchmark, internet, fleet, comcast_result):
    isp = internet.comcast
    tracer = Tracerouter(internet.network)
    targets = [
        address
        for address, (region, _tag) in comcast_result.mapping.mapping.items()
        if region == REGION
    ]
    assert len(targets) > 50

    def observe(vp_count):
        traces = []
        for vp in fleet[:vp_count]:
            for target in targets:
                trace = tracer.trace(vp.host, target, src_address=vp.src_address)
                if trace.hops:
                    traces.append(trace)
        mapper = Ip2CoMapper(internet.network.rdns, isp.name)
        stats = SufficientStats.from_traces(
            traces, p2p_prefixlen=isp.p2p_prefixlen
        )
        mapping = mapper.build(stats, comcast_result.aliases)
        extractor = AdjacencyExtractor(mapping, internet.network.rdns, isp.name)
        adjacencies = extractor.extract(stats)
        return len(adjacencies.per_region.get(REGION, {}))

    def run():
        return {count: observe(count) for count in (2, 8, 24, 47)}

    observed = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n" + render_table(
        ["VPs", f"distinct CO adjacencies in {REGION}"],
        [[count, edges] for count, edges in sorted(observed.items())],
        title="Ablation — visibility vs vantage-point count (§5.1/§6.1)",
    ))

    counts = [observed[c] for c in sorted(observed)]
    assert counts == sorted(counts)            # monotone coverage
    assert observed[47] > 1.2 * observed[2]    # few VPs miss real links
