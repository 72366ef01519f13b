"""§5.1 — rDNS-targeted probing beats blind /24 sweeps.

Paper: "Directly targeting CO router interfaces observed 5.3x and 2.6x
more CO interconnections than the /24 traceroutes for Comcast and
Charter, respectively, as some COs responded to the /24 probing using
addresses without rDNS."
"""

from repro.analysis.tables import render_table
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.stats import SufficientStats


def _slash24_targets(isp) -> "set[str]":
    targets = set()
    for prefixes in isp.region_prefixes.values():
        for prefix in prefixes:
            for subnet in prefix.subnets(new_prefix=24):
                targets.add(str(subnet.network_address + 1))
    return targets


def _co_adjacencies(internet, isp, result, traces):
    mapper = Ip2CoMapper(internet.network.rdns, isp.name)
    stats = SufficientStats.from_traces(
        traces, p2p_prefixlen=isp.p2p_prefixlen
    )
    mapping = mapper.build(stats, result.aliases)
    extractor = AdjacencyExtractor(mapping, internet.network.rdns, isp.name)
    adjacencies = extractor.extract(stats)
    return sum(
        len(counter) for counter in adjacencies.per_region.values()
    )


def test_sec51_target_selection(benchmark, internet, comcast_result,
                                charter_result):
    def run():
        ratios = {}
        for isp, result in (
            (internet.comcast, comcast_result),
            (internet.charter, charter_result),
        ):
            # Partition the existing corpus by campaign stage: the /24
            # sweep targets .1 network addresses; the rDNS sweep targets
            # named CO interfaces.
            slash24 = _slash24_targets(isp)
            slash24_traces = [
                t for t in result.traces if t.dst_address in slash24
            ]
            rdns_traces = [
                t for t in result.traces if t.dst_address not in slash24
            ]
            adj_slash24 = _co_adjacencies(internet, isp, result, slash24_traces)
            adj_rdns = _co_adjacencies(internet, isp, result, rdns_traces)
            ratios[isp.name] = (adj_slash24, adj_rdns)
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for isp_name, (from_24, from_rdns) in sorted(ratios.items()):
        rows.append([
            isp_name, from_24, from_rdns, f"{from_rdns / max(1, from_24):.1f}x",
        ])
    print("\n" + render_table(
        ["ISP", "CO adjs via /24 sweep", "via rDNS targets", "gain"],
        rows,
        title="§5.1 — target selection (paper: 5.3x Comcast, 2.6x Charter)",
    ))

    for isp_name, (from_24, from_rdns) in ratios.items():
        assert from_rdns > 1.5 * from_24, isp_name
    # Comcast gains more than Charter, as in the paper.
    comcast_gain = ratios["comcast"][1] / max(1, ratios["comcast"][0])
    charter_gain = ratios["charter"][1] / max(1, ratios["charter"][0])
    assert comcast_gain > charter_gain
