"""Ablations of the §5 pipeline's heuristics.

DESIGN.md calls out four load-bearing design choices; each ablation
re-runs phase 2 on the already-collected Comcast/Charter corpora with
one heuristic disabled and measures what breaks:

* no alias resolution (App. B.1 stage 2) → stale rDNS survives into
  the CO mapping and edge precision drops;
* no ring completion (§5.2.4) → EdgeCO redundancy is badly
  under-estimated;
* no false-edge removal (§5.2.3) → spurious EdgeCO→EdgeCO edges
  survive and precision drops;
* no MPLS follow-up traces (App. B.2) → the Charter midwest region
  keeps false top-AggCO→EdgeCO adjacencies.
"""

import statistics

from repro.alias.resolve import AliasSets
from repro.analysis.tables import render_table
from repro.infer.adjacency import AdjacencyExtractor
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.metrics import score_region, single_upstream_fraction
from repro.infer.refine import RegionRefiner
from repro.infer.stats import SufficientStats


def _scores(internet, isp, regions):
    tag_of_co = {
        uid: isp.co_tag(co)
        for region in isp.regions.values()
        for uid, co in region.cos.items()
    }
    scored = [
        score_region(region, isp.regions[name], tag_of_co)
        for name, region in regions.items()
        if name in isp.regions
    ]
    return statistics.fmean(s.edge_f1 for s in scored)


def _rerun_phase2(internet, isp, result, aliases=None, refiner=None,
                  followups=None):
    mapper = Ip2CoMapper(internet.network.rdns, isp.name)
    stats = SufficientStats.from_traces(
        result.traces,
        result.followup_traces if followups is None else followups,
        p2p_prefixlen=isp.p2p_prefixlen,
    )
    mapping = mapper.build(
        stats,
        aliases if aliases is not None else result.aliases,
        extra_addresses=set(result.mapping.mapping),
    )
    extractor = AdjacencyExtractor(mapping, internet.network.rdns, isp.name)
    adjacencies = extractor.extract(stats)
    refiner = refiner or RegionRefiner()
    return {
        name: refiner.refine(name, counter)
        for name, counter in adjacencies.per_region.items()
    }


def _wrongly_mapped_stale(internet, isp, mapping) -> int:
    """Ground truth: stale-named addresses mapped to the wrong CO."""
    network = internet.network
    wrong = 0
    for address, (_region, tag) in mapping.mapping.items():
        if not network.rdns.is_stale(address):
            continue
        owner = network.owner_router(address)
        if owner is None or owner.co is None or owner.asn != isp.asn:
            continue
        if not hasattr(owner.co, "kind"):
            continue
        if tag != isp.co_tag(owner.co):
            wrong += 1
    return wrong


def test_ablation_alias_resolution(benchmark, internet, comcast_result):
    """Without alias resolution, stale rDNS survives into the mapping
    (App. B.1's whole point)."""
    isp = internet.comcast

    def run():
        mapper = Ip2CoMapper(internet.network.rdns, isp.name)
        return mapper.build(
            SufficientStats.from_traces(
                comcast_result.traces, p2p_prefixlen=isp.p2p_prefixlen
            ),
            AliasSets([]),
            extra_addresses=set(comcast_result.mapping.mapping),
        )

    mapping_without = benchmark.pedantic(run, rounds=1, iterations=1)
    wrong_without = _wrongly_mapped_stale(internet, isp, mapping_without)
    wrong_with = _wrongly_mapped_stale(internet, isp, comcast_result.mapping)
    print(f"\nAblation (no alias resolution): {wrong_without} stale "
          f"addresses mis-mapped vs {wrong_with} with aliases")
    assert wrong_without > wrong_with


def test_ablation_ring_completion(benchmark, internet, charter_result):
    """Without §5.2.4's ring completion, redundancy is under-estimated."""
    isp = internet.charter

    def run():
        return _rerun_phase2(
            internet, isp, charter_result,
            refiner=RegionRefiner(complete_rings=False),
        )

    without = benchmark.pedantic(run, rounds=1, iterations=1)
    single_without = single_upstream_fraction(list(without.values()))
    single_with = single_upstream_fraction(
        list(charter_result.regions.values())
    )
    print(f"\nAblation (no ring completion): single-upstream EdgeCOs "
          f"{single_without:.1%} vs {single_with:.1%} with completion")
    assert single_without > single_with + 0.05


def _false_edge_count(internet, isp, regions) -> int:
    """Ground truth: inferred CO edges that do not exist in reality."""
    true_edges = set()
    for truth in isp.regions.values():
        for up_uid, down_uid in truth.edge_pairs():
            up = isp.co_tag(truth.cos[up_uid])
            down = isp.co_tag(truth.cos[down_uid])
            true_edges.add((up, down))
    return sum(
        1
        for region in regions.values()
        for edge in region.graph.edges
        if edge not in true_edges
    )


def test_ablation_false_edge_removal(benchmark, internet, comcast_result):
    """§5.2.3 backs up alias resolution: when alias correction is weak
    (here: ablated), the false-edge removal heuristic is what keeps
    stale EdgeCO→EdgeCO links out of the graphs."""
    isp = internet.comcast

    def run():
        degraded_with = _rerun_phase2(
            internet, isp, comcast_result, aliases=AliasSets([]),
            refiner=RegionRefiner(remove_false_edges=True),
        )
        degraded_without = _rerun_phase2(
            internet, isp, comcast_result, aliases=AliasSets([]),
            refiner=RegionRefiner(remove_false_edges=False),
        )
        return degraded_with, degraded_without

    degraded_with, degraded_without = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    false_with = _false_edge_count(internet, isp, degraded_with)
    false_without = _false_edge_count(internet, isp, degraded_without)
    survivors = sum(
        1
        for region in degraded_without.values()
        for a, b in region.graph.edges
        if a not in region.agg_cos and b not in region.agg_cos
    )
    print(f"\nAblation (no false-edge removal, aliasing degraded): "
          f"{false_without} false CO edges vs {false_with} with §5.2.3; "
          f"{survivors} EdgeCO→EdgeCO edges survive the ablation")
    assert false_without >= false_with
    assert survivors > 0


def test_ablation_mpls_followups(benchmark, internet, charter_result):
    """Without follow-up traces, MPLS false edges pollute the Charter
    midwest region (App. B.2's motivating case)."""
    isp = internet.charter

    def run():
        return _rerun_phase2(internet, isp, charter_result, followups=[])

    without = benchmark.pedantic(run, rounds=1, iterations=1)
    with_followups = charter_result.regions
    edges_without = without["midwest"].graph.number_of_edges()
    edges_with = with_followups["midwest"].graph.number_of_edges()
    f1_without = _scores(internet, isp, {"midwest": without["midwest"]})
    f1_with = _scores(internet, isp, {"midwest": with_followups["midwest"]})
    print("\n" + render_table(
        ["variant", "midwest edges", "midwest edge F1"],
        [
            ["with MPLS follow-ups", edges_with, f"{f1_with:.3f}"],
            ["without (ablated)", edges_without, f"{f1_without:.3f}"],
        ],
        title="Ablation — App. B.2 MPLS pruning in Charter midwest",
    ))
    assert f1_with > f1_without
