"""Property tests: the vectorized corpus primitives agree with the
object-graph reference on adversarial corpora — silent hops, TTL gaps,
duplicate addresses, and reversed DPR occurrences."""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.alias.resolve import AliasSets
from repro.corpus import TraceCorpus, adjacent_pair_counts
from repro.infer.adjacency import AdjacencyExtractor, FollowupIndex, FollowupScan
from repro.infer.ip2co import Ip2CoMapper
from repro.infer.stats import SufficientStats
from repro.measure.traceroute import Hop, TraceResult
from repro.net.dns import RdnsStore

#: A deliberately tiny alphabet so duplicates, reversed occurrences,
#: and pair collisions are common rather than rare.
ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.1.1", "10.0.2.1")

@st.composite
def trace_lists(draw):
    traces = []
    for _ in range(draw(st.integers(0, 5))):
        entries = draw(st.lists(
            st.one_of(st.none(), st.sampled_from(ADDRESSES)),
            min_size=0, max_size=6,
        ))
        hops = []
        index = 0
        for address in entries:
            # Occasional TTL gaps: unresponsive probes that were
            # dropped entirely rather than recorded as silent hops.
            index += draw(st.integers(1, 2))
            hops.append(Hop(index, address))
        traces.append(TraceResult(
            "192.0.2.1",
            draw(st.sampled_from(ADDRESSES)),
            hops,
            completed=draw(st.booleans()),
        ))
    return traces


@given(trace_lists())
def test_pair_counts_match_object_counter(traces):
    corpus = TraceCorpus.from_traces(traces)
    table = corpus.addresses
    for exclude in (False, True):
        reference: Counter = Counter()
        for trace in traces:
            reference.update(
                trace.adjacent_pairs(exclude_final_echo=exclude)
            )
        columnar = [
            ((table[first], table[second]), count)
            for first, second, count in adjacent_pair_counts(
                corpus, exclude_final_echo=exclude
            )
        ]
        # Equality of the *lists* asserts first-occurrence ordering
        # too, not just multiset equality.
        assert columnar == list(reference.items())


@given(trace_lists())
def test_followup_index_matches_reference_scan(traces):
    corpus = TraceCorpus.from_traces(traces)
    from_objects = FollowupIndex(traces)
    from_columns = FollowupIndex.from_columnar(corpus)
    reference = FollowupScan(traces)
    for first in ADDRESSES:
        for second in ADDRESSES:
            expected = reference.separated(first, second)
            assert from_objects.separated(first, second) == expected
            assert from_columns.separated(first, second) == expected


#: rDNS names for the alphabet and two non-responding p2p peers, so
#: stage 3 gets votes (10.0.1.2 names 10.0.1.1's router) and
#: conflicting ones (10.0.2.2 claims a different CO than 10.0.2.1).
NAMES = {
    "10.0.0.1": ("r1", "coa"),
    "10.0.0.2": ("r1", "cob"),
    "10.0.1.2": ("r1", "coc"),
    "10.0.2.1": ("r2", "cod"),
    "10.0.2.2": ("r1", "coa"),
}
#: An alias group whose members disagree, so stage 2 records a tie.
ALIAS_GROUP = {"10.0.0.1", "10.0.0.2"}


@given(trace_lists(), trace_lists(), st.booleans())
def test_fold_and_columnar_records_agree(traces, followups, with_aliases):
    """The per-trace fold and the columnar reductions build equal
    records, and the stages read them to identical output."""
    folded = SufficientStats.from_traces(traces, followups)
    columnar = SufficientStats.from_corpus(
        TraceCorpus.from_traces(traces), TraceCorpus.from_traces(followups)
    )
    assert columnar.observed == folded.observed
    # Item lists, not counters: first-occurrence order must match too.
    assert list(columnar.pairs.items()) == list(folded.pairs.items())
    assert list(columnar.peer_pairs.items()) == list(folded.peer_pairs.items())
    assert columnar.followups._spans == folded.followups._spans
    assert (columnar.traces, len(columnar.followups)) == (
        folded.traces, len(folded.followups)
    )

    rdns = RdnsStore()
    for address, (region, co) in NAMES.items():
        rdns.set(address, f"ae-1-ar01.{co}.co.{region}.comcast.net")
    aliases = AliasSets([ALIAS_GROUP] if with_aliases else [])

    def infer(stats):
        mapping = Ip2CoMapper(rdns, "comcast").build(stats, aliases)
        return mapping, AdjacencyExtractor(mapping, rdns, "comcast").extract(stats)

    map_f, adj_f = infer(folded)
    map_c, adj_c = infer(columnar)
    assert map_c.mapping == map_f.mapping
    assert map_c.stats == map_f.stats
    assert map_c.conflicts == map_f.conflicts
    assert adj_c.stats == adj_f.stats
    assert adj_c.per_region == adj_f.per_region
    assert list(adj_c.per_region) == list(adj_f.per_region)
    assert adj_c.backbone_pairs == adj_f.backbone_pairs
    assert adj_c.cross_region_pairs == adj_f.cross_region_pairs
