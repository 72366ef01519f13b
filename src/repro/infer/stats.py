"""The sufficient statistics of phase 2 (App. B.1 and B.2).

No phase-2 stage needs the traces themselves.  IP→CO mapping and
adjacency pruning read the corpus through four aggregates:

* the responding addresses plus their point-to-point peers (the
  addresses stage 1 maps);
* adjacent responding address pairs with occurrence counts, in
  first-occurrence order (adjacency extraction lifts them to CO pairs);
* the same pairs, without the ones that end at a completed trace's
  echo reply, with the second address replaced by its point-to-point
  peer (what the stage-3 vote counts);
* the follow-up (DPR) corpus, as an object answering
  ``separated(first, second)`` (MPLS pruning).

:class:`SufficientStats` holds exactly these.  It has two producers: a
per-trace fold (:meth:`~SufficientStats.add_trace`,
:meth:`~SufficientStats.add_followup`), used by streaming inference and
by batch runs over object corpora, and :meth:`~SufficientStats.from_corpus`,
the numpy reductions over a columnar corpus.  Both give equal records —
the pair counters in the same order — so
:meth:`~repro.infer.ip2co.Ip2CoMapper.build` and
:meth:`~repro.infer.adjacency.AdjacencyExtractor.extract`, the record's
only consumers, produce identical output whichever built it.
"""

from __future__ import annotations

from collections import Counter

from repro.infer.adjacency import FollowupIndex
from repro.measure.traceroute import TraceResult
from repro.net.addresses import p2p_peer_str


class SufficientStats:
    """Everything phase 2 reads from the primary and follow-up corpora."""

    def __init__(self, p2p_prefixlen: int = 30, followups=None) -> None:
        #: Point-to-point subnet length the peers are derived at.
        self.p2p_prefixlen = p2p_prefixlen
        #: Addresses that responded at some hop of a primary trace,
        #: plus their p2p-subnet peers.
        self.observed: "set[str]" = set()
        #: (first, second) adjacent responding pair -> occurrences,
        #: insertion-ordered by first occurrence.
        self.pairs: "Counter[tuple[str, str]]" = Counter()
        #: (previous hop, p2p peer of the next hop) -> occurrences, in
        #: first-occurrence order: the peer of an inbound interface
        #: sits on the previous-hop router, and stage 3 votes with it.
        #: Pairs ending at the echo reply of a completed trace are left
        #: out: that reply carries the probed address, not an inbound
        #: interface.
        self.peer_pairs: "Counter[tuple[str, str]]" = Counter()
        #: The follow-up corpus: a :class:`FollowupIndex` unless a
        #: caller plugs in an equivalent (the reference scan).
        self.followups = followups if followups is not None else FollowupIndex()
        #: Primary traces folded in.
        self.traces = 0

    def add_trace(self, trace: TraceResult) -> None:
        """Fold one primary trace: one walk derives both pair counts.

        Pairs are two *consecutive* hops that both responded; a silent
        hop between two addresses breaks adjacency, exactly as
        :meth:`TraceResult.adjacent_pairs` does.
        """
        hops = trace.hops
        observed = self.observed
        prefixlen = self.p2p_prefixlen
        pairs = self.pairs
        peer_pairs = self.peer_pairs
        echo_index = hops[-1].index if hops and trace.completed else None
        previous = None
        for hop in hops:
            address = hop.address
            if address is None:
                previous = None
                continue
            observed.add(address)
            peer = p2p_peer_str(address, prefixlen)
            if peer is not None:
                observed.add(peer)
            if previous is not None:
                pairs[(previous, address)] += 1
                if peer is not None and hop.index != echo_index:
                    peer_pairs[(previous, peer)] += 1
            previous = address
        self.traces += 1

    def add_followup(self, trace: TraceResult) -> None:
        """Fold one follow-up (DPR) trace into the follow-up slot."""
        self.followups.add(trace)

    @classmethod
    def from_traces(cls, traces, followup_traces=(), p2p_prefixlen: int = 30,
                    followups=None) -> "SufficientStats":
        """The per-trace fold over whole corpora, in order; *followups*
        is the slot the follow-up traces fold into (default: a fresh
        :class:`FollowupIndex`)."""
        stats = cls(p2p_prefixlen, followups)
        for trace in traces:
            stats.add_trace(trace)
        for trace in followup_traces:
            stats.add_followup(trace)
        return stats

    @classmethod
    def from_corpus(cls, corpus, followup_corpus=None,
                    p2p_prefixlen: int = 30) -> "SufficientStats":
        """The record of a columnar corpus, from its numpy reductions.

        Peers are derived once per unique address or pair rather than
        once per hop.  :func:`~repro.corpus.columnar.adjacent_pair_counts`
        emits unique pairs in first-occurrence order, so both counters
        are ordered exactly as the per-trace fold orders them.
        """
        from repro.corpus.columnar import adjacent_pair_counts, responding_address_ids

        stats = cls(
            p2p_prefixlen,
            FollowupIndex.from_columnar(followup_corpus)
            if followup_corpus is not None else None,
        )
        table = corpus.addresses
        for addr_id in responding_address_ids(corpus):
            address = table[int(addr_id)]
            stats.observed.add(address)
            peer = p2p_peer_str(address, p2p_prefixlen)
            if peer is not None:
                stats.observed.add(peer)
        for first, second, count in adjacent_pair_counts(corpus):
            stats.pairs[(table[first], table[second])] = count
        for first, second, count in adjacent_pair_counts(corpus, exclude_final_echo=True):
            peer = p2p_peer_str(table[second], p2p_prefixlen)
            if peer is not None:
                stats.peer_pairs[(table[first], peer)] += count
        stats.traces = len(corpus)
        return stats
