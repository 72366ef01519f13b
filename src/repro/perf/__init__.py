"""Performance layer: memoization, profiling, benchmark substrates.

The inference hot path re-derives the same facts millions of times —
``str(parse_ip(...))`` normalization, PTR lookups, hostname regex
parses, point-to-point peer computation.  All of those are pure (or
pure *per epoch* of the rDNS store / fault injector), so this package
holds their memoization where invalidation can be reasoned about in
one place — the two string memos themselves live in
:mod:`repro.net.addresses`, which the rDNS store imports, and are
re-exported here — plus the wall-clock/RSS profiler and the
synthetic-region corpus generator the benchmark harness runs against.
"""

from repro.net.addresses import normalize_address, p2p_peer_str
from repro.perf.cache import (
    InferenceCache,
    memoization_disabled,
    memoization_enabled,
)
from repro.perf.profile import PhaseProfiler

__all__ = [
    "InferenceCache",
    "PhaseProfiler",
    "memoization_disabled",
    "memoization_enabled",
    "normalize_address",
    "p2p_peer_str",
]
