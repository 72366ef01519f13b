"""The paper's contribution: CO-level topology inference.

Two-phase methodology (§5): Phase 1 builds router-level observations
(traceroute + rDNS + alias resolution → IP→CO mappings); Phase 2 reads
the corpora through one sufficient-statistics record and builds and
heuristically refines CO-level regional graphs (adjacency pruning,
AggCO identification, star-topology conformance, entry-point
inference).  Plus the AT&T-specific pipeline (§6) and the mobile IPv6
bit-field analysis (§7).
"""

from repro.infer.ip2co import Ip2CoMapper, Ip2CoMapping
from repro.infer.adjacency import AdjacencyExtractor, AdjacencyStats
from repro.infer.stats import SufficientStats
from repro.infer.refine import RegionRefiner, RefineStats
from repro.infer.entries import EntryInferrer
from repro.infer.aggtype import classify_aggregation
from repro.infer.pipeline import CableInferencePipeline, InferredRegion
from repro.infer.att import AttInferencePipeline
from repro.infer.mobile_ipv6 import MobileIPv6Analyzer
from repro.infer.metrics import score_region

__all__ = [
    "AdjacencyExtractor",
    "AttInferencePipeline",
    "MobileIPv6Analyzer",
    "AdjacencyStats",
    "CableInferencePipeline",
    "EntryInferrer",
    "InferredRegion",
    "Ip2CoMapper",
    "Ip2CoMapping",
    "RegionRefiner",
    "RefineStats",
    "SufficientStats",
    "classify_aggregation",
    "score_region",
]
