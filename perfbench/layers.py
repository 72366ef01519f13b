"""Which program functions the traced run wraps, and how they are reported.

Layers use the program's module names.  Each target is
``(layer, "module:Class.attr", label, units)``; a target that does not
exist (for instance ``build_columnar`` once the object and columnar
inference paths are merged) is skipped, so the benchmark survives
refactors of the code it measures.

:data:`RECORD_METRICS` turns the aggregated records of one phase of
the traced run (the campaign, or one replay pass) into per-layer
metrics; ``run.py`` adds the metrics that need more than one record.
"""

from __future__ import annotations

import os

from tracing import LayerTracer


def _stage_label(prefix):
    def label(args, kwargs):
        stage = kwargs.get("stage", args[2] if len(args) > 2 else "campaign")
        return f"{prefix}[{stage}]"

    return label


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _utf8_len(args, kwargs, result) -> int:
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return len(text.encode("utf-8"))


#: (layer, target, label, units(args, kwargs, result) or None)
TARGETS = (
    ("net", "repro.net.network:Network.route_target", "Network.route_target", None),
    ("net", "repro.net.network:Network.forwarding_path", "Network.forwarding_path", None),
    ("net", "repro.net.network:Network.path_delays_ms", "Network.path_delays_ms", None),
    ("net", "repro.net.network:Network.inbound_interfaces", "Network.inbound_interfaces", None),
    ("net", "repro.net.mpls:MplsDomain.visible_path", "MplsDomain.visible_path", None),
    ("net", "repro.net.router:Router.probe_response", "Router.probe_response", None),
    ("net", "repro.net.router:Router.reply_address", "Router.reply_address", None),
    ("net", "repro.net.dns:RdnsStore.dig", "RdnsStore.dig", None),
    ("measure", "repro.measure.traceroute:Tracerouter.trace", "Tracerouter.trace",
     lambda a, k, r: len(r.hops)),
    ("measure", "repro.measure.runner:CampaignRunner.run",
     _stage_label("CampaignRunner.run"), lambda a, k, r: len(r)),
    ("measure", "repro.measure.supervisor:SupervisedCampaignRunner.run",
     _stage_label("SupervisedCampaignRunner.run"), lambda a, k, r: len(r)),
    ("io", "repro.io.checkpoint:CampaignCheckpoint.save", "CampaignCheckpoint.save", None),
    ("io", "repro.io.checkpoint:atomic_write_text", "checkpoint.atomic_write_text", _utf8_len),
    ("io", "repro.io.checkpoint:CampaignCheckpoint.load", "CampaignCheckpoint.load",
     lambda a, k, r: _file_size(r.path)),
    ("io", "repro.io.checkpoint:CampaignCheckpoint.stage_traces",
     "CampaignCheckpoint.stage_traces", lambda a, k, r: len(r)),
    ("io", "repro.io.export:region_to_json", "region_to_json", None),
    ("corpus", "repro.corpus.columnar:TraceCorpus.from_traces", "TraceCorpus.from_traces",
     lambda a, k, r: r.hop_count),
    ("corpus", "repro.corpus.columnar:TraceCorpus.to_traces", "TraceCorpus.to_traces",
     lambda a, k, r: sum(len(t.hops) for t in r)),
    ("corpus", "repro.corpus:save_corpus", "save_corpus", lambda a, k, r: _file_size(r)),
    ("corpus", "repro.corpus.binio:save_corpus", "save_corpus", lambda a, k, r: _file_size(r)),
    ("corpus", "repro.corpus:load_corpus", "load_corpus", lambda a, k, r: _file_size(a[0])),
    ("corpus", "repro.corpus.binio:load_corpus", "load_corpus", lambda a, k, r: _file_size(a[0])),
    ("alias", "repro.alias.resolve:AliasResolver.resolve", "AliasResolver.resolve",
     lambda a, k, r: len(a[2]) if len(a) > 2 else len(k.get("addresses", ()))),
    ("infer", "repro.infer.ip2co:Ip2CoMapper.build", "Ip2CoMapper.build", None),
    ("infer", "repro.infer.ip2co:Ip2CoMapper.build_columnar", "Ip2CoMapper.build_columnar", None),
    ("infer", "repro.infer.adjacency:AdjacencyExtractor.extract", "AdjacencyExtractor.extract", None),
    ("infer", "repro.infer.adjacency:AdjacencyExtractor.extract_columnar",
     "AdjacencyExtractor.extract_columnar", None),
    ("infer", "repro.infer.refine:RegionRefiner.refine", "RegionRefiner.refine", None),
    ("infer", "repro.infer.entries:EntryInferrer.backbone_entries",
     "EntryInferrer.backbone_entries", None),
    ("infer", "repro.infer.entries:EntryInferrer.inter_region_entries",
     "EntryInferrer.inter_region_entries", None),
    ("validate", "repro.validate.invariants:InvariantGuard.check_mapping",
     "InvariantGuard.check_mapping", None),
    ("validate", "repro.validate.invariants:InvariantGuard.check_adjacencies",
     "InvariantGuard.check_adjacencies", None),
    ("validate", "repro.validate.invariants:InvariantGuard.check_region",
     "InvariantGuard.check_region", None),
    ("bias", "repro.bias.incremental:IncrementalCoGraph.ingest", "IncrementalCoGraph.ingest", None),
    ("bias", "repro.bias.incremental:IncrementalCoGraph.ingest_followup",
     "IncrementalCoGraph.ingest_followup", None),
    ("bias", "repro.bias.incremental:IncrementalCoGraph.snapshot", "IncrementalCoGraph.snapshot", None),
)

RUNNER_PREFIXES = ("CampaignRunner.run[", "SupervisedCampaignRunner.run[")
IP2CO = ("Ip2CoMapper.build", "Ip2CoMapper.build_columnar")
ADJACENCY = ("AdjacencyExtractor.extract", "AdjacencyExtractor.extract_columnar")
ENTRIES = ("EntryInferrer.backbone_entries", "EntryInferrer.inter_region_entries")
VALIDATE = ("InvariantGuard.check_mapping", "InvariantGuard.check_adjacencies",
            "InvariantGuard.check_region")
CHECKPOINT_WRITES = ("checkpoint.atomic_write_text", "save_corpus")
STAGES = ("slash24", "rdns", "followup")

#: ROADMAP item 1's per-layer order; each row sums the named labels
#: (all parents).  "hop emission" is the trace loop's own time plus
#: reply-address selection.
ROADMAP_ROWS = (
    ("route lookup", ("Network.route_target",)),
    ("path", ("Network.forwarding_path", "Network.inbound_interfaces",
              "Network.path_delays_ms", "MplsDomain.visible_path")),
    ("probe decision", ("Router.probe_response",)),
    ("hop emission", ("Tracerouter.trace:self", "Router.reply_address")),
    ("rDNS", ("RdnsStore.dig",)),
    ("aliases", ("AliasResolver.resolve",)),
    ("ip2co", IP2CO),
    ("adjacency", ADJACENCY),
    ("refine", ("RegionRefiner.refine",)),
    ("export", ("region_to_json",)),
)

_NET = (
    ("route_target", "Network.route_target"),
    ("forwarding_path", "Network.forwarding_path"),
    ("path_delays_ms", "Network.path_delays_ms"),
    ("inbound_interfaces", "Network.inbound_interfaces"),
    ("visible_path", "MplsDomain.visible_path"),
    ("probe_response", "Router.probe_response"),
    ("reply_address", "Router.reply_address"),
    ("rdns_dig", "RdnsStore.dig"),
)

#: (metric, unit, phase, field, labels): the metric is *field* summed
#: over every record of *labels* in *phase*: "campaign" and "replay"
#: are the workload's own campaign and replay pass, "sharded" and
#: "stream" a campaign on supervised workers and a stream pass (the
#: workload's own when it is one, else the ones its traced run adds).
#: Fields: ``calls``, ``busy`` (seconds), ``self`` (busy minus wrapped
#: children), ``units`` (the target's unit hook: bytes, hops, addresses)
#: and ``top`` (busy of records whose parent is not a campaign runner,
#: so a supervised stage that replays through the serial runner counts
#: once).
RECORD_METRICS = tuple(
    [m for short, label in _NET for m in (
        (f"net.{short}.calls", "count", "campaign", "calls", (label,)),
        (f"net.{short}_s", "s", "campaign", "busy", (label,)),
    )]
    + [
        ("measure.trace.calls", "count", "campaign", "calls", ("Tracerouter.trace",)),
        ("measure.trace_s", "s", "campaign", "busy", ("Tracerouter.trace",)),
        ("measure.trace_self_s", "s", "campaign", "self", ("Tracerouter.trace",)),
    ]
    + [(f"measure.run.{stage}_s", "s", "campaign", "top",
        tuple(prefix + stage + "]" for prefix in RUNNER_PREFIXES)) for stage in STAGES]
    + [
        ("supervisor.run_s", "s", "sharded", "top",
         tuple(f"SupervisedCampaignRunner.run[{stage}]" for stage in STAGES)),
        ("io.checkpoint_save.calls", "count", "campaign", "calls", ("CampaignCheckpoint.save",)),
        ("io.checkpoint_save_s", "s", "campaign", "busy", ("CampaignCheckpoint.save",)),
        ("io.export_s", "s", "campaign", "busy", ("region_to_json",)),
        ("corpus.from_traces.calls", "count", "campaign", "calls", ("TraceCorpus.from_traces",)),
        ("corpus.from_traces_s", "s", "campaign", "busy", ("TraceCorpus.from_traces",)),
        ("corpus.from_traces_hops", "count", "campaign", "units", ("TraceCorpus.from_traces",)),
        ("corpus.save.calls", "count", "campaign", "calls", ("save_corpus",)),
        ("corpus.save_s", "s", "campaign", "busy", ("save_corpus",)),
        ("alias.resolve_s", "s", "campaign", "busy", ("AliasResolver.resolve",)),
        ("alias.addresses", "count", "campaign", "units", ("AliasResolver.resolve",)),
        ("infer.ip2co_s", "s", "campaign", "busy", IP2CO),
        ("infer.adjacency_s", "s", "campaign", "busy", ADJACENCY),
        ("infer.refine_s", "s", "campaign", "busy", ("RegionRefiner.refine",)),
        ("infer.entries_s", "s", "campaign", "busy", ENTRIES),
        ("validate.check.calls", "count", "campaign", "calls", VALIDATE),
        ("validate.check_s", "s", "campaign", "busy", VALIDATE),
        ("replay.checkpoint_load_s", "s", "replay", "busy", ("CampaignCheckpoint.load",)),
        ("replay.stage_traces_s", "s", "replay", "busy", ("CampaignCheckpoint.stage_traces",)),
        ("replay.corpus_load.calls", "count", "replay", "calls", ("load_corpus",)),
        ("replay.corpus_load_s", "s", "replay", "busy", ("load_corpus",)),
        ("replay.to_traces.calls", "count", "replay", "calls", ("TraceCorpus.to_traces",)),
        ("replay.to_traces_s", "s", "replay", "busy", ("TraceCorpus.to_traces",)),
        ("replay.to_traces_hops", "count", "replay", "units", ("TraceCorpus.to_traces",)),
        ("replay.from_traces_s", "s", "replay", "busy", ("TraceCorpus.from_traces",)),
        ("replay.alias_s", "s", "replay", "busy", ("AliasResolver.resolve",)),
        ("replay.alias_addresses", "count", "replay", "units", ("AliasResolver.resolve",)),
        ("replay.ip2co_s", "s", "replay", "busy", IP2CO),
        ("replay.adjacency_s", "s", "replay", "busy", ADJACENCY),
        ("replay.refine_s", "s", "replay", "busy", ("RegionRefiner.refine",)),
        ("replay.entries_s", "s", "replay", "busy", ENTRIES),
        ("replay.validate_s", "s", "replay", "busy", VALIDATE),
        ("bias.ingest.calls", "count", "stream", "calls",
         ("IncrementalCoGraph.ingest", "IncrementalCoGraph.ingest_followup")),
        ("bias.ingest_s", "s", "stream", "busy",
         ("IncrementalCoGraph.ingest", "IncrementalCoGraph.ingest_followup")),
        ("bias.snapshot.calls", "count", "stream", "calls", ("IncrementalCoGraph.snapshot",)),
        ("bias.snapshot_s", "s", "stream", "busy", ("IncrementalCoGraph.snapshot",)),
    ]
)

LAYER_OF = {label: layer for layer, _t, label, _u in TARGETS if isinstance(label, str)}


def install(tracer: LayerTracer) -> "list[str]":
    """Wrap every target that exists; returns the targets installed."""
    installed = []
    for _layer, target, label, units in TARGETS:
        if tracer.patch_path(target, label, units):
            installed.append(target)
    return installed


def layer_of(label: str) -> str:
    if label.startswith(RUNNER_PREFIXES):
        return "measure"
    return LAYER_OF.get(label, "?")


def record_value(records, field: str, labels) -> "float | int":
    """*field* summed over the records of *labels*, across parents."""
    wanted = set(labels)
    total = 0
    for (parent, label), record in records.items():
        if label not in wanted:
            continue
        if field == "calls":
            total += record.calls
        elif field == "busy":
            total += record.busy
        elif field == "self":
            total += record.self_time
        elif field == "units":
            total += record.units
        elif field == "top":
            if not parent.startswith(RUNNER_PREFIXES):
                total += record.busy
        else:
            raise ValueError(f"unknown record field {field!r}")
    return total


def record_metrics(phases) -> "dict[str, float | int]":
    """Every :data:`RECORD_METRICS` value from ``{phase: records}``."""
    return {
        name: record_value(phases.get(phase, {}), field, labels)
        for name, _unit, phase, field, labels in RECORD_METRICS
    }


def checkpoint_bytes(campaign_records, replay_records) -> "tuple[int, int]":
    """Checkpoint bytes written by saves during the campaign, and read
    by a replay (the JSON document plus corpus sidecars)."""
    written = sum(
        record.units for (parent, label), record in campaign_records.items()
        if parent == "CampaignCheckpoint.save" and label in CHECKPOINT_WRITES
    )
    read = sum(
        record.units for (parent, label), record in replay_records.items()
        if label == "CampaignCheckpoint.load"
        or (label == "load_corpus" and parent == "CampaignCheckpoint.stage_traces")
    )
    return written, read


def table_lines(records, title: str) -> "list[str]":
    """Every (parent, name) record, grouped by layer."""
    order = ("net", "measure", "io", "corpus", "alias", "infer", "validate", "bias", "?")
    rows = sorted(
        records.items(),
        key=lambda item: (order.index(layer_of(item[0][1])), item[0][1], item[0][0]),
    )
    lines = [f"layers {title}: layer | name | parent | calls | busy_s | self_s | units"]
    for (parent, label), record in rows:
        lines.append(
            f"  {layer_of(label):8} | {label} | {parent or '-'} | {record.calls} | "
            f"{record.busy:.6f} | {record.self_time:.6f} | {record.units}"
        )
    return lines


def roadmap_lines(records, title: str) -> "list[str]":
    """The ROADMAP item 1 rows, route lookup ... export, for one phase."""
    lines = [f"roadmap layers {title}: row | calls | busy_s"]
    for row, labels in ROADMAP_ROWS:
        names = tuple(dict.fromkeys(label.partition(":")[0] for label in labels))
        seconds = sum(
            record_value(records, "self" if part == "self" else "busy", (name,))
            for name, _, part in (label.partition(":") for label in labels)
        )
        lines.append(f"  {row:14} | {record_value(records, 'calls', names)} | {seconds:.6f}")
    return lines
