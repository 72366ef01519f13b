"""End-to-end benchmark of real cable campaigns, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload comcast-campaign --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times set-up, the campaign and replay passes with no
wrappers installed and prints the end-to-end metrics, their times
scaled to a reference host speed (see ``workloads.HostSpeed``; the
unscaled wall and CPU seconds are printed too).  ``replay_s`` is
the workload's replay pass under one name, so that every workload
reports every metric; each run also prints it under its own name
(``reanalyse_s``, ``reinfer_s`` or ``stream_s``).  ``--trace 1`` runs
the campaign once untraced and once with wrappers around the program's
layer functions, then one traced replay pass (plus, for
``charter-checkpoint``, a traced ``charter-sharded`` campaign and
stream pass), and prints the per-layer metrics plus the layer tables.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every timed operation passed its correctness check; it is 2 when
the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys

import layers
import workloads as wl
from summary import percentile, tail_percentile
from tracing import LayerTracer

#: Scratch directory for checkpoints and exported regions, under the
#: checkout the benchmark runs from; removed when the run ends.
WORKDIR_NAME = ".perfbench_work"

#: (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("replay_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
)

#: (name, unit) of the per-layer metrics that need more than one
#: record; the rest come from :data:`layers.RECORD_METRICS`.
DERIVED = (
    ("tracing_overhead", "ratio"),
    ("host_scale", "ratio"),
    ("setup_wall_s", "s"),
    ("setup_cpu_s", "s"),
    ("campaign_untraced_s", "s"),
    ("campaign_untraced_cpu_s", "s"),
    ("campaign_traced_s", "s"),
    ("campaign_traced_cpu_s", "s"),
    ("replay_traced_s", "s"),
    ("replay_traced_cpu_s", "s"),
    ("measure.trace_p50_us", "us"),
    ("measure.trace_p99_us", "us"),
    ("measure.hops_per_trace", "ratio"),
    ("measure.probes_sent", "count"),
    ("measure.probes_retried", "count"),
    ("measure.probes_lost", "count"),
    ("measure.probes_refused", "count"),
    ("measure.retry_yield", "ratio"),
    ("supervisor.shards", "count"),
    ("supervisor.shards_retried", "count"),
    ("supervisor.workers_spawned", "count"),
    ("io.checkpoint_bytes_written", "B"),
    ("replay.checkpoint_bytes_read", "B"),
    ("infer.cache_hit_ratio", "ratio"),
    ("replay.cache_hit_ratio", "ratio"),
    ("work.traces", "count"),
    ("work.followup_traces", "count"),
    ("work.probes", "count"),
    ("work.hops", "count"),
    ("work.regions", "count"),
    ("work.checkpoint_saves", "count"),
    ("work.snapshots", "count"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1.
PER_LAYER = DERIVED + tuple((name, unit) for name, unit, *_ in layers.RECORD_METRICS)

#: Per-layer metrics where a higher value is better (BENCHMARK.json).
HIGHER_IS_BETTER = {"measure.retry_yield", "infer.cache_hit_ratio",
                    "replay.cache_hit_ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of replay passes per run (at least "
                             f"{wl.MIN_PASSES}, at most {wl.MAX_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS in MiB: this process plus, for *workers* supervised
    workers, that many times the largest worker's peak (the workers of
    a stage run at the same time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child * max(1, workers)) / 1024.0


def clear_program_memos() -> None:
    """Drop the program's process-wide memos so a second campaign in
    this process starts as cold as the first."""
    from repro.perf import cache

    clear = getattr(cache, "clear_module_memos", None)
    if clear is not None:
        clear()


def stop_resource_tracker() -> None:
    """Stop the helper process that spawning workers starts, and wait for it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def print_operations(ledger) -> None:
    for op in ledger.operations:
        verdict = "ok" if op.ok else "FAILED"
        print(f"op {op.label}: wall {op.wall:.4f} s, cpu {op.cpu:.4f} s, "
              f"{verdict} ({op.detail})")


def print_work(counts) -> None:
    print("work " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def result_line(ledger, values, units) -> str:
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    })


def count_checkpoint_saves() -> LayerTracer:
    """A wrapper on ``CampaignCheckpoint.save`` only: a few dozen calls
    per campaign, so it costs nothing measurable."""
    counter = LayerTracer()
    counter.patch_path("repro.io.checkpoint:CampaignCheckpoint.save",
                       "CampaignCheckpoint.save")
    return counter


def run_counts(done, records, outcome) -> "dict[str, int]":
    """The campaign's work counts plus checkpoint saves (from the
    records of a wrapper on ``CampaignCheckpoint.save``) and the
    snapshots of the last replay pass."""
    counts = wl.work_counts(done)
    counts["checkpoint_saves"] = layers.record_value(
        records, "calls", ("CampaignCheckpoint.save",))
    counts["snapshots"] = outcome.get("snapshots", 0)
    return counts


# ----------------------------------------------------------------------
def run_untraced(args, workload, workdir):
    host = wl.HostSpeed()
    ledger = wl.Ledger(host)
    setup = wl.Setup(ledger, args.seed)
    substrate = setup.build(wl.SETUP_BEFORE)
    saves = count_checkpoint_saves()
    done = None
    outcome = {}
    try:
        if substrate is None:
            ledger.skipped("campaign", "no substrate")
        else:
            done = wl.run_campaign(ledger, "campaign", workload, substrate,
                                   args.seed, workdir / "campaign")
        if done is None:
            ledger.skipped("replay", "no finished campaign")
        else:
            # The campaign's corpus lives until the run ends; keep the
            # collector from re-walking it during every later operation.
            gc.collect()
            gc.freeze()
            outcome = wl.run_replays(
                ledger, "replay", workload, substrate, args.seed, done,
                args.seconds, between=lambda: setup.build(wl.SETUP_BETWEEN),
            )
    finally:
        saves.uninstall()
    peak = peak_rss_mb(workload.workers)
    print_operations(ledger)
    if done is not None:
        print_work(run_counts(done, saves.records, outcome))

    def median(values):
        return statistics.median(values) if values else 0.0

    print(f"host: {len(host.samples)} calibration samples, median "
          f"{statistics.median(host.samples) * 1e3:.3f} ms a round against "
          f"{wl.CALIBRATION_REFERENCE_S * 1e3:.3f} ms at the reference speed")
    for kind, prefix in (("setup", "setup#"), ("campaign", "campaign"),
                         ("replay", "replay#")):
        print(f"{kind}: median wall {median(ledger.walls(prefix)):.4f} s, "
              f"median cpu {median(ledger.cpus(prefix)):.4f} s (unscaled)")
    values = {
        "setup_s": median(ledger.scaled("setup#")),
        "campaign_s": median(ledger.scaled("campaign")),
        "replay_s": median(ledger.scaled("replay#")),
        "peak_rss_mb": peak,
        "success_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    for name, unit in END_TO_END:
        print(f"metric {name} = {values[name]:.6f} {unit}")
    named, what = wl.REPLAYS[workload.replay]
    print(f"metric {named} = {values['replay_s']:.6f} s (replay_s here: {what})")
    return ledger, values, END_TO_END


def traced_campaign(ledger, tracer, label, workload, substrate, seed, workdir):
    """One traced campaign and one traced replay pass over it.

    Returns (campaign, replay outcome, campaign records, replay records,
    per-trace latency samples); the campaign is None when it failed.
    """
    tracer.reset()
    done = wl.run_campaign(ledger, f"{label}-traced", workload, substrate,
                           seed, workdir / label)
    campaign_records = dict(tracer.records)
    latency = list(tracer.samples["Tracerouter.trace"])
    tracer.reset()
    outcome = {}
    if done is not None:
        outcome = wl.run_replays(ledger, f"{label}-replay-traced", workload,
                                 substrate, seed, done, 0.0, passes=(1, 1))
    return done, outcome, campaign_records, dict(tracer.records), latency


def run_traced(args, workload, workdir):
    # No calibration samples during operations here: their timer
    # signal would land inside the wrapped functions' busy time.
    host = wl.HostSpeed()
    host.sample()
    ledger = wl.Ledger()
    setup = wl.Setup(ledger, args.seed)
    substrate = setup.build()
    reference = None
    if substrate is not None:
        reference = wl.run_campaign(ledger, "campaign-untraced", workload,
                                    substrate, args.seed, workdir / "untraced")
    if reference is None:
        print_operations(ledger)
        return ledger, None, PER_LAYER
    untraced = ledger.operations[-1]
    reference_digest = reference.digest
    reference = None  # free it before the traced run
    clear_program_memos()
    # A fresh substrate: the first campaign advanced router state.
    substrate = setup.build()

    also = wl.WORKLOADS.get(workload.traced_also)
    also_substrate = setup.build() if also is not None else None
    tracer = LayerTracer(samples=("Tracerouter.trace",))
    installed = layers.install(tracer)
    counts = supervisor = None
    try:
        done, outcome, campaign_records, replay_records, latency = traced_campaign(
            ledger, tracer, "campaign", workload, substrate, args.seed, workdir)
        traced = next(op for op in ledger.operations if op.label == "campaign-traced")
        replay_op = ledger.operations[-1]
        if done is not None:
            ledger.timed("traced-digest", lambda: done.digest,
                         wl.digest_check(reference_digest, "traced digest"))
            counts = run_counts(done, campaign_records, outcome)
            cache_ratio = wl.cache_hit_ratio(done.pipeline)
            done = None
        phases = {"campaign": campaign_records, "replay": replay_records,
                  "sharded": campaign_records if workload.workers else {},
                  "stream": replay_records if workload.replay == "stream" else {}}
        if workload.workers:
            supervisor = counts
        if also_substrate is not None and counts is not None:
            clear_program_memos()
            other, _out, phases["sharded"], phases["stream"], _lat = traced_campaign(
                ledger, tracer, also.name, also, also_substrate, args.seed, workdir)
            if other is not None:
                supervisor = wl.work_counts(other)
    finally:
        tracer.uninstall()
    host.sample()
    print_operations(ledger)
    print(f"wrapped {len(installed)} of {len(layers.TARGETS)} targets")
    if counts is None:
        return ledger, None, PER_LAYER

    print_work(counts)
    overhead = traced.wall / untraced.wall
    print(f"tracing overhead: traced campaign {traced.wall:.4f} s / untraced "
          f"{untraced.wall:.4f} s = {overhead:.4f}")
    print_latency(latency)
    titles = {"campaign": "campaign", "replay": f"replay ({workload.replay})",
              "sharded": f"{also.name} campaign" if also else "",
              "stream": f"{also.name} replay ({also.replay})" if also else ""}
    shown = ("campaign", "replay") + (("sharded", "stream") if also else ())
    for phase in shown:
        for line in layers.roadmap_lines(phases[phase], titles[phase]):
            print(line)
    for phase in shown:
        for line in layers.table_lines(phases[phase], titles[phase]):
            print(line)
    if supervisor is not None:
        print("supervisor: " + ", ".join(
            f"{name}={supervisor[name]}"
            for name in ("shards", "shards_retried", "workers_spawned")))

    written, read = layers.checkpoint_bytes(campaign_records, replay_records)
    tail = tail_percentile(len(latency))
    values = layers.record_metrics(phases)
    values.update({
        "tracing_overhead": overhead,
        "host_scale": host.scale(),
        "setup_wall_s": statistics.median(ledger.walls("setup#")),
        "setup_cpu_s": statistics.median(ledger.cpus("setup#")),
        "campaign_untraced_s": untraced.wall,
        "campaign_untraced_cpu_s": untraced.cpu,
        "campaign_traced_s": traced.wall,
        "campaign_traced_cpu_s": traced.cpu,
        "replay_traced_s": replay_op.wall,
        "replay_traced_cpu_s": replay_op.cpu,
        "measure.trace_p50_us": percentile(latency, 50) * 1e6 if latency else 0.0,
        "measure.trace_p99_us": (percentile(latency, 99) * 1e6
                                 if tail is not None and tail >= 99 else 0.0),
        "measure.hops_per_trace": counts["hops"] / max(
            1, counts["traces"] + counts["followup_traces"]),
        "measure.probes_sent": counts["probes"],
        "measure.probes_retried": counts["probes_retried"],
        "measure.probes_lost": counts["probes_lost"],
        "measure.probes_refused": counts["probes_refused"],
        "measure.retry_yield": (counts["retry_answers"] / counts["probes_retried"]
                                if counts["probes_retried"] else 0.0),
        "io.checkpoint_bytes_written": written,
        "replay.checkpoint_bytes_read": read,
        "infer.cache_hit_ratio": cache_ratio,
        "replay.cache_hit_ratio": outcome.get("cache_hit_ratio", 0.0),
    })
    for name in ("shards", "shards_retried", "workers_spawned"):
        values[f"supervisor.{name}"] = supervisor[name] if supervisor else 0
    for name in ("traces", "followup_traces", "probes", "hops", "regions",
                 "checkpoint_saves", "snapshots"):
        values[f"work.{name}"] = counts[name]
    for name, unit in PER_LAYER:
        print(f"metric {name} = {values[name]} {unit}")
    return ledger, values, PER_LAYER


def print_latency(samples) -> None:
    """Per-trace latency at p50 and the highest well-sampled tail."""
    if not samples:
        print("trace latency: no in-process traces (probing ran in workers)")
        return
    tail = tail_percentile(len(samples))
    line = (f"trace latency: n={len(samples)}, p50 "
            f"{percentile(samples, 50) * 1e6:.1f} us")
    if tail is not None:
        line += f", p{tail:g} {percentile(samples, tail) * 1e6:.1f} us"
    print(line)


def main(argv=None) -> int:
    root = pathlib.Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {source / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    scratch = root / WORKDIR_NAME
    workdir = scratch / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Temporary files of the program and its workers stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.trace:
            ledger, values, units = run_traced(args, workload, workdir)
        else:
            ledger, values, units = run_untraced(args, workload, workdir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if values is None:
        values = {name: 0.0 for name, _unit in units}
    print(result_line(ledger, values, units))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
