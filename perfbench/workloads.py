"""The benchmark's workloads: real cable campaigns and what follows them.

Every workload is a closed loop with one client: each operation starts
after the previous one has finished.  An untraced run is

1. ``SETUP_BEFORE`` builds of the substrate (simulated internet plus
   vantage-point fleet); the campaign uses the last one;
2. the campaign: :class:`~repro.infer.pipeline.CableInferencePipeline`
   configured as ``repro map-cable`` would be, from a ready substrate to
   region JSON files written to a scratch directory;
3. replay passes over the finished campaign, each followed by
   ``SETUP_BETWEEN`` more substrate builds.

Set-up is reported as the median of every build in the run, and the
builds are spread over the run.  A shared 2-vCPU virtual machine
changes speed, for a few seconds at a time and for minutes at a time,
by up to half again, so every timed operation is sampled with a fixed
calibration loop (:class:`HostSpeed`) just before, every
``SAMPLE_EVERY_S`` during, and just after it, and its time is reported
scaled to the speed at which a round of that loop takes
``CALIBRATION_REFERENCE_S``.

What a replay pass is depends on the workload: see ``Workload.replay``.
Each timed operation is also checked; a failed check counts against
``success_ratio``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pathlib
import signal
import statistics
import time
from dataclasses import dataclass, field

#: Substrate builds before the campaign, and after each replay pass.
SETUP_BEFORE = 3
SETUP_BETWEEN = 2
#: Replay passes per run: at least MIN_PASSES, more while the passes
#: have taken less than ``--seconds``, never more than MAX_PASSES.
MIN_PASSES = 3
MAX_PASSES = 5
#: Iterations in one round of the calibration loop, and its seconds at
#: the speed times are scaled to (about the faster speed of a shared
#: 2-vCPU Xeon virtual machine).
CALIBRATION_ROUND = 100_000
CALIBRATION_REFERENCE_S = 0.005
#: Rounds in a sample taken just before or after an operation, and the
#: interval of the one-round samples taken while it runs.
BRACKET_ROUNDS = 4
SAMPLE_EVERY_S = 0.5
#: A live map takes a snapshot every this many ingested traces.
SNAPSHOT_EVERY = 2000
#: Floor on mean ground-truth edge F1 across inferred regions; the
#: campaigns measure 0.90-0.95.
F1_FLOOR = 0.8

#: Per kind of replay pass: the name ``replay_s`` has on that workload,
#: and what it times.
REPLAYS = {
    "reanalyse": ("reanalyse_s", "aliases and phase 2 of a fresh pipeline "
                  "over the recorded corpus (the campaign kept no checkpoint)"),
    "reinfer": ("reinfer_s", "a fresh pipeline resumes from the complete "
                "checkpoint (load, aliases, phase 2)"),
    "stream": ("stream_s", f"IncrementalCoGraph ingests the corpus with a "
               f"snapshot every {SNAPSHOT_EVERY} traces plus a final one"),
}


@dataclass(frozen=True)
class Workload:
    """One campaign configuration plus the replay that follows it."""

    name: str
    isp: str
    why: str
    replay: str
    corpus_format: str = "json"
    checkpoint: bool = False
    faults: bool = False
    workers: int = 0
    #: A workload whose campaign and replay the traced run also runs
    #: once, for the layers this one bypasses.
    traced_also: "str | None" = None


#: ``charter-sharded`` runs on its own too, but BENCHMARK.json does not
#: list it: a full set of runs of all three does not fit the time the
#: benchmark is given.  The supervisor and bias layers it loads are
#: measured by the traced run of ``charter-checkpoint`` instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="comcast-campaign",
            isp="comcast",
            why="serial map-cable comcast, CLI defaults: the in-process probe "
                "engine (net, measure) and object-path inference do the work; "
                "replays re-run aliases and phase 2 on the recorded corpus",
            replay="reanalyse",
        ),
        Workload(
            name="charter-checkpoint",
            isp="charter",
            why="serial charter, binary corpus, checkpoint, 5% probe loss, 2% "
                "stale rDNS, 2 attempts, lenient validation; replays resume "
                "from the checkpoint (io write and read paths, retry branch)",
            replay="reinfer",
            corpus_format="binary",
            checkpoint=True,
            faults=True,
            traced_also="charter-sharded",
        ),
        Workload(
            name="charter-sharded",
            isp="charter",
            why="charter on 2 supervised workers (nproc), binary corpus; "
                "replays keep a live map with IncrementalCoGraph (supervisor "
                "and the stages snapshot() replays)",
            replay="stream",
            corpus_format="binary",
            workers=2,
        ),
    )
}


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def calibration_loop(rounds: int = 1) -> float:
    """Seconds per round of a fixed pure-Python workload of the
    benchmark's own, which no change to the program can speed up or
    slow down.

    It is float arithmetic on one local, whose temporaries come from
    the interpreter's float free list: a loop that builds containers
    runs twice as slowly on the heap a campaign leaves behind, which
    would make the scale depend on the program.
    """
    start = time.perf_counter()
    x = 0.5
    for _ in range(rounds * CALIBRATION_ROUND):
        x = x * 3.7 * (1.0 - x)
    return (time.perf_counter() - start) / rounds


class HostSpeed:
    """Calibration-loop samples taken through a run.

    Every slowdown of the host seen so far slows the calibration loop
    and the program alike, so ``seconds * scale`` is what an operation
    would have taken at the reference speed.  :meth:`during` also takes
    samples while an operation runs, from a timer signal, so a long
    operation is scaled by the speed it actually ran at.
    """

    def __init__(self) -> None:
        self.samples: "list[float]" = []

    def sample(self, rounds: int = BRACKET_ROUNDS) -> float:
        seconds = calibration_loop(rounds)
        self.samples.append(seconds)
        return seconds

    @contextlib.contextmanager
    def during(self):
        """Sample every ``SAMPLE_EVERY_S`` while the block runs; yields
        ``(samples, spent)``, where ``spent[0]`` is the seconds the
        samples took (to take off the block's time)."""
        taken: "list[float]" = []
        spent = [0.0]

        def on_timer(_signum, _frame):
            start = time.perf_counter()
            taken.append(calibration_loop())
            spent[0] += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield taken, spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.extend(taken)

    def scale(self, samples=None) -> float:
        """Reference over the mean of *samples* (default: all of them)."""
        return CALIBRATION_REFERENCE_S / statistics.fmean(
            self.samples if samples is None else samples)


@dataclass
class Operation:
    """One timed operation: what it was, wall and CPU seconds, verdict.

    ``scale`` turns ``wall`` into seconds at the reference host speed,
    from the calibration samples taken just before, during and just
    after it; ``wall`` and ``cpu`` exclude the samples taken during it.
    """

    label: str
    wall: float = 0.0
    cpu: float = 0.0
    ok: bool = False
    detail: str = ""
    scale: float = 1.0


@dataclass
class Ledger:
    """Every timed operation of a run, in order; with a *host*, each is
    sampled with the calibration loop before, during and after it."""

    host: "HostSpeed | None" = None
    operations: "list[Operation]" = field(default_factory=list)

    def timed(self, label: str, fn, check, sample_during: bool = True):
        """Run ``fn()``, time it, then ``check(result)`` → (ok, detail).

        An exception from ``fn`` or ``check`` fails the operation and
        yields None; the caller decides whether the run can go on.
        ``sample_during=False`` is for an operation that keeps every
        processor busy with worker processes: samples taken during it
        would measure that contention, not the host.
        """
        op = Operation(label)
        self.operations.append(op)
        # Start every operation from a heap without the previous one's
        # garbage, so a collection it left behind is not timed here.
        gc.collect()
        samples = [] if self.host is None else [self.host.sample()]
        if self.host is None or not sample_during:
            sampling = contextlib.nullcontext(([], [0.0]))
        else:
            sampling = self.host.during()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            with sampling as (inside, spent):
                result = fn()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            op.wall = time.perf_counter() - wall0 - spent[0]
            op.cpu = cpu_seconds() - cpu0 - spent[0]
            op.detail = f"raised {type(exc).__name__}: {exc}"
            return None
        op.wall = time.perf_counter() - wall0 - spent[0]
        op.cpu = cpu_seconds() - cpu0 - spent[0]
        if self.host is not None:
            samples += inside
            samples.append(self.host.sample())
            op.scale = self.host.scale(samples)
        try:
            op.ok, op.detail = check(result)
        except Exception as exc:  # noqa: BLE001 - a broken check is a failure
            op.ok, op.detail = False, f"check raised {type(exc).__name__}: {exc}"
        return result

    def skipped(self, label: str, reason: str) -> None:
        """An operation that could not run counts as attempted and failed."""
        self.operations.append(Operation(label, detail=f"not run: {reason}"))

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if not op.ok)

    def walls(self, prefix: str) -> "list[float]":
        return [op.wall for op in self.operations
                if op.ok and op.label.startswith(prefix)]

    def scaled(self, prefix: str) -> "list[float]":
        return [op.wall * op.scale for op in self.operations
                if op.ok and op.label.startswith(prefix)]

    def cpus(self, prefix: str) -> "list[float]":
        return [op.cpu for op in self.operations
                if op.ok and op.label.startswith(prefix)]


def digest_check(expected: str, label: str = "digest"):
    """A check that passes when the result's digest equals *expected*."""

    def check(digest):
        if digest == expected:
            return True, f"{label} {digest[:12]}"
        return False, f"{label} mismatch: {str(digest)[:12]} != {expected[:12]}"

    return check


# ----------------------------------------------------------------------
# Substrate
# ----------------------------------------------------------------------
def build_substrate(seed: int):
    """The substrate ``repro map-cable`` builds: cable ISPs plus the fleet."""
    from repro.topology.internet import SimulatedInternet

    internet = SimulatedInternet(
        seed=seed, include_telco=False, include_mobile=False
    )
    return internet, list(internet.build_standard_vps())


class Setup:
    """Timed substrate builds of one seed, each checked against the first."""

    def __init__(self, ledger: Ledger, seed: int) -> None:
        self.ledger = ledger
        self.seed = seed
        self.shape = None
        self.count = 0

    def _check(self, built):
        internet, fleet = built
        shape = (len(internet.network.routers), len(internet.network.links),
                 len(fleet))
        if self.shape is None:
            self.shape = shape
        if not fleet or not shape[0]:
            return False, "empty substrate"
        if shape != self.shape:
            return False, f"build not deterministic: {shape} != {self.shape}"
        return True, f"{shape[0]} routers, {shape[2]} VPs"

    def build(self, count: int = 1):
        """*count* timed builds; returns the last (None if it failed)."""
        built = None
        for _ in range(count):
            built = None  # drop the previous build before timing the next
            self.count += 1
            built = self.ledger.timed(
                f"setup#{self.count}", lambda: build_substrate(self.seed),
                self._check,
            )
        return built


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def make_pipeline(workload: Workload, internet, fleet, seed: int,
                  workdir: pathlib.Path, resume: bool = False):
    """The pipeline ``repro map-cable`` would build for this workload."""
    from repro.faults import FaultPlan
    from repro.infer.pipeline import CableInferencePipeline

    options = {}
    if workload.checkpoint:
        options["checkpoint_path"] = workdir / "campaign.json"
        options["resume"] = resume
    if workload.faults:
        options["faults"] = FaultPlan(seed=seed, probe_loss=0.05,
                                      stale_rdns=0.02)
        options["attempts"] = 2
        options["validate"] = "lenient"
    if workload.workers > 1:
        from repro.measure.substrates import WorkerSpec

        options["workers"] = workload.workers
        options["worker_spec"] = WorkerSpec(
            "repro.measure.substrates:cable_substrate",
            {"seed": seed, "include_telco": False, "include_mobile": False},
        )
    return CableInferencePipeline(
        internet.network, getattr(internet, workload.isp), fleet,
        sweep_vps=8, trace_seed=seed, corpus_format=workload.corpus_format,
        **options,
    )


def export_regions(result, directory: pathlib.Path, isp: str) -> int:
    """Write one region JSON file per inferred region, as the CLI does."""
    from repro.io import export
    from repro.io.atomic import atomic_write_text

    for name in sorted(result.regions):
        atomic_write_text(directory / f"{isp}-{name}.json",
                          export.region_to_json(result.regions[name]))
    return len(result.regions)


def mean_edge_f1(internet, isp_name: str, regions) -> float:
    """Mean ground-truth edge F1 over inferred regions (0 when none)."""
    from repro.infer.metrics import score_region

    isp = getattr(internet, isp_name)
    tag_of_co = {
        uid: isp.co_tag(co)
        for region in isp.regions.values()
        for uid, co in region.cos.items()
    }
    scores = [
        score_region(regions[name], isp.regions[name], tag_of_co).edge_f1
        for name in regions
    ]
    return statistics.fmean(scores) if scores else 0.0


def f1_check(f1: float, floor: float = F1_FLOOR):
    """(ok, detail) for a mean edge F1 against the floor."""
    if f1 < floor:
        return False, f"mean edge F1 {f1:.3f} below floor {floor}"
    return True, f"mean edge F1 {f1:.3f}"


@dataclass
class Campaign:
    """A finished campaign and what its replays need."""

    pipeline: object
    result: object
    digest: str
    exported: int
    directory: pathlib.Path


def run_campaign(ledger: Ledger, label: str, workload: Workload, substrate,
                 seed: int, workdir: pathlib.Path) -> "Campaign | None":
    """Campaign from a ready substrate to region artifacts on disk."""
    from repro.bias.incremental import region_digest

    internet, fleet = substrate
    workdir.mkdir(parents=True, exist_ok=True)

    def campaign():
        pipeline = make_pipeline(workload, internet, fleet, seed, workdir)
        result = pipeline.run()
        exported = export_regions(result, workdir, workload.isp)
        return Campaign(pipeline, result, region_digest(result.regions),
                        exported, workdir)

    def check(done: Campaign):
        regions = done.result.regions
        if not regions:
            return False, "no regions inferred"
        if done.exported != len(regions):
            return False, f"exported {done.exported} of {len(regions)} regions"
        ok, detail = f1_check(mean_edge_f1(internet, workload.isp, regions))
        return ok, f"{detail}, digest {done.digest[:12]}"

    return ledger.timed(label, campaign, check,
                        sample_during=workload.workers <= 1)


# ----------------------------------------------------------------------
# Replay passes
# ----------------------------------------------------------------------
def reanalyse_pass(workload: Workload, internet, fleet, seed: int,
                   done: Campaign) -> dict:
    """Aliases and phase 2 of a fresh pipeline over the recorded corpus."""
    from repro.bias.incremental import region_digest

    pipeline = make_pipeline(workload, internet, fleet, seed, done.directory)
    recorded = (done.result.traces, done.result.followup_traces)
    # The pipeline's own collect step would probe again; hand it the
    # campaign's traces instead, as a campaign resumed from a complete
    # record would see them.
    pipeline.collect_traces = lambda: recorded
    result = pipeline.run()
    return {"digest": region_digest(result.regions), "snapshots": 0,
            "cache_hit_ratio": cache_hit_ratio(pipeline)}


def reinfer_pass(workload: Workload, internet, fleet, seed: int,
                 done: Campaign) -> dict:
    """Resume a fresh pipeline from the campaign's complete checkpoint."""
    from repro.bias.incremental import region_digest

    pipeline = make_pipeline(workload, internet, fleet, seed, done.directory,
                             resume=True)
    result = pipeline.run()
    if not result.health.resumed:
        raise RuntimeError("replay did not resume from the checkpoint")
    return {"digest": region_digest(result.regions), "snapshots": 0,
            "cache_hit_ratio": cache_hit_ratio(pipeline)}


def stream_pass(workload: Workload, internet, done: Campaign, extras) -> dict:
    """Keep a live map: ingest the corpus, snapshot every SNAPSHOT_EVERY
    traces and once at the end; the final snapshot's digest is returned."""
    from repro.bias.incremental import IncrementalCoGraph
    from repro.rdns.regexes import HostnameParser

    isp = getattr(internet, workload.isp)
    result = done.result
    graph = IncrementalCoGraph(
        internet.network.rdns, isp.name, p2p_prefixlen=isp.p2p_prefixlen,
        parser=HostnameParser(),
    )
    for trace in result.followup_traces:
        graph.ingest_followup(trace)
    snapshots = 0
    for index, trace in enumerate(result.traces, 1):
        graph.ingest(trace)
        if index % SNAPSHOT_EVERY == 0:
            graph.snapshot(aliases=result.aliases, extra_addresses=extras)
            snapshots += 1
    final = graph.snapshot(aliases=result.aliases, extra_addresses=extras)
    return {"digest": final.digest, "snapshots": snapshots + 1}


def replay_function(workload: Workload, substrate, seed: int, done: Campaign):
    """A no-argument callable running one replay pass of *workload*."""
    internet, fleet = substrate
    if workload.replay == "reanalyse":
        return lambda: reanalyse_pass(workload, internet, fleet, seed, done)
    if workload.replay == "reinfer":
        return lambda: reinfer_pass(workload, internet, fleet, seed, done)
    # The batch pipeline maps these rDNS-matched addresses too; the
    # stream needs them for a digest-identical snapshot.
    extras = set(done.pipeline.rdns_targets())
    return lambda: stream_pass(workload, internet, done, extras)


def run_replays(ledger: Ledger, prefix: str, workload: Workload, substrate,
                seed: int, done: Campaign, seconds: float,
                between=None, passes=(MIN_PASSES, MAX_PASSES)) -> dict:
    """Replay passes until the minimum count and ``seconds`` are both met.

    Every pass must reproduce the campaign's region digest.  *between*
    runs after each pass, untimed here.  Returns the last successful
    pass's outcome: ``snapshots`` per pass, and ``cache_hit_ratio``
    for passes that run the pipeline.
    """
    one = replay_function(workload, substrate, seed, done)
    least, most = passes
    same = digest_check(done.digest, "replay digest")
    outcome = {}
    elapsed = 0.0
    count = 0
    while count < least or (elapsed < seconds and count < most):
        count += 1
        out = ledger.timed(f"{prefix}#{count}", one,
                           lambda out: same(out["digest"]))
        elapsed += ledger.operations[-1].wall
        if out is not None:
            outcome = out
        if between is not None:
            between()
    return outcome


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
def work_counts(done: Campaign) -> "dict[str, int]":
    """Exact amounts of work a campaign did, so size changes show."""
    result = done.result
    health = result.health
    every = (result.traces, result.followup_traces)
    retry_answers = sum(
        1
        for traces in every
        for t in traces
        for hop in t.hops
        if hop.address is not None and hop.attempts > 1
    )
    return {
        "traces": len(result.traces),
        "followup_traces": len(result.followup_traces),
        "probes": int(health.probes_sent),
        "probes_retried": int(health.probes_retried),
        "probes_lost": int(health.probes_lost),
        "probes_refused": int(health.probes_refused),
        "retry_answers": retry_answers,
        "hops": sum(len(t.hops) for traces in every for t in traces),
        "regions": len(result.regions),
        "shards": int(health.shards_planned),
        "shards_retried": int(health.shards_retried),
        "workers_spawned": int(health.workers_spawned),
    }


def cache_hit_ratio(pipeline) -> float:
    """``cache.lookup_hits`` over lookups in the run's metrics registry."""
    hits = pipeline.metrics.counter_value("cache.lookup_hits")
    misses = pipeline.metrics.counter_value("cache.lookup_misses")
    return hits / (hits + misses) if hits + misses else 0.0
