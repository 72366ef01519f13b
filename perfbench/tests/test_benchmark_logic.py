"""Tests of the benchmark's own logic (no campaign is run).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import signal
import statistics
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTracer  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_busy_minus_children():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf(cost):
        clock.now += cost

    leaf_w = tracer.wrap("leaf", leaf)

    def parent():
        clock.now += 1.0
        leaf_w(2.0)
        clock.now += 0.5
        leaf_w(3.0)

    tracer.wrap("parent", parent)()

    top = tracer.records[("", "parent")]
    child = tracer.records[("parent", "leaf")]
    assert top.calls == 1 and child.calls == 2
    assert top.busy == pytest.approx(6.5)
    assert top.child == pytest.approx(5.0)
    assert top.self_time == pytest.approx(1.5)
    assert child.busy == pytest.approx(5.0)
    assert child.self_time == pytest.approx(5.0)


def test_records_are_split_by_parent_and_summed_across_parents():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: setattr(clock, "now", clock.now + 1.0))
    outer_a = tracer.wrap("a", lambda: leaf())
    outer_b = tracer.wrap("b", lambda: (leaf(), leaf()))
    outer_a()
    outer_b()
    leaf()
    assert tracer.records[("a", "leaf")].calls == 1
    assert tracer.records[("b", "leaf")].calls == 2
    assert tracer.records[("", "leaf")].calls == 1
    assert layers.record_value(tracer.records, "calls", ("leaf",)) == 4
    assert layers.record_value(tracer.records, "busy", ("leaf",)) == pytest.approx(4.0)
    assert layers.record_value(tracer.records, "self", ("b",)) == pytest.approx(0.0)


def test_exception_still_records_and_unwinds_the_stack():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        tracer.wrap("outer", wrapped)()
    assert tracer.records[("outer", "boom")].busy == pytest.approx(1.0)
    assert tracer.records[("", "outer")].self_time == pytest.approx(0.0)
    assert tracer._stack == []


def test_units_hook_and_samples():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, samples=("f",))

    def f(n):
        clock.now += n
        return list(range(n))

    wrapped = tracer.wrap("f", f, units=lambda a, k, r: len(r))
    wrapped(2)
    wrapped(3)
    assert tracer.records[("", "f")].units == 5
    assert tracer.samples["f"] == [2.0, 3.0]


def test_patch_keeps_classmethods_and_uninstall_restores():
    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            return cls()

    original = Thing.__dict__["method"]
    tracer = LayerTracer()
    assert tracer.patch(Thing, "method", "Thing.method")
    assert tracer.patch(Thing, "make", "Thing.make")
    assert not tracer.patch(Thing, "missing", "Thing.missing")
    assert isinstance(Thing.make(), Thing)
    assert Thing().method() == "m"
    assert tracer.records[("", "Thing.method")].calls == 1
    tracer.uninstall()
    assert Thing.__dict__["method"] is original
    assert isinstance(Thing.__dict__["make"], classmethod)


def test_top_field_counts_a_nested_stage_once():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    inner = tracer.wrap("CampaignRunner.run[slash24]",
                        lambda: setattr(clock, "now", clock.now + 2.0))
    outer = tracer.wrap("SupervisedCampaignRunner.run[slash24]",
                        lambda: (setattr(clock, "now", clock.now + 1.0), inner()))
    outer()
    values = layers.record_metrics({"campaign": tracer.records,
                                    "sharded": tracer.records})
    assert values["measure.run.slash24_s"] == pytest.approx(3.0)
    assert values["supervisor.run_s"] == pytest.approx(3.0)
    assert values["measure.run.rdns_s"] == 0


def test_hop_emission_row_uses_trace_self_time():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    reply = tracer.wrap("Router.reply_address",
                        lambda: setattr(clock, "now", clock.now + 0.25))
    probe = tracer.wrap("Router.probe_response",
                        lambda: setattr(clock, "now", clock.now + 0.5))
    trace = tracer.wrap("Tracerouter.trace",
                        lambda: (setattr(clock, "now", clock.now + 1.0), probe(), reply()))
    trace()
    trace()
    rows = {line.split("|")[0].strip(): line for line in
            layers.roadmap_lines(tracer.records, "t")[1:]}
    assert [row for row, _ in layers.ROADMAP_ROWS] == list(rows)
    # self time of the trace (2 x 1.0) plus reply-address busy (2 x 0.25)
    assert rows["hop emission"].split("|")[2].strip() == "2.500000"
    assert rows["probe decision"].split("|")[1].strip() == "2"
    values = layers.record_metrics({"campaign": tracer.records})
    assert values["measure.trace_s"] == pytest.approx(3.5)
    assert values["measure.trace_self_s"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Percentile rule and steadiness arithmetic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count,expected", [
    (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (136000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert summary.tail_percentile(count) == expected


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert summary.percentile(values, 0) == 1.0
    assert summary.percentile(values, 50) == 2.5
    assert summary.percentile(values, 100) == 4.0


def test_quartiles_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 15.0, 9.0, 10.5, 13.0, 11.5, 12.5, 10.2]
    q1, median, q3 = summary.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    row = summary.steadiness_row(values, 0.25)
    assert row["spread"] == pytest.approx((q3 - q1) / median)
    assert summary.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_steadiness_row_flags_spread_over_bound():
    steady = summary.steadiness_row([10.0, 10.1, 9.9, 10.0, 10.05], 0.1)
    assert steady["n"] == 5 and not steady["over_bound"]
    noisy = summary.steadiness_row([5.0, 10.0, 15.0, 20.0, 8.0], 0.1)
    assert noisy["over_bound"]


def test_median_shift_sign_follows_better():
    assert summary.median_shift([10, 10], [12, 12], "lower") == pytest.approx(0.2)
    assert summary.median_shift([10, 10], [12, 12], "higher") == pytest.approx(-0.2)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def test_digest_mismatch_fails_the_operation_and_the_run():
    ledger = workloads.Ledger()
    check = workloads.digest_check("a" * 64, "replay digest")
    ledger.timed("replay#1", lambda: "a" * 64, check)
    ledger.timed("replay#2", lambda: "b" * 64, check)
    assert ledger.attempted == 2 and ledger.failed == 1
    assert "mismatch" in ledger.operations[1].detail
    assert ledger.walls("replay#") == [ledger.operations[0].wall]
    line = json.loads(run.result_line(ledger, {"x": 1.0}, (("x", "s"),)))
    assert line == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"x": {"value": 1.0, "unit": "s"}}}


def test_an_exception_is_a_failed_operation():
    ledger = workloads.Ledger()

    def broken():
        raise RuntimeError("no")

    assert ledger.timed("campaign", broken, lambda r: (True, "")) is None
    ledger.skipped("replay", "no finished campaign")
    assert ledger.failed == 2
    assert "RuntimeError" in ledger.operations[0].detail


def test_missing_program_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "comcast-campaign", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# The committed definition matches the code
# ----------------------------------------------------------------------
def test_host_scale_maps_the_calibration_mean_to_the_reference():
    host = workloads.HostSpeed()
    host.samples = [0.1, 0.3]
    assert host.scale() == pytest.approx(workloads.CALIBRATION_REFERENCE_S / 0.2)
    assert host.scale([0.4]) == pytest.approx(workloads.CALIBRATION_REFERENCE_S / 0.4)


def test_each_operation_is_scaled_by_the_samples_around_it(monkeypatch):
    samples = iter([0.1, 0.3, 0.2, 0.2])
    monkeypatch.setattr(workloads, "calibration_loop", lambda rounds=1: next(samples))
    ledger = workloads.Ledger(workloads.HostSpeed())
    ledger.timed("replay#1", lambda: None, lambda r: (True, ""))
    ledger.timed("replay#2", lambda: None, lambda r: (True, ""))
    reference = workloads.CALIBRATION_REFERENCE_S
    assert [op.scale for op in ledger.operations] == pytest.approx(
        [reference / 0.2, reference / 0.2])
    assert ledger.scaled("replay#") == pytest.approx(
        [op.wall * reference / 0.2 for op in ledger.operations])
    assert ledger.host.samples == [0.1, 0.3, 0.2, 0.2]


def test_samples_taken_during_an_operation_scale_it_and_are_not_timed():
    host = workloads.HostSpeed()
    ledger = workloads.Ledger(host)
    ledger.timed("campaign", lambda: time.sleep(1.3), lambda r: (True, ""))
    op = ledger.operations[0]
    assert len(host.samples) >= 4  # before, two or more during, after
    assert op.scale == pytest.approx(host.scale())
    assert 1.25 < op.wall < 1.4
    before = len(host.samples)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ledger.timed("sharded", lambda: time.sleep(1.3), lambda r: (True, ""),
                 sample_during=False)
    assert len(host.samples) == before + 2


def test_f1_below_the_floor_fails():
    assert workloads.f1_check(0.95, 0.8)[0]
    ok, detail = workloads.f1_check(0.5, 0.8)
    assert not ok and "below floor" in detail


def test_replay_digest_mismatch_fails_the_pass(monkeypatch):
    digests = iter(["a" * 64, "b" * 64, "a" * 64])
    monkeypatch.setattr(workloads, "replay_function",
                        lambda *args: lambda: {"digest": next(digests), "snapshots": 3})
    done = workloads.Campaign(None, None, "a" * 64, 0, pathlib.Path("."))
    between = []
    ledger = workloads.Ledger()
    outcome = workloads.run_replays(ledger, "replay", None, None, 1, done,
                                    seconds=0.0, between=lambda: between.append(1),
                                    passes=(3, 5))
    assert [op.ok for op in ledger.operations] == [True, False, True]
    assert "replay digest mismatch" in ledger.operations[1].detail
    assert len(between) == 3 and outcome["snapshots"] == 3


def test_replays_stop_after_seconds_or_the_maximum(monkeypatch):
    monkeypatch.setattr(workloads, "replay_function",
                        lambda *args: lambda: {"digest": "d"})
    done = workloads.Campaign(None, None, "d", 0, pathlib.Path("."))
    ledger = workloads.Ledger()
    workloads.run_replays(ledger, "replay", None, None, 1, done, seconds=1e9,
                          passes=(2, 4))
    assert ledger.attempted == 4
    ledger = workloads.Ledger()
    workloads.run_replays(ledger, "replay", None, None, 1, done, seconds=0.0,
                          passes=(2, 4))
    assert ledger.attempted == 2


# ----------------------------------------------------------------------
# The committed definition matches the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["per_layer"]:
        higher = metric["name"] in run.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower"), metric["name"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_every_record_metric_names_a_wrapped_label():
    wrapped = set(layers.LAYER_OF) | {
        prefix + stage + "]" for prefix in layers.RUNNER_PREFIXES for stage in layers.STAGES
    }
    for name, _unit, phase, field, labels in layers.RECORD_METRICS:
        assert phase in ("campaign", "replay", "sharded", "stream"), name
        assert field in ("calls", "busy", "self", "units", "top"), name
        assert set(labels) <= wrapped, name
