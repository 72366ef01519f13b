"""Steadiness report: run the benchmark over several seeds and summarise.

For each workload and metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and
the quartile spread as a share of the median, and flags every metric
whose spread exceeds its bound in ``BENCHMARK.json``.  ``setup_s`` is
flagged only for information: its bound applies to the shift between
medians, not to the spread.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --log runs.jsonl
    python3 perfbench/steadiness.py --from-log runs.jsonl
    python3 perfbench/steadiness.py --from-log a.jsonl --compare b.jsonl
    python3 perfbench/steadiness.py --workloads charter-sharded --seeds 1-5

Each run is one ``perfbench/run.py`` process, run one after another;
``--log`` appends every run's result line (with workload, seed and
wall time) so a report can be rebuilt or compared later.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

from summary import median_shift, steadiness_row


def parse_seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "wall_s": time.perf_counter() - start,
            "result": result, "output": lines[:-1] if result else lines}


def load_log(path) -> "list[dict]":
    return [json.loads(line) for line in pathlib.Path(path).read_text().splitlines()
            if line.strip()]


def label(run) -> str:
    return run["workload"] + (" (traced)" if run["trace"] else "")


def values_by(runs) -> "dict[str, dict[str, list[float]]]":
    """workload → metric → values, over runs that printed a result;
    traced runs are kept apart from untraced ones."""
    out: "dict[str, dict[str, list[float]]]" = {}
    for run in runs:
        if not run["result"]:
            continue
        metrics = out.setdefault(label(run), {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def report(runs, spec, compare=None) -> bool:
    """Print the table; True when no spread or median shift exceeds its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    failures = [r for r in runs if r["exit"] != 0 or not (r["result"] or {}).get("correct")]
    for run in failures:
        steady = False
        print(f"FAILED run: {run['workload']} seed {run['seed']} exit {run['exit']}")
    walls: "dict[str, list[float]]" = {}
    for run in runs:
        walls.setdefault(label(run), []).append(run["wall_s"])
    other = values_by(compare) if compare else {}
    print("workload | metric | n | median | q1 | q3 | spread | bound | flag"
          + (" | shift" if compare else ""))
    for workload, metrics in sorted(values_by(runs).items()):
        for name, values in metrics.items():
            metric = bounds.get(name, {})
            row = steadiness_row(values, metric.get("bound"))
            flag = ""
            if row["over_bound"]:
                flag = "over bound" + (" (set-up: informational)" if name == "setup_s" else "")
                steady = steady and name == "setup_s"
            elif row["bound"] and row["spread"] > row["bound"] / 3:
                flag = "above a third of bound"
            line = (f"{workload} | {name} | {row['n']} | {row['median']:.6g} | "
                    f"{row['q1']:.6g} | {row['q3']:.6g} | {row['spread']:.4f} | "
                    f"{row['bound']} | {flag}")
            if compare and name in other.get(workload, {}):
                shift = median_shift(values, other[workload][name],
                                     metric.get("better", "lower"))
                line += f" | {shift:+.4f}"
                if row["bound"] is not None and shift > row["bound"]:
                    line += " WORSE THAN BOUND"
                    steady = False
            print(line)
    for workload, seconds in sorted(walls.items()):
        print(f"{workload}: {len(seconds)} runs, mean wall {sum(seconds) / len(seconds):.1f} s, "
              f"max {max(seconds):.1f} s")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated (default: those BENCHMARK.json lists)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", help="append each run's result to this file")
    parser.add_argument("--from-log", help="report on a log instead of running")
    parser.add_argument("--compare", help="a second log; adds the median shift")
    args = parser.parse_args(argv)
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    if args.from_log:
        runs = load_log(args.from_log)
    else:
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        runs = []
        for seed in parse_seeds(args.seeds):
            for name in names:
                run = run_once(name, seed, spec["run_seconds"], args.trace)
                runs.append(run)
                print(f"{name} seed {seed}: exit {run['exit']}, "
                      f"{run['wall_s']:.1f} s", flush=True)
                if args.log:
                    with open(args.log, "a") as log:
                        log.write(json.dumps(run) + "\n")
    compare = load_log(args.compare) if args.compare else None
    return 0 if report(runs, spec, compare) else 1


if __name__ == "__main__":
    sys.exit(main())
