"""Run every workload over several seeds and summarise the spread.

    python3 benchmarks/sweep.py --seeds 1-10 --traced-seeds 3 --out FILE

For each workload, each seed gets one untraced run of ``run.py`` (a fresh
process).  Every end-to-end metric is printed by name and unit with its
median, quartiles (``statistics.quantiles(values, n=4)``) and spread
(interquartile distance over the median), next to the bound that
``BENCHMARK.json`` fixes for it, together with ``error_rate`` (failed over
attempted job executions).  With ``--traced-seeds K`` the first K seeds also
get a traced run, right after the untraced run of the same seed; the
per-layer medians and the tracing overhead (the median over those pairs of
traced ``wall_s`` minus untraced ``wall_s``) are reported.  ``--out`` writes
the whole summary as JSON.

Seeds 1-10 were used while tuning the benchmark.  ``HELD_OUT_SEED`` was not:
a change that claims a gain should also show it on that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7919


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarise(runs: list[dict], bounds: dict) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for name in runs[0]["metrics"]:
        row = spread([r["metrics"][name]["value"] for r in runs])
        row.update(unit=runs[0]["metrics"][name]["unit"], bound=bounds.get(name))
        metrics[name] = row
    raw = {name: spread([r["details"]["raw"][name] for r in runs])
           for name in runs[0]["details"].get("raw", {})}
    return {"seeds": [r["details"]["seed"] for r in runs],
            "raw_times": raw,
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "passes": [r["details"]["passes"] for r in runs],
            "metrics": metrics}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {"held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for index, seed in enumerate(seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            if index < args.traced_seeds:
                traced.append(run_once(workload, seed, args.seconds, 1))
        entry = summarise(runs, bounds)
        entry["env"] = runs[0]["details"]["env"]
        print(f"\n{workload}: {len(runs)} runs, error_rate {entry['error_rate']:.4g} "
              f"({entry['failed']}/{entry['attempted']}), correct {entry['correct']}")
        print(f"  {'metric':14s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, row in entry["metrics"].items():
            print(f"  {name:14s} {row['unit']:5s} {row['median']:10.4f} {row['q1']:10.4f} "
                  f"{row['q3']:10.4f} {row['spread']:7.2%} {row['bound'] or 0:6.2f}")
        print(f"  {'error_rate':14s} {'ratio':5s} {entry['error_rate']:10.4f}")
        for name, row in entry["raw_times"].items():
            print(f"  raw {name:10s} {'s':5s} {row['median']:10.4f} {row['q1']:10.4f} "
                  f"{row['q3']:10.4f} {row['spread']:7.2%}")
        if traced:
            layers = summarise(traced, {})
            differences = [t["metrics"]["trace.wall_s"]["value"] - r["metrics"]["wall_s"]["value"]
                           for t, r in zip(traced, runs)]
            overhead = statistics.median(differences)
            untraced = statistics.median(r["metrics"]["wall_s"]["value"]
                                         for r in runs[:len(traced)])
            entry["traced"] = layers
            entry["trace_overhead_s"] = overhead
            entry["trace_overhead_pairs_s"] = differences
            print(f"  traced: correct {layers['correct']}, overhead {overhead:+.4f} s "
                  f"(median of {len(differences)} same-seed pairs) on wall_s "
                  f"{untraced:.4f} s")
            for name, row in layers["metrics"].items():
                print(f"    {name:28s} {row['median']:14.6g} {row['unit']}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
