"""Steadiness tool: run one workload several times, report the spread.

    python3 cdasbench/steady.py --workload serve-churn --runs 10 [--first-seed 1]
    python3 cdasbench/steady.py --compare A.json B.json

Runs ``run.py`` once per seed (``first-seed`` upwards) and prints, per
end-to-end metric: median, first and third quartile, quartile distance
over median (``statistics.quantiles(values, n=4)``), the metric's bound
from ``BENCHMARK.json``, and whether the spread is below a third of it.
It also prints the raw probe drift seen in those runs: the spread of
probe times within and across runs, before any scaling.  ``--save``
writes the per-run values; ``--compare`` takes two saved sets and checks
that their medians agree within each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
        )
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(HERE, "out", f"{workload}-s{seed}-t0.json")) as fh:
            record = json.load(fh)
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "values": {k: v["value"] for k, v in result["metrics"].items()},
            "drift": record["drift"],
        })
        print(f"seed {seed}: correct={result['correct']} "
              f"drift max/min {record['drift'].get('max_over_min', 0):.3f}", flush=True)
    return {"workload": workload, "seconds": seconds, "runs": runs}


def report(data: dict) -> bool:
    """Print the spread table; True when every spread is below a third
    of its bound."""
    bench = _bench()
    steady = True
    print(f"\n{data['workload']}: {len(data['runs'])} runs")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        values = [run["values"][metric["name"]] for run in data["runs"]]
        s = stats.spread(values)
        ok = s["spread"] < metric["bound"] / 3
        steady &= ok
        print(f"{metric['name']:16s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.4f} {metric['bound']:6.2f} {'' if ok else '  <- over a third of bound'}")
    medians = [run["drift"]["median_s"] for run in data["runs"] if run["drift"].get("count")]
    ratios = [run["drift"]["max_over_min"] for run in data["runs"] if run["drift"].get("count")]
    if medians:
        print(f"raw probe drift: per-run median probe {min(medians) * 1e3:.2f}..{max(medians) * 1e3:.2f} ms "
              f"(across runs {max(medians) / min(medians):.3f}x); within a run max/min "
              f"median {statistics.median(ratios):.3f}, worst {max(ratios):.3f}")
    print(f"all correct: {all(run['correct'] for run in data['runs'])}")
    return steady


def compare(first: dict, second: dict) -> bool:
    """Do two sets of runs agree: is the second median within each
    metric's bound of the first, in the metric's worse direction?"""
    bench = _bench()
    agree = True
    print(f"\n{first['workload']}: second set vs first")
    for metric in bench["end_to_end"]:
        a = statistics.median(run["values"][metric["name"]] for run in first["runs"])
        b = statistics.median(run["values"][metric["name"]] for run in second["runs"])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        ok = worse <= metric["bound"]
        agree &= ok
        print(f"{metric['name']:16s} {a:12.5g} {b:12.5g} {worse:+8.4f} bound {metric['bound']:.2f}"
              f"{'' if ok else '  <- worse than bound'}")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description="run a workload several times and report its spread")
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar="SAVED")
    args = parser.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        return 0 if compare(*sets) else 1
    if not args.workload:
        parser.error("--workload or --compare is required")
    seconds = args.seconds or _bench()["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    data = collect(args.workload, seeds, seconds)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(data, fh, indent=1)
    return 0 if report(data) else 1


if __name__ == "__main__":
    sys.exit(main())
