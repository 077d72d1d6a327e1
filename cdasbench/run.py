"""Run one CDAS benchmark workload and print its metrics.

    python3 cdasbench/run.py --workload paper-report|serve-bulk|serve-churn \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The process pins itself to one CPU before
it starts anything; every process it spawns inherits that CPU.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Raw seconds, every probe and the check's details go to
``cdasbench/out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-report", "serve-bulk", "serve-churn")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one CDAS benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import refspeed

    cpu = refspeed.pin_to_one_cpu()
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = os.path.join(HERE, "out", f"{name}.work")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    started = time.perf_counter()
    try:
        if args.workload == "paper-report":
            import report

            result = report.run(args.seed, args.seconds, out_dir, bool(args.trace))
        else:
            import serve

            result = serve.run(args.workload, args.seed, args.seconds, out_dir, bool(args.trace))
    except refspeed.ServerBusy as exc:
        # The probes could not be taken on an idle server: no timing of
        # this run can be trusted, so the run fails its check.
        result = {
            "metrics": {}, "per_layer": {}, "attempted": 1,
            "violations": [str(exc)], "probes": [], "drift": {},
            "detail": {"query_tail": {"percentile": 0, "samples": 0, "beyond": 0}},
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    declared = _declared()
    if args.trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        values = result["metrics"]
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in units.items()
    }
    violations = result["violations"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "wall_s": time.perf_counter() - started,
        "correct": not violations,
        "attempted": result["attempted"],
        "failed": len(violations),
        "violations": violations,
        "metrics": metrics,
        "end_to_end": result["metrics"],
        "drift": result["drift"],
        "probes": result["probes"],
        "detail": result["detail"],
    }
    with open(os.path.join(HERE, "out", f"{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    check = result["detail"].get("check")
    if check:
        print(f"report check: {check}")
    for violation in violations[:20]:
        print(f"check failed: {violation}")
    tail = result["detail"]["query_tail"]
    described = tail.get("note") or (
        f"p{tail['percentile']:g} of {tail['samples']} samples ({tail['beyond']} beyond)"
    )
    print(
        f"query_tail_ms is {described}; probe drift max/min "
        f"{result['drift'].get('max_over_min', 0):.3f}"
    )
    print(json.dumps({
        "correct": not violations,
        "attempted": max(1, result["attempted"]),
        "failed": len(violations),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
