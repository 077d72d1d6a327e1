"""Reference digests of the paper report, and the report's output check.

Record them from an unmodified tree, and check a changed tree against
them (run from the repository root):

    python3 cdasbench/digests.py record --seeds 0-10 2012
    python3 cdasbench/digests.py check --seeds 0-20

For each seed ``record`` stores the SHA-256 of the whole
``build_report(seed)`` text and of each ``## `` section in
``digests.json``, plus every section's row count.  The check compares a
report with the digests of its seed.  For a seed with no recorded digest
it falls back to section presence and each section's row count (sizes
do not depend on the seed), and says so.  The benchmark checks its own
report (seed 2012) on every run; ``check`` builds and checks the report
at other seeds, and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "digests.json")

__all__ = ["check", "check_seeds", "entry", "record", "row_count", "sections"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sections(text: str) -> dict[str, str]:
    """``{heading line: section text}`` for every ``## `` section."""
    found: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.split("\n"):
        if line.startswith("## "):
            current = found.setdefault(line, [])
        if current is not None:
            current.append(line)
    return {heading: "\n".join(lines) for heading, lines in found.items()}


def row_count(section: str) -> int:
    """Lines inside the section's fenced blocks."""
    inside = False
    rows = 0
    for line in section.split("\n"):
        if line.startswith("```"):
            inside = not inside
        elif inside:
            rows += 1
    return rows


def load(path: str = PATH) -> dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def check(text: str, seed: int, reference: dict[str, Any] | None = None) -> dict[str, Any]:
    """``{"mode": "digest" | "structure", "violations": [...]}``."""
    reference = load() if reference is None else reference
    found = sections(text)
    recorded = reference["seeds"].get(str(seed))
    violations = []
    if recorded is not None:
        if _sha(text) != recorded["report"]:
            for heading, digest in recorded["sections"].items():
                if heading not in found:
                    violations.append(f"section missing: {heading}")
                elif _sha(found[heading]) != digest:
                    violations.append(f"section differs from its reference: {heading}")
            if not violations:
                violations.append("report differs from its reference outside the sections")
        return {"mode": "digest", "violations": violations}
    for heading, rows in reference["rows"].items():
        if heading not in found:
            violations.append(f"section missing: {heading}")
        elif row_count(found[heading]) != rows:
            violations.append(
                f"section {heading} has {row_count(found[heading])} rows, not {rows}"
            )
    return {
        "mode": f"structure (no recorded digest for seed {seed}: "
        "checked section presence and row counts)",
        "violations": violations,
    }


def entry(text: str) -> dict[str, Any]:
    """One seed's recorded digests."""
    return {
        "report": _sha(text),
        "sections": {heading: _sha(body) for heading, body in sections(text).items()},
    }


def _build_report():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.experiments.report import build_report

    return build_report


def check_seeds(seeds: list[int]) -> bool:
    """Build the report at every seed and check it; True when all pass."""
    build_report = _build_report()
    passed = True
    for seed in seeds:
        result = check(build_report(seed), seed)
        passed &= not result["violations"]
        print(f"seed {seed}: {result['mode']}: "
              f"{'; '.join(result['violations']) or 'passed'}", flush=True)
    return passed


def record(seeds: list[int], path: str = PATH) -> None:
    build_report = _build_report()

    try:
        reference = load(path)
    except FileNotFoundError:
        reference = {"seeds": {}, "rows": {}}
    for seed in seeds:
        text = build_report(seed)
        reference["seeds"][str(seed)] = entry(text)
        rows = {heading: row_count(body) for heading, body in sections(text).items()}
        if reference["rows"] and reference["rows"] != rows:
            raise SystemExit(f"seed {seed}: row counts differ from other seeds")
        reference["rows"] = rows
        print(f"seed {seed}: {_sha(text)}", flush=True)
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _seeds(values: list[str]) -> list[int]:
    seeds: list[int] = []
    for value in values:
        low, _, high = value.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description="record or check paper-report reference digests")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("record", "check"):
        sub.add_parser(command).add_argument(
            "--seeds", nargs="+", required=True, help="seeds or ranges like 0-10"
        )
    args = parser.parse_args()
    if args.command == "check":
        return 0 if check_seeds(_seeds(args.seeds)) else 1
    record(_seeds(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
