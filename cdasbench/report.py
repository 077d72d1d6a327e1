"""The ``paper-report`` workload: one cold ``build_report()``.

The report is the paper's own, at its default seed (2012): the
``EXPERIMENTS.md`` users regenerate.  The benchmark's ``--seed`` does not
change it.  Other seeds change the report's work itself — the
termination and sampling sweeps (fig12, fig13, fig16, fig18) simulate
different crowds — by up to ±25% in ``report_s``, with ten seeds falling
into two clusters; no bound of this benchmark could absorb that.

The real :func:`repro.experiments.report.build_report` runs in the
benchmark process.  Each of its 23 section runners is wrapped from
outside, and the reference kernel runs before and after every section.
Inside a section it also runs at cut points (:data:`CUT_POINTS`), about
every :data:`SEGMENT_S`; each segment is scaled by the probes on either
side of it.  A section's time is the sum of its scaled segments, and
``report_s`` the sum of the sections.  The run is cold — nothing of the report
runs before it — because users pay the cold cost on every
regeneration.

Set-up is the import of ``repro.experiments.report`` in a fresh
interpreter, ``SETUPS`` times, each between two :func:`refspeed.spawn`
probes.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

import digests
import layers
import refspeed
import stats
from repro.experiments.base import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 9
#: The report's seed: the paper's default.
REPORT_SEED = DEFAULT_SEED

#: Section id → (module, runner attribute) as ``build_report`` reaches them.
RUNNERS: dict[str, tuple[str, str]] = {
    "table1": ("repro.experiments.table01_presentation", "run"),
    "table3-4": ("repro.experiments.table34_verification_example", "run"),
    "fig4": ("repro.experiments.fig04_live_view", "run"),
    "fig5": ("repro.experiments.fig05_svm_vs_crowd", "run"),
    "fig6": ("repro.experiments.fig06_worker_prediction", "run"),
    "fig7": ("repro.experiments.fig07_accuracy_vs_workers", "run"),
    "fig8": ("repro.experiments.fig08_accuracy_vs_required", "run"),
    "fig9": ("repro.experiments.fig09_no_answer_vs_workers", "run"),
    "fig10": ("repro.experiments.fig10_no_answer_vs_reviews", "run"),
    "fig11": ("repro.experiments.fig11_arrival_sequences", "run"),
    "fig12": ("repro.experiments", "run_fig12"),
    "fig13": ("repro.experiments", "run_fig13"),
    "fig14": ("repro.experiments.fig14_approval_vs_accuracy", "run"),
    "fig15": ("repro.experiments.fig15_sampling_worker_accuracy", "run"),
    "fig16": ("repro.experiments.fig16_sampling_verification", "run"),
    "fig17": ("repro.experiments.fig17_alipr_vs_crowd", "run"),
    "fig18": ("repro.experiments.fig18_it_accuracy", "run"),
    "ablation-spammers": ("repro.experiments.ablations", "run_spammer_ablation"),
    "ablation-colluders": ("repro.experiments.ablations", "run_colluder_ablation"),
    "ablation-domain-pruning": ("repro.experiments.ablations", "run_domain_pruning_ablation"),
    "ablation-aggregators": ("repro.experiments.ablations", "run_aggregator_comparison"),
    "ablation-cross-job": ("repro.experiments.ablations", "run_cross_job_ablation"),
    "latency-study": ("repro.experiments.latency_study", "run_latency_study"),
}
assert list(RUNNERS) == layers.SECTIONS

_IMPORT = (
    "import sys; sys.path.insert(0, 'src'); import repro.experiments.report; "
    "print('ready', flush=True)"
)


def measure_setup() -> tuple[list[float], list[float], list]:
    """Raw and scaled seconds from spawning a fresh interpreter until it
    has imported the report module, ``SETUPS`` times, each between two
    :func:`refspeed.spawn` probes; and those probes."""
    prober = refspeed.Prober(work=refspeed.spawn)
    raw, scaled = [], []
    for _ in range(SETUPS):
        before = prober.probe()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _IMPORT], cwd=ROOT, stdout=subprocess.PIPE
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("importing repro.experiments.report failed")
        after = prober.probe()
        raw.append(elapsed)
        scaled.append(refspeed.scale(elapsed, before, after, refspeed.P_SPAWN_NOMINAL_S))
    return raw, scaled, prober.probes


#: Calls at whose entry a running section may be cut: the report is
#: paused there, so the reference kernel can run.  They are spread over
#: every simulation section.
CUT_POINTS: list[tuple[str, str, str]] = [
    ("repro.amt.pool", "WorkerPool", "sample"),
    ("repro.core.online", "OnlineAggregator", "submit"),
    ("repro.core.verification", "MajorityVoting", "verify"),
    ("repro.core.verification", "ProbabilisticVerification", "verify"),
]
#: A section is cut into segments of at least this length, each scaled
#: by the probes on either side of it.  The host's speed decorrelates
#: within a few hundred milliseconds (README.md), so a probe seconds
#: away from the work it scales would not tell the speed it ran at.
SEGMENT_S = 0.25


class _Sections:
    """Wraps the section runners with probes; records each section.

    An untraced run also probes inside a section, at the first cut point
    reached once the running segment is ``SEGMENT_S`` long.  A traced
    run probes only between sections, so that no probe falls inside a
    span.
    """

    def __init__(self, prober: refspeed.Prober, tracer: Any = None) -> None:
        self.prober = prober
        self.tracer = tracer
        self.records: list[dict[str, Any]] = []
        self.rows: dict[str, int] = {}
        self.results: dict[str, Any] = {}
        self.last_probe = 0.0
        self._active = False
        self._patches: list[tuple[Any, str, Any]] = []
        self._segment_start = 0.0
        self._segments: list[tuple[float, float]] = []

    def install(self) -> None:
        for section, (module_name, attr) in RUNNERS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(section, original))
            self._patches.append((module, attr, original))
        if self.tracer is not None:
            return
        for module_name, cls_name, method in CUT_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._cut_point(original))
            self._patches.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def _cut_point(self, method: Any) -> Any:
        def cut_point(*args: Any, **kwargs: Any) -> Any:
            if self._active and time.perf_counter() - self._segment_start >= SEGMENT_S:
                self._cut()
            return method(*args, **kwargs)

        return cut_point

    def _cut(self) -> None:
        """End the running segment with a probe and start the next."""
        elapsed = time.perf_counter() - self._segment_start
        after = self.prober.probe()
        self._segments.append((elapsed, refspeed.scale(elapsed, self.last_probe, after)))
        self.last_probe = after
        self._segment_start = time.perf_counter()

    def _wrap(self, section: str, runner: Any) -> Any:
        timed = runner if self.tracer is None else self.tracer.wrap(runner, f"experiments.{section}")

        def run_section(*args: Any, **kwargs: Any) -> Any:
            if self._active:  # a runner called from inside another section
                return runner(*args, **kwargs)
            before = self.last_probe
            self._segments = []
            self._active = True
            self._segment_start = time.perf_counter()
            try:
                result = timed(*args, **kwargs)
            finally:
                self._active = False
            self._cut()
            raw = [elapsed for elapsed, _ in self._segments]
            self.records.append({
                "section": section,
                "raw_s": sum(raw),
                "before_s": before,
                "after_s": self.last_probe,
                "segments": len(raw),
                "ref_s": sum(scaled for _, scaled in self._segments),
                # The section scaled by its end probes alone, for comparison.
                "ends_ref_s": refspeed.scale(sum(raw), before, self.last_probe),
            })
            self.rows[section] = len(result.rows)
            self.results[section] = result
            return result

        return run_section


def run_report(seed: int, tracer: Any = None) -> dict[str, Any]:
    """Set-up samples, then one cold sectioned ``build_report(seed)``.
    ``seed`` is the report's seed, not the benchmark's."""
    setup_raw, setup_ref, setup_probes = measure_setup()
    prober = refspeed.Prober()
    report_module = importlib.import_module("repro.experiments.report")
    for module_name, _ in RUNNERS.values():
        importlib.import_module(module_name)
    if tracer is not None:
        layers.install(tracer, role="report")
    sections = _Sections(prober, tracer)
    sections.install()
    try:
        sections.last_probe = prober.probe()
        text = report_module.build_report(seed)
    finally:
        sections.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return {
        "text": text,
        "sections": sections.records,
        "rows": sections.rows,
        "latency": sections.results["latency-study"].rows,
        "setup_raw_s": setup_raw,
        "setup_ref_s": setup_ref,
        "setup_probes": setup_probes,
        "probes": prober.probes,
        "drift": prober.drift(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summarise(seed: int, ran: dict[str, Any]) -> dict[str, Any]:
    """End-to-end metrics and the digest check from one report run.

    The serving metrics have report analogues (README.md).  A section
    plays the part of a query.  With 23 sections of very different
    sizes, a single order statistic flips between neighbours, so the
    analogues are means over ranks: ``query_p50_ms`` is the
    interquartile mean of the section times, ``query_tail_ms`` the mean
    of the slower half, and ``ack_p50_ms`` the mean section time
    (the report has no acknowledgement step).  ``accuracy`` is the share
    of sections reproduced exactly, and ``spend_per_item`` is the §3.1
    price of one question answered by the latency study's full crowd.
    """
    from repro.amt.pricing import PriceSchedule

    check = digests.check(ran["text"], seed)
    times = [record["ref_s"] for record in ran["sections"]]
    ordered = sorted(times)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    slower = ordered[len(ordered) - len(ordered) // 2:]
    report_s = sum(times)
    full_crowd = next(row for row in ran["latency"] if row["mode"] == "wait-for-all")
    bad = {v.split(": ", 1)[-1] for v in check["violations"]}
    metrics = {
        "setup_s": statistics.median(ran["setup_ref_s"]),
        "report_s": report_s,
        "items_per_s": sum(ran["rows"].values()) / report_s,
        "query_p50_ms": statistics.fmean(middle) * 1000,
        "query_tail_ms": statistics.fmean(slower) * 1000,
        "ack_p50_ms": report_s / len(times) * 1000,
        "accuracy": (len(times) - len(bad)) / len(times),
        "spend_per_item": float(full_crowd["mean_answers"]) * PriceSchedule().per_assignment,
        "peak_rss_mb": ran["peak_rss_mb"],
    }
    return {
        "metrics": metrics,
        "attempted": len(ran["sections"]),
        "violations": check["violations"],
        "detail": {
            "check": check["mode"],
            "query_tail": {"note": f"mean of the slower {len(slower)} of {len(times)} sections"},
            "sections": ran["sections"],
            "setup_raw_s": ran["setup_raw_s"],
            "setup_ref_s": ran["setup_ref_s"],
            "setup_probes": ran["setup_probes"],
        },
    }


def run(seed: int, seconds: int, out_dir: str, trace: bool) -> dict[str, Any]:
    """The workload's result.  A traced run also runs the untraced report
    cold in a child process, for the tracing overhead.  ``seed`` is the
    benchmark's; the report is built at ``REPORT_SEED``."""
    if not trace:
        ran = run_report(REPORT_SEED)
        result = summarise(REPORT_SEED, ran)
        result["probes"] = ran["probes"]
        result["drift"] = ran["drift"]
        return result
    from spans import Tracer

    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "paper-report",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
    )
    untraced = json.loads(child.stdout.decode().strip().splitlines()[-1])
    tracer = Tracer()
    ran = run_report(REPORT_SEED, tracer)
    result = summarise(REPORT_SEED, ran)
    factor = refspeed.P_NOMINAL_S / ran["drift"]["median_s"]
    per_layer = layers.per_layer_metrics([layers.summarise(tracer)], factor)
    for record in ran["sections"]:
        per_layer[f"experiments.{record['section']}_s"] = record["ref_s"]
    per_layer["trace.overhead"] = (
        result["metrics"]["report_s"] / untraced["metrics"]["report_s"]["value"]
    )
    result["per_layer"] = per_layer
    result["probes"] = ran["probes"]
    result["drift"] = ran["drift"]
    result["detail"]["untraced"] = {k: v["value"] for k, v in untraced["metrics"].items()}
    if not untraced["correct"]:
        result["violations"].append("the untraced child run failed its check")
    return result

