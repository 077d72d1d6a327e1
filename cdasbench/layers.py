"""The layer map: which public functions the traced run wraps, and how
their spans fold into the per-layer metrics.

Every wrapper is installed from outside the program (no file under
``src/`` knows about it).  ``role`` says which process is being traced:
``report`` (the paper-report benchmark process), ``gateway`` (the
server entry, which also routes to shards) and ``shard`` (a shard
worker).  RPC frames are counted at the router only; RPC bytes are
counted where each frame is encoded, so the sum over processes covers
both directions.
"""

from __future__ import annotations

import importlib
import json
import statistics
from typing import Any

from spans import Tracer

__all__ = ["PER_LAYER", "install", "summarise", "dump", "per_layer_metrics"]

#: (module, "Class.method" or "function", span name).
SPANS: list[tuple[str, str, str]] = [
    ("repro.experiments.common", "sample_observation", "experiments.sample_observation"),
    ("repro.experiments.common", "estimate_pool_accuracies", "experiments.estimate_pool_accuracies"),
    ("repro.amt.worker", "ReliableBehaviour.answer", "amt.worker.answer"),
    ("repro.amt.worker", "SpammerBehaviour.answer", "amt.worker.answer"),
    ("repro.amt.worker", "ColluderBehaviour.answer", "amt.worker.answer"),
    ("repro.amt.pool", "WorkerPool.sample", "amt.pool.sample"),
    ("repro.amt.market", "SimulatedMarket.publish_many", "amt.market.publish_many"),
    ("repro.amt.market", "SimulatedMarket.publish", "amt.market.publish"),
    ("repro.core.confidence", "worker_confidence", "core.confidence"),
    ("repro.core.confidence", "accuracy_from_confidence", "core.confidence"),
    ("repro.core.confidence", "answer_log_weights", "core.confidence"),
    ("repro.core.confidence", "confidences_from_log_weights", "core.confidence"),
    ("repro.core.confidence", "answer_confidences", "core.confidence"),
    ("repro.core.online", "OnlineAggregator.submit", "core.online.submit"),
    ("repro.core.verification", "HalfVoting.verify", "core.verification.verify"),
    ("repro.core.verification", "MajorityVoting.verify", "core.verification.verify"),
    ("repro.core.verification", "ProbabilisticVerification.verify", "core.verification.verify"),
    ("repro.core.termination", "MinMax.should_stop", "core.termination.should_stop"),
    ("repro.core.termination", "MinExp.should_stop", "core.termination.should_stop"),
    ("repro.core.termination", "ExpMax.should_stop", "core.termination.should_stop"),
    ("repro.core.sampling", "WorkerAccuracyEstimator.accuracy", "core.sampling.accuracy"),
    ("repro.baselines.features", "Vocabulary.fit", "baselines"),
    ("repro.baselines.features", "Vocabulary.transform_many", "baselines"),
    ("repro.baselines.svm", "PegasosSVM.fit", "baselines"),
    ("repro.baselines.svm", "PegasosSVM.predict", "baselines"),
    ("repro.baselines.svm", "TextClassifier.fit", "baselines"),
    ("repro.baselines.svm", "TextClassifier.predict", "baselines"),
    ("repro.baselines.svm", "TextClassifier.accuracy", "baselines"),
    ("repro.baselines.alipr", "SimulatedALIPR.rank_tags", "baselines"),
    ("repro.baselines.alipr", "SimulatedALIPR.annotate", "baselines"),
    ("repro.baselines.alipr", "SimulatedALIPR.recall", "baselines"),
    ("repro.baselines.alipr", "SimulatedALIPR.group_accuracy", "baselines"),
    ("repro.baselines.dawid_skene", "DawidSkene.fit", "baselines"),
    ("repro.engine.scheduler", "HITScheduler.try_step", "engine.scheduler.try_step"),
    ("repro.engine.session", "HITSession.on_submission", "engine.session.on_submission"),
    ("repro.engine.service", "SchedulerService.step", "engine.service.step"),
    ("repro.engine.service", "SchedulerService.submit", "engine.service.submit"),
    ("repro.engine.service", "SchedulerService.plan", "engine.service.plan"),
    ("repro.engine.aio", "AsyncSchedulerService.submit", "engine.aio.submit"),
    ("repro.engine.aio", "AsyncQueryHandle._offer", "engine.aio.updates"),
    ("repro.durability.journal", "FileJournalStore.append", "durability.append"),
    ("repro.durability.journal", "FileJournalStore._commit", "durability.commit"),
    ("repro.durability.codec", "encode", "durability.codec.encode"),
    ("repro.gateway.app", "GatewayApp.__call__", "gateway.app"),
    ("repro.gateway.routes", "submit", "gateway.routes.submit"),
    ("repro.gateway.routes", "explain", "gateway.routes.explain"),
    ("repro.gateway.routes", "poll", "gateway.routes.poll"),
    ("repro.gateway.routes", "cancel", "gateway.routes.cancel"),
    ("repro.gateway.sse", "stream_updates", "gateway.sse.stream_updates"),
    ("repro.gateway.sse", "format_event", "gateway.sse.format_event"),
    ("repro.cluster.rpc", "RpcClient.call", "cluster.rpc.call"),
    ("repro.cluster.rpc", "encode_frame", "cluster.rpc.encode_frame"),
]

#: Router-side frame counting (role ``gateway`` only).
FRAME_SPANS: list[tuple[str, str, str]] = [
    ("repro.cluster.rpc", "write_frame", "cluster.rpc.write_frame"),
    ("repro.cluster.rpc", "read_frame", "cluster.rpc.read_frame"),
]

#: Experiment sections of ``build_report``, in report order, as metric ids.
SECTIONS = [
    "table1", "table3-4", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "ablation-spammers", "ablation-colluders",
    "ablation-domain-pruning", "ablation-aggregators", "ablation-cross-job",
    "latency-study",
]

#: Every per-layer metric, with its unit, in the order they are printed.
PER_LAYER: list[tuple[str, str]] = (
    [(f"experiments.{section}_s", "s") for section in SECTIONS]
    + [
        ("experiments.sample_observation.calls", "count"),
        ("experiments.sample_observation.self_s", "s"),
        ("experiments.estimate_pool_accuracies.self_s", "s"),
        ("amt.worker.answer.calls", "count"),
        ("amt.worker.answer.self_s", "s"),
        ("amt.pool.sample.calls", "count"),
        ("amt.pool.sample.self_s", "s"),
        ("amt.market.publish_many.calls", "count"),
        ("amt.market.publish_many.hits", "count"),
        ("amt.market.publish_many.self_s", "s"),
        ("amt.market.publish.calls", "count"),
        ("amt.market.publish.self_s", "s"),
        ("core.confidence.self_s", "s"),
        ("core.online.submit.calls", "count"),
        ("core.online.submit.self_s", "s"),
        ("core.verification.verify.calls", "count"),
        ("core.verification.verify.self_s", "s"),
        ("core.termination.should_stop.calls", "count"),
        ("core.termination.should_stop.self_s", "s"),
        ("core.sampling.accuracy.calls", "count"),
        ("baselines.self_s", "s"),
        ("engine.scheduler.try_step.calls", "count"),
        ("engine.scheduler.try_step.self_s", "s"),
        ("engine.scheduler.try_step.idle_ratio", "ratio"),
        ("engine.session.on_submission.self_s", "s"),
        ("engine.service.step.calls", "count"),
        ("engine.service.step.self_s", "s"),
        ("engine.service.step.growth", "ratio"),
        ("engine.service.submit.calls", "count"),
        ("engine.service.submit.self_s", "s"),
        ("engine.service.plan.calls", "count"),
        ("engine.service.plan.self_s", "s"),
        ("engine.service.refused", "count"),
        ("engine.aio.submit.self_s", "s"),
        ("engine.aio.updates.yielded", "count"),
        ("durability.append.calls", "count"),
        ("durability.append.bytes", "bytes"),
        ("durability.append.self_s", "s"),
        ("durability.codec.encode.self_s", "s"),
        ("durability.commit.calls", "count"),
        ("durability.commit.self_s", "s"),
        ("gateway.app.calls", "count"),
        ("gateway.app.self_s", "s"),
    ]
    + [
        (f"gateway.routes.{route}.{stat}", unit)
        for route in ("submit", "explain", "poll", "cancel")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("gateway.sse.stream_updates.calls", "count"),
        ("gateway.sse.frames", "count"),
        ("gateway.bytes_in", "bytes"),
        ("gateway.bytes_out", "bytes"),
        ("cluster.rpc.calls", "count"),
        ("cluster.rpc.rtt_p50_ms", "ms"),
        ("cluster.rpc.frames_in", "count"),
        ("cluster.rpc.frames_out", "count"),
        ("cluster.rpc.bytes", "bytes"),
        ("trace.overhead", "ratio"),
    ]
)

_REFUSALS = ("PlanInfeasible", "AdmissionRejected")


def _hooks(tracer: Tracer, name: str) -> dict[str, Any]:
    """Counters that ride on a span's wrapper."""
    if name == "amt.market.publish_many":
        return {"after": lambda a, k, r: tracer.count("amt.market.publish_many.hits", len(r))}
    if name == "engine.scheduler.try_step":
        return {"after": lambda a, k, r: r is None and tracer.count("engine.scheduler.try_step.idle")}
    if name == "engine.service.submit":
        return {
            "on_error": lambda exc: type(exc).__name__ in _REFUSALS
            and tracer.count("engine.service.refused")
        }
    if name == "durability.commit":
        synced: dict[int, int] = {}

        def count_syncs(args: tuple, _kwargs: dict, _result: Any) -> None:
            store = args[0]
            before = synced.get(id(store), 0)
            synced[id(store)] = store.syncs
            tracer.count("durability.commit.syncs", store.syncs - before)

        return {"after": count_syncs}
    if name == "cluster.rpc.encode_frame":
        return {"after": lambda a, k, r: tracer.count("cluster.rpc.bytes", len(r))}
    if name == "cluster.rpc.read_frame":
        return {"after": lambda a, k, r: r is not None and tracer.count("cluster.rpc.frames_in")}
    if name == "cluster.rpc.write_frame":
        return {"after": lambda a, k, r: tracer.count("cluster.rpc.frames_out")}
    return {}


def install(tracer: Tracer, role: str) -> None:
    """Wrap every mapped function that exists in this tree."""
    targets = SPANS + (FRAME_SPANS if role == "gateway" else [])
    for module_name, attr, name in targets:
        module = importlib.import_module(module_name)
        hooks = _hooks(tracer, name)
        if "." in attr:
            cls_name, method = attr.split(".")
            tracer.patch_method(getattr(module, cls_name), method, name, **hooks)
        else:
            tracer.patch_function(module, attr, name, **hooks)


def summarise(tracer: Tracer) -> dict[str, Any]:
    """One process's summary, plus the series some metrics need."""
    summary = tracer.summary()
    summary["series"] = {
        "engine.service.step": [[s, own] for s, _e, own in tracer.spans("engine.service.step")],
        "cluster.rpc.call": [e - s for s, e, _own in tracer.spans("cluster.rpc.call")],
    }
    return summary


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summarise(tracer), fh)


def growth(steps: list[list[float]]) -> float:
    """Mean self time per step in the last tenth of steps over that in
    the first tenth, steps ordered by start time (0 below 20 steps)."""
    if len(steps) < 20:
        return 0.0
    ordered = [own for _start, own in sorted(steps)]
    tenth = len(ordered) // 10
    first = sum(ordered[:tenth]) / tenth
    last = sum(ordered[-tenth:]) / tenth
    return last / first if first > 0 else 0.0


def per_layer_metrics(summaries: list[dict[str, Any]], factor: float = 1.0) -> dict[str, float]:
    """Fold per-process summaries into the per-layer metrics (every
    metric present; a layer that did no work reads 0).  Times are
    multiplied by ``factor``, the run's reference-speed scale."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    steps: list[list[float]] = []
    rtts: list[float] = []
    for summary in summaries:
        for name, entry in summary["spans"].items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            self_s[name] = self_s.get(name, 0.0) + entry["self_s"]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        series = summary.get("series", {})
        steps += series.get("engine.service.step", [])
        rtts += series.get("cluster.rpc.call", [])

    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls.get(base, 0)
        elif stat == "self_s":
            values[metric] = self_s.get(base, 0.0) * factor
    try_steps = calls.get("engine.scheduler.try_step", 0)
    values.update({
        "amt.market.publish_many.hits": counters.get("amt.market.publish_many.hits", 0),
        "engine.scheduler.try_step.idle_ratio": (
            counters.get("engine.scheduler.try_step.idle", 0) / try_steps if try_steps else 0.0
        ),
        "engine.service.step.growth": growth(steps),
        "engine.service.refused": counters.get("engine.service.refused", 0),
        "engine.aio.updates.yielded": calls.get("engine.aio.updates", 0),
        "durability.commit.calls": counters.get("durability.commit.syncs", 0),
        "gateway.sse.frames": calls.get("gateway.sse.format_event", 0),
        "cluster.rpc.calls": calls.get("cluster.rpc.call", 0),
        "cluster.rpc.rtt_p50_ms": 1000.0 * factor * statistics.median(rtts) if rtts else 0.0,
        "cluster.rpc.frames_in": counters.get("cluster.rpc.frames_in", 0),
        "cluster.rpc.frames_out": counters.get("cluster.rpc.frames_out", 0),
        "cluster.rpc.bytes": counters.get("cluster.rpc.bytes", 0),
    })
    return values
