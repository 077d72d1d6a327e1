"""Tests for the benchmark's own helpers.

    python3 -m pytest cdasbench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import digests  # noqa: E402
import layers  # noqa: E402
import refspeed  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402
import world  # noqa: E402
from spans import Tracer  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# -- the tail rule -------------------------------------------------------------


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    value, percentile, beyond = stats.tail(values)
    assert (percentile, beyond, value) == (90.0, 10, 90.0)


def test_tail_never_reports_fewer_than_ten_samples_beyond():
    for n in (20, 25, 40, 80, 200, 999, 5000):
        _, percentile, beyond = stats.tail([float(i) for i in range(n)])
        assert beyond >= stats.MIN_BEYOND, (n, percentile)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_sync_children():
    tracer = Tracer()
    child = tracer.wrap(lambda: _spin(0.02), "child")
    parent = tracer.wrap(lambda: (_spin(0.01), child(), child()), "parent")
    parent()
    spans = tracer.summary()["spans"]
    assert spans["child"]["calls"] == 2
    assert spans["parent"]["calls"] == 1
    # Spins are timed by the wall clock, so preemption can only add.
    assert spans["child"]["self_s"] >= 0.04
    assert 0.01 <= spans["parent"]["self_s"] < 0.03


def test_self_time_with_overlapping_asyncio_children():
    """Two children run concurrently under one parent, so their wall
    intervals overlap; each child's busy time is counted once, in the
    child, and none of it in the parent."""
    tracer = Tracer()

    async def child_work() -> None:
        for _ in range(4):
            _spin(0.005)
            await asyncio.sleep(0)

    child = tracer.wrap(child_work, "child")

    async def parent_work() -> None:
        _spin(0.01)
        await asyncio.gather(child(), child())
        _spin(0.01)

    parent = tracer.wrap(parent_work, "parent")
    started = time.perf_counter()
    asyncio.run(parent())
    wall = time.perf_counter() - started

    spans = {name: tracer.spans(name) for name in ("parent", "child")}
    (first, second) = spans["child"]
    assert first[0] < second[1] and second[0] < first[1], "children must overlap"
    summary = tracer.summary()["spans"]
    assert summary["child"]["self_s"] >= 0.04
    # Had the children's time leaked into the parent, it would be ≥ 0.06.
    assert 0.02 <= summary["parent"]["self_s"] < 0.04
    assert summary["parent"]["self_s"] + summary["child"]["self_s"] <= wall


def test_async_generator_wrapper_counts_yields():
    tracer = Tracer()

    async def updates():
        for i in range(3):
            yield i

    wrapped = tracer.wrap(updates, "updates")

    async def consume():
        return [item async for item in wrapped()]

    assert asyncio.run(consume()) == [0, 1, 2]
    assert tracer.counters["updates.yielded"] == 3


# -- reference speed -----------------------------------------------------------


def test_scaling_reports_time_at_reference_speed():
    nominal = refspeed.P_NOMINAL_S
    assert refspeed.scale(2.0, nominal, nominal) == pytest.approx(2.0)
    # The same work on a CPU running at half speed takes twice as long,
    # and the probes around it do too: the scaled time is unchanged.
    assert refspeed.scale(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    # The adjacent probes are averaged.
    assert refspeed.scale(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
    # Set-up units are scaled to the spawn probe's nominal time.
    spawn = refspeed.P_SPAWN_NOMINAL_S
    assert refspeed.scale(2.0, 2 * spawn, 2 * spawn, spawn) == pytest.approx(1.0)


def test_probe_counts_while_the_watched_process_sleeps():
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        time.sleep(0.3)
        prober = refspeed.Prober([sleeper.pid], attempts=3)
        assert prober.probe() > 0
        assert prober.probes[-1][3]
    finally:
        sleeper.kill()
        sleeper.wait()


def test_idle_probe_check_rejects_a_busy_server():
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.3)
        prober = refspeed.Prober([spinner.pid], attempts=3)
        with pytest.raises(refspeed.ServerBusy):
            prober.probe()
        assert len(prober.probes) == 3
        assert not any(counted for *_rest, counted in prober.probes)
    finally:
        spinner.kill()
        spinner.wait()


# -- the report's digest check -------------------------------------------------

_REPORT = """# EXPERIMENTS

(seed 7)

## fig4: Live view

```
[fig4] Live view
minutes  tweets
-------  ------
4        20
```

## fig5: SVM vs crowd

```
[fig5] SVM vs crowd
movie  libsvm
-----  ------
rio    0.61
```
"""


def _reference(text: str, seed: int) -> dict:
    return {
        "seeds": {str(seed): digests.entry(text)},
        "rows": {h: digests.row_count(b) for h, b in digests.sections(text).items()},
    }


def test_digest_check_accepts_the_reference_report():
    check = digests.check(_REPORT, 7, _reference(_REPORT, 7))
    assert check == {"mode": "digest", "violations": []}


def test_digest_check_rejects_a_mutated_section():
    mutated = _REPORT.replace("rio    0.61", "rio    0.62")
    check = digests.check(mutated, 7, _reference(_REPORT, 7))
    assert check["violations"] == [
        "section differs from its reference: ## fig5: SVM vs crowd"
    ]


def test_unrecorded_seed_falls_back_to_structure_and_says_so():
    reference = _reference(_REPORT, 7)
    check = digests.check(_REPORT, 8, reference)
    assert check["mode"].startswith("structure (no recorded digest for seed 8")
    assert check["violations"] == []
    dropped_row = _REPORT.replace("4        20\n", "")
    assert digests.check(dropped_row, 8, reference)["violations"] == [
        "section ## fig4: Live view has 3 rows, not 4"
    ]


def test_recorded_digests_cover_every_section():
    reference = digests.load()
    assert reference["seeds"], "no recorded seed"
    sections = {heading.split(":")[0][3:].replace("+", "-") for heading in reference["rows"]}
    assert sections == set(layers.SECTIONS)


# -- serving output checks -----------------------------------------------------


def _op(**extra) -> world.Op:
    return world.Op(
        tenant=world.TENANTS[0],
        body=b"{}",
        truth={"t1": "positive", "t2": "negative"},
        domain=("positive", "neutral", "negative"),
        **extra,
    )


def test_scoring_rejects_a_label_outside_the_domain():
    out = serve.Outcome()
    serve._score(_op(), [["t1", "positive", 0.9], ["t2", "maybe", 0.5]], out)
    assert out.answers == 2 and out.correct == 1
    assert out.violations == ["label 'maybe' outside ('positive', 'neutral', 'negative')"]


def test_scoring_rejects_an_answer_for_an_unknown_item():
    out = serve.Outcome()
    serve._score(_op(), [["t9", "positive", 0.9]], out)
    assert out.violations == ["verdict for unknown item t9"]


def _driven(ledger_end: float) -> dict:
    out = serve.Outcome(attempted=1, ack_s=0.01, query_s=0.1, query_id="svc-0",
                        state="done", spend=0.5, items=2, answers=2, correct=2)
    return {
        "groups": [{"rounds": 1, "raw_s": 0.2, "before_s": 0.01, "after_s": 0.01}],
        "outcomes": [[out]],
        "ledger": {"start": 1.0, "end": ledger_end, "query_spend": 0.5},
        "queries_on_server": 1,
        "setup": {"raw_s": [1.0], "before_s": [0.01], "after_s": [0.01], "probes": []},
        "peak_rss_mb": 50.0,
        "journal_bytes": 100,
        "wire": serve.Wire(10, 20),
        "probes": [],
        "drift": {},
        "capped": [],
    }


def test_serving_check_accepts_a_consistent_ledger():
    result = serve.summarise([[_op()]], world.CHURN, _driven(ledger_end=1.5))
    assert result["violations"] == []
    assert result["metrics"]["accuracy"] == 1.0


def test_serving_check_rejects_a_tampered_ledger():
    result = serve.summarise([[_op()]], world.CHURN, _driven(ledger_end=1.6))
    assert result["violations"] == [
        "ledger charged 0.600000 but queries report 0.500000"
    ]


def test_serving_check_rejects_a_query_run_twice():
    driven = _driven(ledger_end=1.5)
    driven["queries_on_server"] = 2
    result = serve.summarise([[_op()]], world.CHURN, driven)
    assert result["violations"] == [
        "server holds 2 queries for 1 accepted submits"
    ]


def test_serving_check_rejects_spend_over_a_tenant_cap():
    driven = _driven(ledger_end=2.0 + world.CHURN.capped_cap)
    over = world.CHURN.capped_cap + 0.5
    driven["capped"] = [serve.Outcome(attempted=1, query_id="svc-1", state="done", spend=over)]
    driven["ledger"]["query_spend"] += over
    driven["queries_on_server"] = 2
    result = serve.summarise([[_op()]], world.CHURN, driven)
    assert result["violations"] == [
        f"tenant {world.CAPPED_TENANT} spent {over:.4f} over its cap"
    ]


def _fake_server(monkeypatch, admit: int, refusal: tuple[int, dict], spend: float = 0.3) -> None:
    """Stand in for the gateway: ``admit`` submits get a 201 and finish
    ``done`` at ``spend`` each; every later submit gets ``refusal``."""
    submits = []

    async def http(wire, port, method, path, token, body=None, key=None):
        if method == "POST":
            submits.append(path)
            if len(submits) <= admit:
                return 201, json.dumps({"id": f"svc-{len(submits)}"}).encode()
            return refusal[0], json.dumps(refusal[1]).encode()
        if path.endswith("/events"):
            return 200, b"event: end\ndata: {}\n\n"
        return 200, json.dumps({"progress": {"state": "done", "spend": spend}}).encode()

    monkeypatch.setattr(serve, "http", http)


def _exhaust() -> list:
    op = dataclasses.replace(_op(), tenant=world.CAPPED_TENANT)
    return asyncio.run(serve.exhaust_cap(op, world.CHURN.capped_cap, 0, serve.Wire()))


def _refused(upfront: float, remaining: float) -> tuple[int, dict]:
    return 402, {"decision": {"admitted": False, "upfront": upfront, "tenant_remaining": remaining}}


def test_cap_probe_accepts_a_refusal_once_the_cap_is_spent(monkeypatch):
    _fake_server(monkeypatch, admit=3, refusal=_refused(0.3, world.CHURN.capped_cap - 0.9))
    outcomes = _exhaust()
    assert len(outcomes) == 4
    assert [v for out in outcomes for v in out.violations] == []


def test_cap_probe_rejects_a_server_that_never_refuses(monkeypatch):
    _fake_server(monkeypatch, admit=world.CAPPED_ATTEMPTS, refusal=_refused(0.3, 0.0), spend=0.0)
    outcomes = _exhaust()
    assert outcomes[-1].violations == [
        f"capped tenant admitted {world.CAPPED_ATTEMPTS} submits under a ${world.CHURN.capped_cap} cap"
    ]


def test_cap_probe_rejects_a_refusal_with_room_left(monkeypatch):
    _fake_server(monkeypatch, admit=1, refusal=_refused(0.3, 0.7))
    outcomes = _exhaust()
    assert len(outcomes[-1].violations) == 1
    assert outcomes[-1].violations[0].startswith("capped tenant refused with room left")


def test_cap_probe_rejects_remaining_budget_that_disagrees_with_spend(monkeypatch):
    _fake_server(monkeypatch, admit=3, refusal=_refused(0.5, 0.2))
    outcomes = _exhaust()
    assert outcomes[-1].violations == [
        f"capped tenant has 0.2 left, but spent 0.900000 of {world.CHURN.capped_cap}"
    ]
