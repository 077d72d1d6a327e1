"""The ``serve-bulk`` and ``serve-churn`` workloads.

Each run starts fresh servers (:mod:`server`) pinned to the benchmark's
CPU and drives one of them with two closed-loop clients in lockstep
rounds: in every round each client runs its op of the seeded schedule
(:func:`world.build_schedule`) to the end, and the round ends when both
have.  The reference kernel runs between groups of rounds, while the
server is idle; every latency in a group is scaled by the probes on
either side of it.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import refspeed
import stats
import world

HERE = os.path.dirname(os.path.abspath(__file__))
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Spend comparisons allow the ledger's 6-decimal rounding per query.
SPEND_TOLERANCE = 1e-6


# -- one server --------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    pids: list[int]
    startup_s: float


def start_server(mode: str, journal: str, trace_dir: str | None = None) -> Server:
    """Spawn the server and wait until it listens with every shard up."""
    env = dict(os.environ)
    env.pop("CDASBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["CDASBENCH_TRACE_DIR"] = trace_dir
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), "--mode", mode, "--journal", journal],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout=120):
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{mode} server did not start within 120 s")
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    if not line:
        proc.wait()
        raise RuntimeError(f"{mode} server exited with {proc.returncode} before listening")
    info = json.loads(line)
    return Server(proc, info["port"], info["pids"], elapsed)


def stop_server(server: Server) -> None:
    """Close the server's stdin and wait for it (and its shards) to exit."""
    server.proc.stdin.close()
    try:
        server.proc.wait(timeout=90)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
        raise RuntimeError("server did not shut down within 90 s") from None
    server.proc.stdout.close()


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM)."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def journal_bytes(journal: str) -> int:
    """Bytes appended to the run's journal files (one per shard)."""
    directory, base = os.path.split(journal)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith(base)
    )


# -- HTTP at the generator's sockets -----------------------------------------


@dataclass
class Wire:
    sent: int = 0
    received: int = 0


async def http(
    wire: Wire,
    port: int,
    method: str,
    path: str,
    token: str,
    body: bytes | None = None,
    key: str | None = None,
) -> tuple[int, bytes]:
    """One request on a fresh connection; the server closes after the
    response, so the body is everything up to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = f"{method} {path} HTTP/1.1\r\nhost: bench\r\nauthorization: Bearer {token}\r\n"
    if body is not None:
        head += f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
    if key is not None:
        head += f"idempotency-key: {key}\r\n"
    data = head.encode("latin-1") + b"\r\n" + (body or b"")
    writer.write(data)
    wire.sent += len(data)
    raw = await reader.read()
    wire.received += len(raw)
    writer.close()
    await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split(b" ", 2)[1]), payload


def sse_events(payload: bytes) -> list[str]:
    return [
        line[len(b"event: "):].decode()
        for line in payload.split(b"\n")
        if line.startswith(b"event: ")
    ]


# -- one op ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op observed, raw (seconds, unscaled)."""

    attempted: int = 0
    violations: list[str] = field(default_factory=list)
    ack_s: float | None = None
    query_s: float | None = None
    query_id: str | None = None
    state: str | None = None
    spend: float = 0.0
    items: int = 0
    answers: int = 0
    correct: int = 0


async def run_op(op: world.Op, port: int, wire: Wire) -> Outcome:
    out = Outcome()
    token = f"{op.tenant}-token"
    if op.explain:
        out.attempted += 1
        status, payload = await http(wire, port, "POST", "/v1/explain", token, op.body)
        if status != 200 or not json.loads(payload)["decision"]["admitted"]:
            out.violations.append(f"explain answered {status}")
    out.attempted += 1
    sent = time.perf_counter()
    status, payload = await http(wire, port, "POST", "/v1/queries", token, op.body, op.key)
    out.ack_s = time.perf_counter() - sent
    reply = json.loads(payload)
    if op.infeasible:
        if status != 402 or reply.get("decision", {}).get("counter_offer") is None:
            out.violations.append(f"infeasible body answered {status} without a counter-offer")
        return out
    if status != 201:
        out.violations.append(f"submit answered {status}: {reply}")
        return out
    query_id = out.query_id = reply["id"]
    path = f"/v1/queries/{query_id}"
    if op.poll:
        out.attempted += 1
        status, _ = await http(wire, port, "GET", path, token)
        if status != 200:
            out.violations.append(f"poll answered {status}")
    if op.cancel:
        out.attempted += 1
        status, _ = await http(wire, port, "DELETE", path, token)
        if status != 200:
            out.violations.append(f"cancel answered {status}")
    status, payload = await http(wire, port, "GET", path + "/events", token)
    events = sse_events(payload)
    if status != 200 or not events or events[-1] != "end":
        out.violations.append(f"event stream answered {status}, ended with {events[-1:]}")
    status, payload = await http(wire, port, "GET", path, token)
    final = json.loads(payload)
    if not op.cancel:
        out.query_s = time.perf_counter() - sent
    out.state = final["progress"]["state"]
    out.spend = float(final["progress"]["spend"])
    allowed = ("done", "cancelled") if op.cancel else ("done",)
    if status != 200 or out.state not in allowed:
        out.violations.append(f"query {query_id} ended {out.state}")
    if out.state == "done":
        _score(op, final["result"]["verdicts"], out)
    if op.replay:
        out.attempted += 1
        status, payload = await http(wire, port, "POST", "/v1/queries", token, op.body, op.key)
        replayed = json.loads(payload).get("id")
        if status != 200 or replayed != query_id:
            out.violations.append(f"replay answered {status} with {replayed}, not {query_id}")
    return out


async def exhaust_cap(op: world.Op, cap: float, port: int, wire: Wire) -> list[Outcome]:
    """Submit ``op`` again and again until the server refuses it for
    its tenant's ``cap``.

    Every admitted query must end ``done``.  The refusal must be a 402
    whose decision shows the query's cost above the tenant's remaining
    budget, and that remaining budget must be the cap less what the
    admitted queries spent; or a 403 once they spent the whole cap.  A
    server that admits ``CAPPED_ATTEMPTS`` submits fails the check.
    """
    token = f"{op.tenant}-token"
    outcomes: list[Outcome] = []
    spent = 0.0
    for _ in range(world.CAPPED_ATTEMPTS):
        out = Outcome(attempted=1)
        outcomes.append(out)
        status, payload = await http(wire, port, "POST", "/v1/queries", token, op.body)
        reply = json.loads(payload)
        if status == 201:
            query_id = out.query_id = reply["id"]
            path = f"/v1/queries/{query_id}"
            await http(wire, port, "GET", path + "/events", token)
            status, payload = await http(wire, port, "GET", path, token)
            final = json.loads(payload)
            out.state = final["progress"]["state"]
            out.spend = float(final["progress"]["spend"])
            spent += out.spend
            if status != 200 or out.state != "done":
                out.violations.append(f"capped query {query_id} ended {out.state}")
            continue
        if status == 402:
            decision = reply.get("decision", {})
            remaining = decision.get("tenant_remaining")
            if remaining is None or decision.get("upfront", 0.0) <= remaining:
                out.violations.append(f"capped tenant refused with room left: {decision}")
            elif abs(remaining - (cap - spent)) > SPEND_TOLERANCE * len(outcomes):
                out.violations.append(
                    f"capped tenant has {remaining} left, but spent {spent:.6f} of {cap}"
                )
        elif status != 403 or spent < cap - SPEND_TOLERANCE * len(outcomes):
            out.violations.append(f"capped tenant answered {status} after spending {spent:.6f}")
        return outcomes
    outcomes[-1].violations.append(
        f"capped tenant admitted {world.CAPPED_ATTEMPTS} submits under a ${cap} cap"
    )
    return outcomes


def _score(op: world.Op, verdicts: list[list[Any]], out: Outcome) -> None:
    """Accuracy against ground truth, and the label-domain check."""
    finalised = set()
    for question_id, answer, _confidence in verdicts:
        truth = op.truth.get(question_id)
        if truth is None:
            out.violations.append(f"verdict for unknown item {question_id}")
            continue
        if answer is not None and answer not in op.domain:
            out.violations.append(f"label {answer!r} outside {op.domain}")
        out.answers += 1
        out.correct += answer == truth
        finalised.add(question_id.split("#", 1)[0])
    out.items = len(finalised)


# -- one run -----------------------------------------------------------------


async def _drive(
    schedule: list[list[world.Op]], shape: world.Shape, server: Server, prober: refspeed.Prober
) -> dict[str, Any]:
    wire = Wire()
    groups = []
    outcomes: list[list[Outcome]] = []
    before = prober.probe()
    for first in range(0, len(schedule), shape.rounds_per_probe):
        chunk = schedule[first:first + shape.rounds_per_probe]
        started = time.perf_counter()
        for ops in chunk:
            outcomes.append(
                await asyncio.gather(*(run_op(op, server.port, wire) for op in ops))
            )
        elapsed = time.perf_counter() - started
        after = prober.probe()
        groups.append({"rounds": len(chunk), "raw_s": elapsed, "before_s": before, "after_s": after})
        before = after
    return {"wire": wire, "groups": groups, "outcomes": outcomes}


async def _metrics(server: Server) -> dict[str, Any]:
    _, payload = await http(Wire(), server.port, "GET", "/v1/metrics", "-")
    return json.loads(payload)


def _ledger(metrics: dict[str, Any]) -> tuple[float, int]:
    """Ledger total and number of queries, summed over services."""
    total = 0.0
    queries = 0
    for entry in metrics["services"].values():
        total += entry["ledger"]["total_cost"]
        queries += sum(entry["queries"].values())
    return total, queries


async def _settled_ledger(server: Server, expected: float) -> tuple[float, int]:
    """Shards push their ledgers; give late pushes a moment to land."""
    for _ in range(40):
        total, queries = _ledger(await _metrics(server))
        if abs(total - expected) <= SPEND_TOLERANCE * 100:
            break
        await asyncio.sleep(0.05)
    return total, queries


def run_serving(
    schedule: list[list[world.Op]],
    shape: world.Shape,
    mode: str,
    out_dir: str,
    trace_dir: str | None,
) -> dict[str, Any]:
    """Set up ``SETUPS`` fresh servers, drive the schedule on the last;
    raw figures."""
    setup: dict[str, list[float]] = {"raw_s": [], "before_s": [], "after_s": []}
    setup_prober = refspeed.Prober(work=refspeed.spawn)
    tag = "plain" if trace_dir is None else "traced"
    for attempt in range(SETUPS):
        journal = os.path.join(out_dir, f"{mode}-{tag}-{attempt}.journal.jsonl")
        before = setup_prober.probe()
        server = start_server(mode, journal, trace_dir if attempt == SETUPS - 1 else None)
        setup_prober.pids = server.pids
        after = setup_prober.probe()
        setup["raw_s"].append(server.startup_s)
        setup["before_s"].append(before)
        setup["after_s"].append(after)
        if attempt < SETUPS - 1:
            stop_server(server)
            setup_prober.pids = []
    setup["probes"] = setup_prober.probes
    prober = refspeed.Prober(server.pids)

    async def session() -> dict[str, Any]:
        start_ledger, start_queries = _ledger(await _metrics(server))
        driven = await _drive(schedule, shape, server, prober)
        driven["capped"] = await exhaust_cap(
            world.capped_op(schedule), shape.capped_cap, server.port, driven["wire"]
        )
        spends = sum(o.spend for round_ in driven["outcomes"] for o in round_)
        spends += sum(o.spend for o in driven["capped"])
        end_ledger, end_queries = await _settled_ledger(server, start_ledger + spends)
        driven["ledger"] = {"start": start_ledger, "end": end_ledger, "query_spend": spends}
        driven["queries_on_server"] = end_queries - start_queries
        return driven

    try:
        driven = asyncio.run(session())
        rss = peak_rss_mb(server.pids)
    finally:
        stop_server(server)
    driven["peak_rss_mb"] = rss
    driven["journal_bytes"] = journal_bytes(journal)
    driven["setup"] = setup
    driven["probes"] = prober.probes
    driven["drift"] = prober.drift()
    return driven


def summarise(
    schedule_ops: list[list[world.Op]], shape: world.Shape, driven: dict[str, Any]
) -> dict[str, Any]:
    """End-to-end metrics and the output check from one driven run."""
    violations: list[str] = []
    attempted = 0
    acks, queries = [], []
    items = answers = correct = 0
    spend_by_tenant: dict[str, float] = {}
    accepted = 0
    serve_s = 0.0
    index = 0
    for group in driven["groups"]:
        factor = refspeed.P_NOMINAL_S / ((group["before_s"] + group["after_s"]) / 2.0)
        serve_s += group["raw_s"] * factor
        for _ in range(group["rounds"]):
            for op, out in zip(schedule_ops[index], driven["outcomes"][index]):
                attempted += out.attempted
                violations += out.violations
                if out.ack_s is not None:
                    acks.append(out.ack_s * factor)
                if out.query_s is not None:
                    queries.append(out.query_s * factor)
                if out.query_id is not None:
                    accepted += 1
                items += out.items
                answers += out.answers
                correct += out.correct
                spend_by_tenant[op.tenant] = spend_by_tenant.get(op.tenant, 0.0) + out.spend
            index += 1
    # The capped tenant's submits after the schedule: checked, not timed.
    for out in driven["capped"]:
        attempted += out.attempted
        violations += out.violations
        accepted += out.query_id is not None
        spend_by_tenant[world.CAPPED_TENANT] = (
            spend_by_tenant.get(world.CAPPED_TENANT, 0.0) + out.spend
        )
    for tenant, spend in spend_by_tenant.items():
        cap = shape.capped_cap if tenant == world.CAPPED_TENANT else world.TENANT_CAP
        if spend > cap + SPEND_TOLERANCE:
            violations.append(f"tenant {tenant} spent {spend:.4f} over its cap")
    ledger = driven["ledger"]
    charged = ledger["end"] - ledger["start"]
    if abs(charged - ledger["query_spend"]) > SPEND_TOLERANCE * max(1, accepted):
        violations.append(
            f"ledger charged {charged:.6f} but queries report {ledger['query_spend']:.6f}"
        )
    if driven["queries_on_server"] != accepted:
        violations.append(
            f"server holds {driven['queries_on_server']} queries for {accepted} accepted submits"
        )
    setup = driven["setup"]
    setups = [
        refspeed.scale(raw, b, a, refspeed.P_SPAWN_NOMINAL_S)
        for raw, b, a in zip(setup["raw_s"], setup["before_s"], setup["after_s"])
    ]
    tail_ms, tail_pct, tail_n = stats.tail([q * 1000 for q in queries])
    metrics = {
        "setup_s": statistics.median(setups),
        "report_s": serve_s,
        "items_per_s": items / serve_s,
        "query_p50_ms": statistics.median(queries) * 1000,
        "query_tail_ms": tail_ms,
        "ack_p50_ms": statistics.median(acks) * 1000,
        "accuracy": correct / answers if answers else 0.0,
        "spend_per_item": charged / items if items else 0.0,
        "peak_rss_mb": driven["peak_rss_mb"],
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "violations": violations,
        "probes": driven["probes"],
        "drift": driven["drift"],
        "detail": {
            "query_tail": {"percentile": tail_pct, "samples": len(queries), "beyond": tail_n},
            "serve_s_ref": serve_s,
            "items": items,
            "answers": answers,
            "setup_raw_s": setup["raw_s"],
            "setup_ref_s": setups,
            "setup_probes": setup["probes"],
            "groups": driven["groups"],
            "ledger": ledger,
            "bytes_in": driven["wire"].sent,
            "bytes_out": driven["wire"].received,
            "journal_bytes": driven["journal_bytes"],
        },
    }


def run(workload: str, seed: int, seconds: int, out_dir: str, trace: bool) -> dict[str, Any]:
    """The workload's result: metrics, counts, check and raw detail."""
    shape = world.BULK if workload == "serve-bulk" else world.CHURN
    mode = "bulk" if workload == "serve-bulk" else "churn"
    rounds = max(4, round(seconds * shape.rounds_per_s))
    schedule = world.build_schedule(shape, seed, rounds)
    plain = summarise(schedule, shape, run_serving(schedule, shape, mode, out_dir, None))
    if not trace:
        return plain
    import layers

    trace_dir = os.path.join(out_dir, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    traced = summarise(schedule, shape, run_serving(schedule, shape, mode, out_dir, trace_dir))
    summaries = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            summaries.append(json.load(fh))
    shutil.rmtree(trace_dir)
    factor = refspeed.P_NOMINAL_S / traced["drift"]["median_s"]
    per_layer = layers.per_layer_metrics(summaries, factor)
    per_layer["durability.append.bytes"] = traced["detail"]["journal_bytes"]
    per_layer["gateway.bytes_in"] = traced["detail"]["bytes_in"]
    per_layer["gateway.bytes_out"] = traced["detail"]["bytes_out"]
    per_layer["trace.overhead"] = (
        plain["metrics"]["items_per_s"] / traced["metrics"]["items_per_s"]
    )
    traced["per_layer"] = per_layer
    traced["violations"] = plain["violations"] + traced["violations"]
    traced["attempted"] = plain["attempted"] + traced["attempted"]
    traced["detail"]["untraced"] = plain["metrics"]
    return traced
