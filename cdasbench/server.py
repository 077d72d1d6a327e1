"""The benchmark's server entry: one journaled CDAS gateway on a socket.

    python3 cdasbench/server.py --mode bulk|churn --journal PATH

``bulk`` builds the single-process gateway the way ``cdas-repro serve
--http --journal`` does: a calibrated CDAS over a 200-worker pool,
one journaled scheduler service, bearer-token tenants.  ``churn``
builds the 2-shard gateway of ``serve --http --processes 2 --journal``:
a :class:`~repro.cluster.ShardRouter` over the calibrated ``demo``
shard recipe, each shard journaled.  No input presets: every request
carries its corpus inline.

Once every shard is up and calibrated and the gateway listens, one JSON
line goes to stdout: ``{"port": ..., "pids": [gateway, shard, ...]}``.
The server then runs until its stdin closes.

With ``CDASBENCH_TRACE_DIR`` set, spans are recorded here (see
:mod:`layers`) and, through ``hook/sitecustomize.py`` on the shards'
``PYTHONPATH``, in every shard process.  Before shutting down, the
server asks each shard to write its spans (``SIGUSR1``) and writes its
own, all into that directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import world  # noqa: E402


def _build_bulk(journal: str):
    from repro.amt.market import SimulatedMarket
    from repro.amt.pool import PoolConfig, WorkerPool
    from repro.system import CDAS
    from repro.tsa.tweets import generate_tweets, tweet_to_question

    seed = world.WORLD_SEED
    pool = WorkerPool.from_config(PoolConfig(size=world.POOL_SIZE), seed=seed)
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=seed), seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=seed + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    app = cdas.gateway(
        world.TOKENS,
        name="svc",
        max_in_flight=world.SLOTS,
        journal=journal,
        journal_meta={"seed": seed},
    )
    service = app.mux["svc"]
    for tenant in world.TENANTS:
        service.register_tenant(tenant, priority=1.0, budget_cap=world.TENANT_CAP)
    service.register_tenant(
        world.CAPPED_TENANT, priority=1.0, budget_cap=world.BULK.capped_cap
    )
    return app


async def _build_churn(journal: str):
    from repro.cluster import ShardRouter
    from repro.gateway.app import GatewayApp
    from repro.gateway.auth import TokenAuth

    router = ShardRouter(
        2,
        workload="demo",
        seed=world.WORLD_SEED,
        journal=journal,
        max_in_flight=world.SLOTS,
    )
    await router.start()
    homes = set()
    for tenant in world.TENANTS:
        homes.add(
            await router.register_tenant(
                tenant, priority=1.0, budget_cap=world.TENANT_CAP
            )
        )
    if len(homes) != len(world.TENANTS):
        raise SystemExit(f"tenants {world.TENANTS} share a shard: {homes}")
    await router.register_tenant(
        world.CAPPED_TENANT, priority=1.0, budget_cap=world.CHURN.capped_cap
    )
    return router, GatewayApp(router, TokenAuth(world.TOKENS))


async def _wait_for_stdin_eof() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    while await reader.read(4096):
        pass


async def _dump_shards(router, trace_dir: str) -> None:
    """Ask every shard for its spans and wait until each has written them."""
    paths = []
    for service in router.services:
        os.kill(service.pid, signal.SIGUSR1)
        paths.append(os.path.join(trace_dir, f"shard-{service.pid}.json"))
    for _ in range(600):
        if all(os.path.exists(path) for path in paths):
            return
        await asyncio.sleep(0.05)
    raise SystemExit(f"shards did not write their spans: {paths}")


async def serve(mode: str, journal: str) -> int:
    from repro.gateway import GatewayServer

    trace_dir = os.environ.get("CDASBENCH_TRACE_DIR")
    tracer = None
    if trace_dir:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer, role="gateway")
        # Shards inherit the environment: they load the hook at start-up.
        hook = os.path.join(HERE, "hook")
        existing = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = hook + (os.pathsep + existing if existing else "")
    router = None
    if mode == "bulk":
        app = _build_bulk(journal)
    else:
        router, app = await _build_churn(journal)
    try:
        async with GatewayServer(app, host="127.0.0.1", port=0) as server:
            pids = [os.getpid()]
            if router is not None:
                pids += [service.pid for service in router.services]
            print(json.dumps({"port": server.port, "pids": pids}), flush=True)
            await _wait_for_stdin_eof()
            if tracer is not None:
                if router is not None:
                    await _dump_shards(router, trace_dir)
                layers.dump(tracer, os.path.join(trace_dir, f"gateway-{os.getpid()}.json"))
    finally:
        if router is not None:
            await router.aclose()
        else:
            await app.mux.aclose()
            app.mux["svc"].service.close()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("bulk", "churn"), required=True)
    parser.add_argument("--journal", required=True)
    args = parser.parse_args()
    return asyncio.run(serve(args.mode, args.journal))


if __name__ == "__main__":
    sys.exit(main())
