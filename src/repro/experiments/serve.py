"""The ``serve`` subcommand: run the planner daemon as a process.

Three transports, picked by flags:

* ``--socket PATH`` — JSONL over a unix domain socket (the default;
  a path under the system temp directory is chosen when omitted);
* ``--host/--port`` — the same protocol over TCP (``--port 0`` binds an
  ephemeral port and prints it);
* ``--stdio`` — the protocol over stdin/stdout, for process managers
  that speak pipes.

``--smoke N`` is the self-test mode CI uses: start the daemon on a
private unix socket, fire N concurrent mixed requests (plans with
deliberate duplicates, batches, simulations, metrics probes) through
the multiplexing async client, then verify that every request
succeeded and that the coalescing and micro-batching machinery
actually engaged.  Exit code 0 means the service held up under
concurrency.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile

from ..planner import Scenario
from ..service import (
    AsyncServiceClient,
    PlannerDaemon,
    ServiceServer,
    serve_stdio,
)
from ..units import Gbps, KiB, ns, us

__all__ = ["run_serve"]


def _daemon_from_args(args) -> PlannerDaemon:
    return PlannerDaemon(
        cache_dir=args.cache_dir,
        batch_window_s=args.batch_window / 1e3,
        max_batch=args.max_batch,
        workers=args.workers,
    )


def _smoke_scenarios() -> list[Scenario]:
    """A few small, fast scenarios the smoke mix draws from."""
    return [
        Scenario.create(
            algorithm,
            n=n,
            message_size=KiB(64),
            bandwidth=Gbps(800),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
        for algorithm in ("allreduce_ring", "allgather_ring")
        for n in (4, 8)
    ]


async def _run_smoke(args) -> int:
    count = args.smoke
    scenarios = _smoke_scenarios()
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        path = args.socket or os.path.join(tmp, "repro.sock")
        async with ServiceServer(_daemon_from_args(args)) as server:
            await server.start_unix(path)
            async with await AsyncServiceClient.connect_unix(path) as client:
                requests = []
                for index in range(count):
                    scenario = scenarios[index % len(scenarios)]
                    slot = index % 5
                    if slot < 3:
                        # Three of five slots are plans over a small
                        # scenario pool — duplicates are the point:
                        # they must coalesce or batch, not re-solve.
                        requests.append(client.plan_request(scenario))
                    elif slot == 3:
                        requests.append(
                            client.plan_batch_request(scenarios[:2])
                        )
                    else:
                        requests.append(client.metrics_request())
                responses = await asyncio.gather(
                    *(client.request(request) for request in requests)
                )
                metrics = (await client.metrics()).result

        failed = [r for r in responses if not r.ok]
        cache = metrics["cache"]
        print(
            f"smoke: {count} concurrent requests, {len(failed)} failed; "
            f"dispatched={metrics['dispatched']} "
            f"coalesced={metrics['coalesced']} "
            f"batches={metrics['batches']} "
            f"(largest {metrics['largest_batch']})"
        )
        print(
            f"theta cache: hits={cache['hits']} misses={cache['misses']} "
            f"size={cache['size']}"
        )
        block = metrics.get("block") or {}
        if block.get("pod_solves"):
            print(
                f"block solver: pod_solves={block['pod_solves']} "
                f"memo_hits={block['memo_hits']}"
            )
        if args.json:
            print(json.dumps(metrics, indent=2, default=str))
        for response in failed[:5]:
            print(f"  FAILED {response.kind}: {response.error.to_dict()}")
        if failed:
            return 1
        if metrics["coalesced"] + metrics["batched_requests"] <= 1:
            # With duplicate plans in flight, the daemon must have
            # shared work; if it solved everything independently the
            # whole point of the service is broken.
            print("smoke: no coalescing or batching engaged")
            return 1
        print("smoke: OK")
        return 0


async def _run_server(args) -> int:
    daemon = _daemon_from_args(args)
    if args.stdio:
        await serve_stdio(daemon)
        return 0
    async with ServiceServer(daemon) as server:
        if args.host is not None or args.port is not None:
            await server.start_tcp(args.host or "127.0.0.1", args.port or 0)
            print(
                f"planner service on {args.host or '127.0.0.1'}:"
                f"{server.tcp_port}",
                flush=True,
            )
        else:
            path = args.socket or os.path.join(
                tempfile.gettempdir(), "repro-planner.sock"
            )
            await server.start_unix(path)
            print(f"planner service on {path}", flush=True)
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
    return 0


def run_serve(args) -> int:
    """Entry point for the ``serve`` subcommand (smoke or long-running)."""
    if args.smoke is not None:
        return asyncio.run(_run_smoke(args))
    try:
        return asyncio.run(_run_server(args))
    except KeyboardInterrupt:
        return 0
