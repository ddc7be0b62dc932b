"""Start the planner daemon with the benchmark's span wrappers installed.

The traced ``serve-pods`` run uses this in place of
``python -m repro.experiments serve``: it wraps every layer's public
callables, then serves through the public ``PlannerDaemon`` /
``ServiceServer`` classes on a unix socket.  On SIGTERM it stops the
server and writes the spans and program counters to ``--spans-out``;
SIGUSR1 restarts both, so a warm-up can be left out.

    python3 perfbench/daemon_launcher.py --socket S --workers 2 --spans-out F
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from common import counters, import_program, raw_counters
from tracing import Recorder, install


async def serve(args, recorder: Recorder, installed: dict) -> None:
    from repro.service import PlannerDaemon, ServiceServer

    daemon = PlannerDaemon(workers=args.workers)
    stopped = asyncio.Event()
    marks = {}

    def mark() -> None:
        recorder.reset()
        marks["counters"] = raw_counters((daemon.cache,))

    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stopped.set)
    loop.add_signal_handler(signal.SIGUSR1, mark)
    async with ServiceServer(daemon) as server:
        await server.start_unix(args.socket)
        await stopped.wait()
    with open(args.spans_out, "w") as fh:
        json.dump(
            {
                "layers": recorder.layers(),
                "counters": counters(
                    raw_counters((daemon.cache,)), marks.get("counters")
                ),
                **installed,
            },
            fh,
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    import_program()
    recorder = Recorder()
    installed = install(recorder)
    asyncio.run(serve(args, recorder, installed))


if __name__ == "__main__":
    main()
