"""JSONL transports for the planner daemon.

The wire protocol is deliberately minimal: **one JSON object per
line**, in both directions.  A request line is a
:class:`~repro.service.ServiceRequest` envelope (``kind`` / ``body`` /
optional ``id`` / ``priority`` / ``deadline_s``) plus one
transport-only key — ``"stream": true`` asks for per-scenario chunks
on ``plan_batch`` requests.  Every response line is a
:class:`~repro.service.ServiceResponse` dict; streamed chunks carry
``seq`` and ``final: false``, and every exchange ends with a
``final: true`` envelope for the request's id.

Responses are written as they complete, not in request order — clients
multiplex by ``id`` (see :mod:`repro.service.client`).  A line that is
not even JSON gets a ``validation`` error response with a fresh id;
nothing a client sends can take the server down.

:class:`ServiceServer` binds a unix socket and/or TCP port on a running
loop (unix sockets are the default for local use — no ports to
collide).  :func:`serve_stdio` is the subprocess-friendly variant: the
protocol over stdin/stdout, one client, EOF terminates.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import threading

from .daemon import PlannerDaemon
from .schemas import ServiceError, ServiceResponse, new_request_id

__all__ = ["ServiceServer", "serve_stdio"]

#: Refuse absurd lines instead of buffering them (asyncio default is 64 KiB,
#: too small for batch requests over large scenarios).
MAX_LINE_BYTES = 16 * 1024 * 1024


def _encode(response: ServiceResponse) -> bytes:
    return json.dumps(response.to_dict(), sort_keys=True).encode() + b"\n"


def _parse_error_response(daemon: PlannerDaemon, message: str) -> ServiceResponse:
    return ServiceResponse(
        id=new_request_id(),
        kind="unknown",
        ok=False,
        error=ServiceError(code="validation", message=message),
        version=daemon.version,
    )


class ServiceServer:
    """Accept JSONL clients and feed them through one shared daemon.

    Each connection handles its requests concurrently (one task per
    line), so a slow degradation grid never blocks a metrics probe on
    the same socket.  Writes are serialised per connection to keep
    lines whole.
    """

    def __init__(self, daemon: PlannerDaemon) -> None:
        self.daemon = daemon
        self._servers: list[asyncio.AbstractServer] = []
        self._tasks: set[asyncio.Task] = set()

    async def start_unix(self, path: str) -> "ServiceServer":
        await self.daemon.start()
        server = await asyncio.start_unix_server(
            self._handle_connection, path=path, limit=MAX_LINE_BYTES
        )
        self._servers.append(server)
        return self

    async def start_tcp(self, host: str, port: int) -> "ServiceServer":
        await self.daemon.start()
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port, limit=MAX_LINE_BYTES
        )
        self._servers.append(server)
        return self

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port, for ``port=0`` ephemeral binds."""
        for server in self._servers:
            for sock in server.sockets or ():
                name = sock.getsockname()
                if isinstance(name, tuple) and len(name) >= 2:
                    return name[1]
        return None

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        await self.daemon.stop()

    async def __aenter__(self) -> "ServiceServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def write(response: ServiceResponse) -> None:
            async with write_lock:
                writer.write(_encode(response))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await write(
                        _parse_error_response(self.daemon, "request line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._handle_line(line, write))
                pending.add(task)
                self._tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._tasks.discard)
            if pending:
                await asyncio.gather(*tuple(pending), return_exceptions=True)
        finally:
            # close() without wait_closed(): the transport finishes the
            # shutdown on its own, and awaiting here races loop teardown.
            writer.close()

    async def _handle_line(self, line: bytes, write) -> None:
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and the UnicodeDecodeError
            # of a line that is not UTF-8; a deeply nested line exhausts
            # the parser's recursion instead.
            await write(
                _parse_error_response(self.daemon, f"invalid JSON: {exc}")
            )
            return
        stream = isinstance(payload, dict) and bool(payload.pop("stream", False))
        try:
            if stream:
                async for chunk in self.daemon.submit_stream(payload):
                    await write(chunk)
            else:
                await write(await self.daemon.submit(payload))
        except (ConnectionError, OSError):
            pass  # client went away mid-response; nothing to tell it


class _StdinFeed:
    """Stdin fed into an :class:`asyncio.StreamReader` by blocking reads
    in a daemon thread.

    Blocking reads work on a pipe, a tty and a regular file alike (an
    event loop can only watch the first two), and a daemon thread never
    holds up exit.  The reader pauses the feed past twice its line limit
    and resumes it once drained, as it would a socket transport.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._resumed = threading.Event()
        self._resumed.set()
        reader.set_transport(self)
        args = (sys.stdin.fileno(), reader, asyncio.get_running_loop())
        threading.Thread(target=self._run, args=args, daemon=True).start()

    def pause_reading(self) -> None:
        self._resumed.clear()

    def resume_reading(self) -> None:
        self._resumed.set()

    def _run(self, fd: int, reader: asyncio.StreamReader, loop) -> None:
        # Raw reads: a daemon thread blocked inside the buffered
        # sys.stdin would hold its lock while the interpreter exits.
        with contextlib.suppress(RuntimeError):  # the loop closed first
            try:
                while chunk := os.read(fd, 1 << 16):
                    loop.call_soon_threadsafe(reader.feed_data, chunk)
                    self._resumed.wait()
            except OSError as exc:
                loop.call_soon_threadsafe(reader.set_exception, exc)
            else:
                loop.call_soon_threadsafe(reader.feed_eof)


class _StdoutWriter:
    """The part of :class:`asyncio.StreamWriter` a connection writes
    through, over stdout (a pipe or a regular file)."""

    def write(self, data: bytes) -> None:
        sys.stdout.buffer.write(data)

    async def drain(self) -> None:
        sys.stdout.buffer.flush()

    def close(self) -> None:
        sys.stdout.buffer.flush()


async def serve_stdio(daemon: PlannerDaemon) -> None:
    """Serve the JSONL protocol over stdin/stdout until EOF.

    Turns any process manager's stdio into a planner service — no
    sockets, no ports.  Stdin may be a pipe or a regular file.  It is
    one connection of :class:`ServiceServer`, so responses for
    concurrent requests interleave exactly as over a socket, and an
    over-long line is answered with ``request line too long`` and ends
    the session.
    """
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    _StdinFeed(reader)
    await daemon.start()
    await ServiceServer(daemon)._handle_connection(reader, _StdoutWriter())
    await daemon.stop()
