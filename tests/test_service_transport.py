"""The JSONL wire: server + async/sync clients over real sockets.

Covers the transport acceptance path: a unix-socket daemon serving
concurrent mixed requests from the multiplexing async client (the CI
smoke job in miniature), protocol survival of garbage input, streaming
over the wire, the blocking client, and TCP.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.planner import Scenario
from repro.service import (
    AsyncServiceClient,
    PlannerDaemon,
    ServiceClient,
    ServiceServer,
    ServiceUnavailable,
)
from repro.units import Gbps, KiB, ns, us


def scenario(n=8, algorithm="allreduce_ring"):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=KiB(64),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


def run(coro):
    return asyncio.run(coro)


#: Lines the JSON parser refuses, each for a different reason: not JSON,
#: not UTF-8 (a byte UTF-8 never uses, a continuation byte with no lead
#: byte, a sequence cut short, an overlong encoding), or nested past the
#: parser's recursion limit.
GARBAGE_LINES = [
    b"this is not json\n",
    b"\xff\n",
    b"\x80\n",
    b'{"kind": "\xc3"}\n',
    b"\xc0\xaf\n",
    b"[" * 100_000 + b"\n",
    b'{"a": ' * 100_000 + b"\n",
]


class TestUnixSocket:
    def test_unary_roundtrip(self, socket_path):
        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_unix(socket_path)
                async with await AsyncServiceClient.connect_unix(
                    socket_path
                ) as client:
                    return await client.plan(scenario())

        response = run(main())
        assert response.ok
        assert response.result["total_time"] > 0

    def test_concurrent_mixed_requests_all_succeed_and_coalesce(
        self, socket_path
    ):
        """The CI smoke assertion, as a test: 50 concurrent mixed
        requests through one connection, all ok, coalescing > 0."""

        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_unix(socket_path)
                async with await AsyncServiceClient.connect_unix(
                    socket_path
                ) as client:
                    pool = [scenario(n=n) for n in (4, 8)]
                    requests = []
                    for index in range(50):
                        if index % 5 == 4:
                            requests.append(client.metrics_request())
                        elif index % 5 == 3:
                            requests.append(client.plan_batch_request(pool))
                        else:
                            requests.append(
                                client.plan_request(pool[index % 2])
                            )
                    responses = await asyncio.gather(
                        *(client.request(r) for r in requests)
                    )
                    metrics = (await client.metrics()).result
                    return responses, metrics

        responses, metrics = run(main())
        assert len(responses) == 50
        assert all(response.ok for response in responses)
        assert metrics["coalesced"] + metrics["batched_requests"] > 1
        assert metrics["coalesced"] > 0

    @pytest.mark.parametrize(
        "garbage",
        GARBAGE_LINES,
        ids=[
            "not-json",
            "invalid-byte",
            "lone-continuation-byte",
            "truncated-multibyte",
            "overlong-encoding",
            "deep-array",
            "deep-object",
        ],
    )
    def test_garbage_line_gets_error_response_and_connection_survives(
        self, socket_path, garbage
    ):
        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_unix(socket_path)
                reader, writer = await asyncio.open_unix_connection(
                    socket_path
                )
                writer.write(garbage)
                await writer.drain()
                # Bounded: a line the server never answers must fail
                # here, not hang the suite.
                garbage_reply = json.loads(
                    await asyncio.wait_for(reader.readline(), 10)
                )
                writer.write(
                    json.dumps(
                        {"kind": "metrics", "id": "m1", "body": {}}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                metrics_reply = json.loads(
                    await asyncio.wait_for(reader.readline(), 10)
                )
                writer.close()
                return garbage_reply, metrics_reply

        garbage_reply, metrics_reply = run(main())
        assert garbage_reply["ok"] is False
        assert garbage_reply["error"]["code"] == "validation"
        assert metrics_reply["ok"] is True and metrics_reply["id"] == "m1"

    @settings(max_examples=60, deadline=None)
    @given(line=st.binary())
    def test_any_byte_line_is_answered_without_raising(self, line):
        async def main():
            daemon = PlannerDaemon(workers=1)
            await daemon.start()
            responses = []

            async def write(response):
                responses.append(response)

            try:
                await asyncio.wait_for(
                    ServiceServer(daemon)._handle_line(line, write), 10
                )
            finally:
                await daemon.stop()
            return responses

        assert len(run(main())) >= 1

    def test_streaming_over_the_wire(self, socket_path):
        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_unix(socket_path)
                async with await AsyncServiceClient.connect_unix(
                    socket_path
                ) as client:
                    request = client.plan_batch_request(
                        [scenario(n=4), scenario(n=8)]
                    )
                    return [
                        chunk
                        async for chunk in client.request_stream(request)
                    ]

        chunks = run(main())
        assert [c.seq for c in chunks] == [0, 1, None]
        assert chunks[-1].final and chunks[-1].ok

    def test_connect_to_missing_socket_raises_service_unavailable(
        self, socket_path
    ):
        async def main():
            await AsyncServiceClient.connect_unix(socket_path)

        with pytest.raises(ServiceUnavailable):
            run(main())


class TestSyncClient:
    def test_blocking_client_over_unix_socket(self, socket_path):
        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_unix(socket_path)

                def sync_calls():
                    with ServiceClient.connect_unix(socket_path) as client:
                        planned = client.plan(scenario())
                        metrics = client.metrics()
                        streamed = list(
                            client.request_stream(
                                client.plan_batch_request(
                                    [scenario(n=4), scenario(n=8)]
                                )
                            )
                        )
                        return planned, metrics, streamed

                return await asyncio.get_running_loop().run_in_executor(
                    None, sync_calls
                )

        planned, metrics, streamed = run(main())
        assert planned.ok and metrics.ok
        assert [c.seq for c in streamed] == [0, 1, None]

    def test_sync_connect_failure(self, tmp_path):
        with pytest.raises(ServiceUnavailable):
            ServiceClient.connect_unix(str(tmp_path / "absent.sock"))


class TestTcp:
    def test_tcp_ephemeral_port_roundtrip(self):
        async def main():
            async with ServiceServer(PlannerDaemon()) as server:
                await server.start_tcp("127.0.0.1", 0)
                port = server.tcp_port
                assert port
                async with await AsyncServiceClient.connect_tcp(
                    "127.0.0.1", port
                ) as client:
                    return await client.plan(scenario(n=4))

        assert run(main()).ok


class TestServeCli:
    def test_smoke_subcommand_passes(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["serve", "--smoke", "12", "--workers", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "smoke: OK" in output
        assert "0 failed" in output

    def test_stdio_answers_undecodable_and_deep_lines(self):
        """``serve --stdio`` answers a non-UTF-8 line and a too-deep line
        with ``validation`` errors, then serves the next request, and
        writes nothing to stderr."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        lines = b"\xff\n" + b"[" * 100_000 + b"\n" + b'{"kind": "metrics"}\n'
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "serve", "--stdio"],
            input=lines,
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0
        assert done.stderr == b""
        replies = [json.loads(line) for line in done.stdout.splitlines()]
        # Each line is its own task, so replies may arrive in any order.
        assert sorted(
            (r["ok"], r["kind"], r.get("error", {}).get("code"))
            for r in replies
        ) == [
            (False, "unknown", "validation"),
            (False, "unknown", "validation"),
            (True, "metrics", None),
        ]

    @staticmethod
    def _serve_stdio(**stdin):
        """``serve --stdio`` in a subprocess fed ``stdin=`` a file or
        ``input=`` bytes through a pipe: ``(returncode, replies,
        stderr)``."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "serve", "--stdio"],
            **stdin,
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        replies = [json.loads(line) for line in done.stdout.splitlines()]
        return done.returncode, replies, done.stderr

    def test_stdio_reads_a_regular_file(self, tmp_path):
        """``serve --stdio < requests.jsonl``: stdin is a regular file,
        which an event loop cannot watch."""
        requests = tmp_path / "requests.jsonl"
        requests.write_bytes(b'{"kind": "metrics"}\n')
        with requests.open("rb") as stdin:
            code, replies, stderr = self._serve_stdio(stdin=stdin)
        assert (code, stderr) == (0, b"")
        assert [(r["ok"], r["kind"]) for r in replies] == [(True, "metrics")]

    def test_stdio_answers_an_over_long_line(self):
        """A line past the 16 MiB limit is answered as over a socket
        (``request line too long``, which ends the session), not with a
        traceback."""
        from repro.service.server import MAX_LINE_BYTES

        lines = b"x" * (MAX_LINE_BYTES + (1 << 20)) + b"\n"
        lines += b'{"kind": "metrics"}\n'
        code, replies, stderr = self._serve_stdio(input=lines)
        assert (code, stderr) == (0, b"")
        assert [
            (r["ok"], r["error"]["code"], r["error"]["message"]) for r in replies
        ] == [(False, "validation", "request line too long")]

    def test_stdin_feed_pauses_past_the_reader_limit(self, monkeypatch):
        """The stdin feed stops reading while the reader holds more than
        twice its line limit, resumes once it drains, and every line
        still arrives, in order, before EOF."""
        import sys
        import types

        from repro.service.server import _StdinFeed

        class CountingFeed(_StdinFeed):
            pauses = 0

            def pause_reading(self):
                CountingFeed.pauses += 1
                super().pause_reading()

        lines = [b"line %d\n" % i for i in range(200)]
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"".join(lines))
        os.close(write_fd)
        stdin = types.SimpleNamespace(fileno=lambda: read_fd)
        monkeypatch.setattr(sys, "stdin", stdin)

        async def main():
            reader = asyncio.StreamReader(limit=16)
            CountingFeed(reader)
            got = []
            while line := await asyncio.wait_for(reader.readline(), 10):
                got.append(line)
            return got

        try:
            assert run(main()) == lines
        finally:
            os.close(read_fd)
        assert CountingFeed.pauses >= 1

    def test_version_flag(self, capsys):
        import repro
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out
