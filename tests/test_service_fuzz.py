"""Protocol fuzzing against both request front ends: server and router.

Every malformed, oversized, partial or interleaved frame, and every op
with empty params, must answer ``ok`` or a typed :class:`CastError` —
never an ``internal error`` — and the daemon must keep serving a second
connection.  Solves go through stub ``solver_fn``s; nothing sleeps.
"""

import asyncio
import json

import pytest

from repro import errors
from repro.fleet import FleetRouter
from repro.service import PlannerServer, SolverPool
from repro.service.protocol import MAX_LINE_BYTES, OPS


async def stub_solver(request):
    return {"kind": "plan", "utility": 1.0, "plan": {"placements": {}}}


def new_server():
    return PlannerServer(
        pool=SolverPool(processes=0, restarts=1),
        solver_fn=stub_solver,
        slo_eval_interval_s=0,
    )


class Daemon:
    """One role under test on a real socket; the router gets one shard."""

    def __init__(self, role):
        self.role = role
        self.daemons = []

    async def __aenter__(self):
        if self.role == "router":
            shard = new_server()
            await shard.start()
            router = FleetRouter(health_interval_s=0, slo_eval_interval_s=0,
                                 default_restarts=1)
            router.add_shard("s0", *shard.address)
            self.daemons = [shard, router]
        else:
            self.daemons = [new_server()]
        await self.daemons[-1].start()
        return self

    async def __aexit__(self, *exc):
        for daemon in reversed(self.daemons):
            await daemon.stop()

    async def connect(self):
        host, port = self.daemons[-1].address
        return await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)

    async def exchange(self, data, n_replies, eof=False):
        """Send raw bytes, read up to ``n_replies`` response lines."""
        reader, writer = await self.connect()
        try:
            writer.write(data)
            if eof:
                writer.write_eof()
            try:
                await writer.drain()
            except ConnectionError:
                pass  # the daemon dropped us mid-write (oversized frame)
            replies = []
            for _ in range(n_replies):
                line = await reader.readline()
                if not line:
                    break
                replies.append(json.loads(line))
            tail = await reader.read(1) if eof else None
            return replies, tail
        finally:
            writer.close()

    async def ping_on_new_connection(self):
        replies, _ = await self.exchange(b'{"v":1,"id":"p","op":"ping"}\n', 1)
        assert replies and replies[0]["ok"], replies


def assert_answered(reply):
    """``ok``, or a typed CastError that is not an internal error."""
    if reply["ok"]:
        return
    err = reply["error"]
    cls = getattr(errors, err["type"], None)
    assert isinstance(cls, type) and issubclass(cls, errors.CastError), err
    assert "internal error" not in err["message"], err


def line(obj):
    return (json.dumps(obj) + "\n").encode()


PING = line({"v": 1, "id": "after", "op": "ping"})

#: name -> (bytes sent, replies expected, expected error type or None,
#:          connection kept open afterwards)
CASES = {
    "malformed_json": (b"{not json\n" + PING, 2, "ProtocolError", True),
    "non_object_line": (b"[1, 2, 3]\n" + PING, 2, "ProtocolError", True),
    "wrong_version": (line({"v": 99, "op": "ping"}) + PING, 2, "ProtocolError", True),
    "unknown_op": (line({"v": 1, "op": "launch"}) + PING, 2, "ProtocolError", True),
    "non_object_params": (
        line({"v": 1, "op": "ping", "params": [1]}) + PING, 2, "ProtocolError", True,
    ),
    "two_requests_one_write": (
        line({"v": 1, "id": "a", "op": "ping"}) + PING, 2, None, True,
    ),
    "oversized_frame": (
        b"x" * (MAX_LINE_BYTES + 1024 * 1024) + b"\n", 1, "ProtocolError", False,
    ),
}


@pytest.mark.parametrize("role", ["server", "router"])
class TestProtocolFuzz:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_frame_answers_typed_and_daemon_survives(self, role, case):
        data, n_replies, error_type, kept = CASES[case]

        async def scenario():
            async with Daemon(role) as daemon:
                # One read past the replies proves a dropped connection is closed.
                replies, _ = await daemon.exchange(data, n_replies + (not kept))
                assert len(replies) == n_replies, replies
                for reply in replies:
                    assert_answered(reply)
                first = replies[0]
                if error_type is None:
                    assert first["ok"]
                else:
                    assert first["error"]["type"] == error_type
                if kept:
                    assert replies[-1]["ok"] and replies[-1]["id"] == "after"
                await daemon.ping_on_new_connection()

        asyncio.run(scenario())

    def test_partial_frame_then_eof(self, role):
        async def scenario():
            async with Daemon(role) as daemon:
                replies, tail = await daemon.exchange(
                    b'{"v": 1, "op": "pi', 1, eof=True
                )
                assert [r["error"]["type"] for r in replies] == ["ProtocolError"]
                assert tail == b""  # the daemon closed its side
                await daemon.ping_on_new_connection()

        asyncio.run(scenario())

    def test_every_op_with_empty_params(self, role):
        async def scenario():
            async with Daemon(role) as daemon:
                data = b"".join(
                    line({"v": 1, "id": op, "op": op, "params": {}}) for op in OPS
                )
                replies, _ = await daemon.exchange(data, len(OPS))
                assert [r["id"] for r in replies] == list(OPS)
                for reply in replies:
                    assert_answered(reply)
                await daemon.ping_on_new_connection()

        asyncio.run(scenario())

    @pytest.mark.parametrize("params", [
        {"duration_s": float("nan")},
        {"duration_s": float("inf")},
        {"duration_s": 0.05, "interval_s": float("nan")},
        {"duration_s": 0.05, "interval_s": float("inf")},
        {"duration_s": 0.05, "interval_s": 1e300},
    ])
    def test_profile_rejects_non_finite_params(self, role, params):
        async def scenario():
            async with Daemon(role) as daemon:
                request = line({"v": 1, "op": "profile", "params": params})
                replies, _ = await daemon.exchange(request, 1)
                assert replies[0]["error"]["type"] == "ProtocolError"

        asyncio.run(scenario())


def test_client_maps_oversized_reply_to_protocol_error():
    from repro.service import PlannerClient

    async def huge_reply(reader, writer):
        await reader.readline()
        writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def scenario():
        server = await asyncio.start_server(huge_reply, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = PlannerClient("127.0.0.1", port, retries=0)
            with pytest.raises(errors.ProtocolError, match="exceeds"):
                await client.ping()
            assert client._writer is None  # the unframed connection is gone
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
