"""``ProcessTransport`` failure paths, driven through fake pipes.

Real worker processes make a stuck shard, a handler error racing a good
reply or a pipe that breaks on send hard to stage on demand, so these
tests hand a ``ProcessTransport`` built over no workers fake connection
and process objects for its shards.  What they pin is the broadcast
contract: every command is sent before any reply is read, all replies
share one deadline, every shard is drained even after another failed,
and a crash outranks a handler error.  The real-process crash → restart
cases live in ``test_serve_process.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.serve import ProcessTransport
from repro.serve.protocol import CrashWorker, ErrorReply, Reply, ShardCrashed

pytestmark = pytest.mark.serve

TIMEOUT = 0.4


class FakeConn:
    """One coordinator-side pipe end; ``reply=None`` never answers."""

    def __init__(self, shard, log, reply=None, send_error=None, recv_error=None):
        self.shard, self.log = shard, log
        self.reply, self.send_error, self.recv_error = reply, send_error, recv_error
        self.polls: list[float] = []

    def send(self, command):
        if self.send_error is not None:
            raise self.send_error
        self.log.append(("send", self.shard))

    def poll(self, timeout):
        self.polls.append(timeout)
        if self.reply is None and self.recv_error is None:
            time.sleep(timeout)
            return False
        return True

    def recv(self):
        self.log.append(("recv", self.shard))
        if self.recv_error is not None:
            raise self.recv_error
        return self.reply

    def close(self):
        pass


class FakeProc:
    def __init__(self, alive=True):
        self.alive = alive
        self.joins: list[float | None] = []

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        self.joins.append(timeout)

    def terminate(self):
        self.alive = False


@pytest.fixture
def wire():
    """``wire(s0=conn_kwargs, s1=...)`` -> (transport, conns, procs, log)."""
    made = []

    def build(**shards):
        log: list[tuple[str, int]] = []
        transport = ProcessTransport({}, timeout=TIMEOUT)
        conns, procs = {}, {}
        for key, kwargs in shards.items():
            shard = int(key.lstrip("s"))
            alive = kwargs.pop("alive", True)
            conns[shard] = transport._conns[shard] = FakeConn(shard, log, **kwargs)
            procs[shard] = transport._procs[shard] = FakeProc(alive)
        made.append(transport)
        return transport, conns, procs, log

    yield build
    for transport in made:
        transport.close()


def test_two_stuck_shards_cost_one_timeout(wire):
    transport, conns, _, log = wire(s0={}, s1={})
    t0 = time.perf_counter()
    with pytest.raises(ShardCrashed, match="alive but stuck") as excinfo:
        transport.broadcast({0: "cmd", 1: "cmd"})
    elapsed = time.perf_counter() - t0
    assert excinfo.value.shard == 0
    assert log == [("send", 0), ("send", 1)]
    # One deadline for the whole broadcast: the second shard is polled
    # with what is left of it, not with a fresh timeout.
    assert sum(conns[0].polls + conns[1].polls) <= TIMEOUT + 1e-6
    assert elapsed < 1.5 * TIMEOUT


def test_dead_process_without_reply_is_named_dead(wire):
    transport, *_ = wire(s0={"alive": False})
    with pytest.raises(ShardCrashed, match=r"process dead"):
        transport.broadcast({0: "cmd"})


def test_handler_error_is_raised_after_the_other_reply_is_read(wire):
    ok = Reply(payload="fine")
    transport, _, _, log = wire(s0={"reply": ErrorReply(error="boom")}, s1={"reply": ok})
    with pytest.raises(RuntimeError, match=r"shard 0 handler failed(?s:.*)boom"):
        transport.broadcast({0: "cmd", 1: "cmd"})
    assert log == [("send", 0), ("send", 1), ("recv", 0), ("recv", 1)]


def test_crash_outranks_an_earlier_handler_error(wire):
    transport, *_ = wire(
        s0={"reply": ErrorReply(error="boom")}, s1={"recv_error": EOFError()}
    )
    with pytest.raises(ShardCrashed, match="EOFError") as excinfo:
        transport.broadcast({0: "cmd", 1: "cmd"})
    assert excinfo.value.shard == 1


def test_broken_pipe_on_send_still_drains_the_other_shard(wire):
    transport, _, _, log = wire(
        s0={"send_error": BrokenPipeError("gone")}, s1={"reply": Reply(payload=1)}
    )
    with pytest.raises(ShardCrashed, match="BrokenPipeError") as excinfo:
        transport.broadcast({0: "cmd", 1: "cmd"})
    assert excinfo.value.shard == 0
    assert log == [("send", 1), ("recv", 1)]


def test_request_is_the_one_shard_broadcast(wire):
    reply = Reply(payload="only")
    transport, _, procs, log = wire(s0={"reply": Reply(payload="other")}, s1={"reply": reply})
    assert transport.request(1, "cmd") is reply
    assert log == [("send", 1), ("recv", 1)]
    with pytest.raises(ShardCrashed, match="CrashWorker"):
        transport.request(0, CrashWorker())
    assert procs[0].joins and procs[0].joins[0] <= TIMEOUT
    assert log[-1] == ("send", 0)  # no reply is awaited from a crash
