"""Tests of the real-thread (local) backend."""

import time

import pytest

from _process_utils import fast_backend
from repro.scp.effects import (Checkpoint, Compute, GetTime, Probe, Recv, Send,
                               Sleep)
from repro.scp.errors import ReceiveTimeout, SCPError, ThreadCrashedError
from repro.scp.local_backend import LocalBackend
from repro.scp.runtime import Application


# The probe cases run on both wall-clock backends, so their programs live at
# module level (the process backend pickles them to its workers).

def _probe_producer(ctx):
    yield Send(dst="consumer", port="data", payload=1)
    return None


def _probe_consumer(ctx):
    yield Sleep(seconds=0.1)
    return (yield Probe(port="data"))


def _check_probe(backend):
    app = Application()
    app.add_thread("producer", _probe_producer)
    app.add_thread("consumer", _probe_consumer)
    assert backend.run(app).return_of("consumer") is True


def _dedup_client(ctx):
    yield Send(dst="echo", port="request", payload=3, key=("req", 0))
    replies = []
    first = yield Recv(port="reply", timeout=5.0)
    replies.append(first.payload)
    # A second copy (from the other replica) must never be delivered.
    extra = yield Probe(port="reply")
    return replies, extra


def _dedup_echo(ctx):
    msg = yield Recv(port="request", timeout=5.0)
    yield Send(dst="client", port="reply", payload=msg.payload * 2,
               key=("reply", 0))
    return "ok"


def _check_replicated_responder_deduplicated(backend):
    app = Application()
    app.add_thread("client", _dedup_client)
    app.add_thread("echo", _dedup_echo, replicas=2)
    result = backend.run(app, until_thread="client", timeout=10.0)
    replies, extra = result.return_of("client")
    assert replies == [6]
    assert extra is False


class TestBasicExecution:
    def test_single_thread_return(self):
        def program(ctx):
            value = yield Compute(fn=lambda: 6 * 7, phase="math")
            return value

        app = Application()
        app.add_thread("solo", program)
        result = LocalBackend().run(app)
        assert result.return_of("solo") == 42
        assert result.metrics.backend == "local"

    def test_ping_pong(self):
        def ping(ctx):
            yield Send(dst="pong", port="ball", payload=1)
            reply = yield Recv(port="ball", timeout=5.0)
            return reply.payload

        def pong(ctx):
            msg = yield Recv(port="ball", timeout=5.0)
            yield Send(dst="ping", port="ball", payload=msg.payload + 1)
            return "done"

        app = Application()
        app.add_thread("ping", ping)
        app.add_thread("pong", pong)
        result = LocalBackend().run(app, timeout=10.0)
        assert result.return_of("ping") == 2

    def test_many_workers_fan_in(self):
        def worker(ctx, *, index):
            yield Send(dst="collector", port="result", payload=index)
            return index

        def collector(ctx, *, count):
            values = []
            for _ in range(count):
                msg = yield Recv(port="result", timeout=5.0)
                values.append(msg.payload)
            return sorted(values)

        app = Application()
        app.add_thread("collector", collector, params={"count": 6})
        for i in range(6):
            app.add_thread(f"w{i}", worker, params={"index": i})
        result = LocalBackend().run(app, timeout=20.0)
        assert result.return_of("collector") == list(range(6))

    def test_compute_phase_recorded(self):
        def program(ctx):
            yield Compute(fn=lambda: sum(range(1000)), phase="summing")
            return "ok"

        app = Application()
        app.add_thread("solo", program)
        result = LocalBackend().run(app)
        assert "summing" in result.metrics.phase_seconds

    def test_get_time_and_sleep(self):
        def program(ctx):
            before = yield GetTime()
            yield Sleep(seconds=0.05)
            after = yield GetTime()
            return after - before

        app = Application()
        app.add_thread("solo", program)
        assert LocalBackend().run(app).return_of("solo") >= 0.04

    def test_probe(self):
        _check_probe(LocalBackend())

    def test_probe_on_process_backend(self):
        _check_probe(fast_backend())

    def test_checkpoint_visible(self):
        def program(ctx):
            yield Checkpoint({"step": 3})
            return "ok"

        app = Application()
        app.add_thread("solo", program)
        backend = LocalBackend()
        backend.run(app)
        assert backend.checkpoint_of("solo") == {"step": 3}

    def test_single_use(self):
        def program(ctx):
            yield Sleep(seconds=0.0)
            return None

        app = Application()
        app.add_thread("solo", program)
        backend = LocalBackend()
        backend.run(app)
        with pytest.raises(Exception):
            backend.run(app)


class TestErrorPaths:
    def test_recv_timeout_catchable(self):
        def program(ctx):
            try:
                yield Recv(port="never", timeout=0.05)
            except ReceiveTimeout:
                return "timed-out"
            return "no"

        app = Application()
        app.add_thread("solo", program)
        assert LocalBackend().run(app).return_of("solo") == "timed-out"

    def test_crash_policy_raise(self):
        def program(ctx):
            yield Sleep(seconds=0.0)
            raise RuntimeError("broken")

        app = Application()
        app.add_thread("solo", program)
        with pytest.raises(ThreadCrashedError):
            LocalBackend(crash_policy="raise").run(app)

    def test_crash_policy_record(self):
        def program(ctx):
            raise RuntimeError("broken")
            yield  # pragma: no cover

        app = Application()
        app.add_thread("solo", program)
        result = LocalBackend(crash_policy="record").run(app)
        assert result.outcomes["solo#0"].status == "crashed"

    def test_run_timeout_kills_stuck_threads(self):
        def stuck(ctx):
            yield Recv(port="never")

        app = Application()
        app.add_thread("stuck", stuck)
        with pytest.raises(SCPError):
            LocalBackend().run(app, timeout=0.3)

    def test_until_thread_shuts_down_leftovers(self):
        def main(ctx):
            yield Sleep(seconds=0.05)
            return "done"

        def forever(ctx):
            yield Recv(port="never")

        app = Application()
        app.add_thread("main", main)
        app.add_thread("forever", forever)
        result = LocalBackend().run(app, until_thread="main", timeout=5.0)
        assert result.return_of("main") == "done"
        assert result.outcomes["forever#0"].status in ("killed", "finished")


class TestReplicationAndControl:
    def test_replicated_responder_deduplicated(self):
        _check_replicated_responder_deduplicated(LocalBackend())

    def test_replicated_responder_deduplicated_on_process_backend(self):
        _check_replicated_responder_deduplicated(fast_backend())

    def test_kill_thread_marks_outcome(self):
        def victim(ctx):
            yield Recv(port="never")

        def main(ctx):
            yield Sleep(seconds=0.2)
            return "done"

        app = Application()
        app.add_thread("victim", victim)
        app.add_thread("main", main)
        backend = LocalBackend()

        import threading

        def killer():
            time.sleep(0.05)
            backend.kill_thread("victim#0")

        threading.Thread(target=killer, daemon=True).start()
        result = backend.run(app, until_thread="main", timeout=5.0)
        assert result.outcomes["victim#0"].status == "killed"
        assert result.metrics.failures_injected == 1

    def test_death_callback_and_dynamic_spawn(self):
        deaths = []

        def victim(ctx):
            if ctx.incarnation > 0:
                return f"reborn-{ctx.incarnation}"
            yield Recv(port="never")
            return None

        def main(ctx):
            yield Sleep(seconds=0.4)
            return "done"

        app = Application()
        app.add_thread("main", main)
        spec = app.add_thread("victim", victim)
        backend = LocalBackend()
        backend.subscribe_thread_death(lambda pid, logical, reason: deaths.append((pid, reason)))

        import threading

        def fault_and_recover():
            time.sleep(0.05)
            backend.kill_thread("victim#0")
            time.sleep(0.05)
            backend.spawn_thread(spec, replica=1, incarnation=1)

        threading.Thread(target=fault_and_recover, daemon=True).start()
        result = backend.run(app, until_thread="main", timeout=5.0)
        assert ("victim#0", "killed") in deaths
        assert result.returns.get("victim") == "reborn-1"

    def test_dead_letter_replay_on_spawn(self):
        def sender(ctx):
            yield Send(dst="ghost", port="data", payload="kept")
            yield Sleep(seconds=0.3)
            return "sent"

        def ghost(ctx):
            msg = yield Recv(port="data", timeout=5.0)
            return msg.payload

        app = Application()
        app.add_thread("sender", sender)
        backend = LocalBackend()
        # ghost is not part of the initial application; the message is parked
        # and replayed when the thread is created dynamically.
        from repro.scp.thread import ThreadSpec
        spec = ThreadSpec(name="ghost", program=ghost)

        import threading

        def spawner():
            time.sleep(0.1)
            backend.spawn_thread(spec, replica=0, incarnation=0)

        threading.Thread(target=spawner, daemon=True).start()
        result = backend.run(app, until_thread="sender", timeout=5.0)
        assert result.returns.get("ghost") == "kept"
