"""Tests of the discrete-event backend using small hand-written programs."""

import pytest

from repro.cluster.machine import Cluster
from repro.cluster.network import LinkSpec, SharedEthernet
from repro.cluster.node import NodeSpec
from repro.scp.effects import (Checkpoint, Compute, GetTime, Probe, Recv, Send,
                               Sleep)
from repro.scp.errors import (DeadlockError, ReceiveTimeout, SCPError,
                              ThreadCrashedError)
from repro.scp.runtime import Application
from repro.scp.sim_backend import ProtocolConfig, SimBackend


def make_cluster(nodes=3, flops=1e6):
    specs = [NodeSpec(name=f"n{i}", flops=flops, memory_bytes=10**9) for i in range(nodes)]
    link = LinkSpec(bandwidth_bytes_per_s=1e6, latency_s=0.001, per_message_overhead_s=0.001)
    return Cluster(specs, interconnect=SharedEthernet(link))


def make_backend(nodes=3, flops=1e6, **kwargs):
    return SimBackend(make_cluster(nodes, flops), **kwargs)


# ---------------------------------------------------------------------------
# Basic execution
# ---------------------------------------------------------------------------

class TestBasicExecution:
    def test_single_thread_return_value(self):
        def program(ctx):
            return 41 + 1
            yield  # pragma: no cover

        app = Application()
        app.add_thread("solo", program)
        result = make_backend().run(app)
        assert result.return_of("solo") == 42
        assert result.outcomes["solo#0"].status == "finished"

    def test_compute_charges_virtual_time(self):
        def program(ctx):
            value = yield Compute(fn=lambda: "done", flops=2e6, phase="work")
            return value

        app = Application()
        app.add_thread("solo", program)
        backend = make_backend(flops=1e6)
        result = backend.run(app)
        assert result.return_of("solo") == "done"
        # 2e6 flops at 1e6 flop/s = 2 virtual seconds.
        assert result.elapsed_seconds == pytest.approx(2.0, rel=1e-6)
        assert result.metrics.phase_seconds["work"] == pytest.approx(2.0, rel=1e-6)

    def test_callable_flops_uses_result(self):
        def program(ctx):
            yield Compute(fn=lambda: 5, flops=lambda result: result * 1e6, phase="w")
            return "ok"

        app = Application()
        app.add_thread("solo", program)
        backend = make_backend(flops=1e6)
        backend.run(app)
        assert backend.now == pytest.approx(5.0, rel=1e-6)

    def test_sleep_advances_clock(self):
        def program(ctx):
            yield Sleep(seconds=1.5)
            now = yield GetTime()
            return now

        app = Application()
        app.add_thread("solo", program)
        result = make_backend().run(app)
        assert result.return_of("solo") == pytest.approx(1.5)

    def test_ping_pong_round_trip(self):
        def ping(ctx):
            yield Send(dst="pong", port="ball", payload="serve")
            reply = yield Recv(port="ball")
            return reply.payload

        def pong(ctx):
            msg = yield Recv(port="ball")
            yield Send(dst="ping", port="ball", payload=msg.payload + "-return")
            return "done"

        app = Application()
        app.add_thread("ping", ping)
        app.add_thread("pong", pong)
        result = make_backend().run(app)
        assert result.return_of("ping") == "serve-return"
        assert result.return_of("pong") == "done"

    def test_message_transfer_takes_wire_time(self):
        payload = b"x" * 1_000_000  # 1 MB at 1 MB/s -> ~1 s

        def sender(ctx):
            yield Send(dst="receiver", port="data", payload=payload)
            return "sent"

        def receiver(ctx):
            msg = yield Recv(port="data")
            now = yield GetTime()
            return now

        app = Application()
        app.add_thread("sender", sender)
        app.add_thread("receiver", receiver)
        result = make_backend().run(app)
        assert result.return_of("receiver") >= 1.0

    def test_probe_reports_pending_message(self):
        def producer(ctx):
            yield Send(dst="consumer", port="data", payload=1)
            return None

        def consumer(ctx):
            yield Sleep(seconds=1.0)
            has = yield Probe(port="data")
            return has

        app = Application()
        app.add_thread("producer", producer)
        app.add_thread("consumer", consumer)
        assert make_backend().run(app).return_of("consumer") is True

    def test_checkpoint_stored(self):
        def program(ctx):
            yield Checkpoint({"progress": 7})
            return "ok"

        app = Application()
        app.add_thread("solo", program)
        backend = make_backend()
        backend.run(app)
        assert backend.checkpoint_of("solo") == {"progress": 7}

    def test_context_carries_identity(self):
        def program(ctx):
            return (ctx.name, ctx.replica, ctx.physical_id, ctx.node)
            yield  # pragma: no cover

        app = Application()
        app.add_thread("solo", program)
        backend = make_backend()
        result = backend.run(app)
        name, replica, pid, node = result.return_of("solo")
        assert name == "solo" and replica == 0 and pid == "solo#0"
        assert node in backend.cluster.node_names

    def test_params_passed_to_program(self):
        def program(ctx, *, base):
            return base * 2
            yield  # pragma: no cover

        app = Application()
        app.add_thread("solo", program, params={"base": 21})
        assert make_backend().run(app).return_of("solo") == 42

    def test_backend_single_use(self):
        def program(ctx):
            yield Sleep(seconds=0.1)
            return "ok"

        app = Application()
        app.add_thread("solo", program)
        backend = make_backend()
        backend.run(app)
        with pytest.raises(Exception):
            backend.run(app)


# ---------------------------------------------------------------------------
# Timeouts, crashes, deadlocks
# ---------------------------------------------------------------------------

class TestErrorPaths:
    def test_recv_timeout_raises_inside_program(self):
        def program(ctx):
            try:
                yield Recv(port="never", timeout=0.5)
            except ReceiveTimeout:
                return "timed-out"
            return "received"

        app = Application()
        app.add_thread("solo", program)
        result = make_backend().run(app)
        assert result.return_of("solo") == "timed-out"
        assert result.elapsed_seconds >= 0.5

    def test_uncaught_timeout_is_a_crash(self):
        def program(ctx):
            yield Recv(port="never", timeout=0.1)

        app = Application()
        app.add_thread("solo", program)
        with pytest.raises(ThreadCrashedError):
            make_backend().run(app)

    def test_program_exception_raised_with_crash_policy(self):
        def program(ctx):
            yield Sleep(seconds=0.1)
            raise RuntimeError("boom")

        app = Application()
        app.add_thread("solo", program)
        with pytest.raises(ThreadCrashedError):
            make_backend(crash_policy="raise").run(app)

    def test_program_exception_recorded_with_record_policy(self):
        def program(ctx):
            raise ValueError("bad input")
            yield  # pragma: no cover

        app = Application()
        app.add_thread("solo", program)
        result = make_backend(crash_policy="record").run(app)
        assert result.outcomes["solo#0"].status == "crashed"
        assert "bad input" in result.outcomes["solo#0"].error

    def test_yielding_garbage_crashes_thread(self):
        def program(ctx):
            yield "not an effect"

        app = Application()
        app.add_thread("solo", program)
        with pytest.raises(ThreadCrashedError):
            make_backend().run(app)

    def test_deadlock_detected(self):
        def waiter(ctx):
            yield Recv(port="never")

        app = Application()
        app.add_thread("waiter", waiter)
        with pytest.raises(DeadlockError):
            make_backend().run(app)

    def test_time_limit_enforced(self):
        def slow(ctx):
            yield Sleep(seconds=100.0)

        app = Application()
        app.add_thread("slow", slow)
        with pytest.raises(SCPError):
            make_backend().run(app, time_limit=1.0)


# ---------------------------------------------------------------------------
# Replication semantics at the runtime level
# ---------------------------------------------------------------------------

class TestReplication:
    def _echo_app(self, replicas):
        def client(ctx, *, requests):
            received = []
            for index in range(requests):
                yield Send(dst="echo", port="request", payload=index, key=("req", index))
            for _ in range(requests):
                reply = yield Recv(port="reply")
                received.append(reply.payload)
            return sorted(received)

        def echo(ctx):
            while True:
                msg = yield Recv(port="request")
                if msg.payload is None:
                    return "stopped"
                yield Send(dst="client", port="reply", payload=msg.payload * 10,
                           key=("reply", msg.payload))

        app = Application()
        app.add_thread("client", client, params={"requests": 3}, critical=False)
        app.add_thread("echo", echo, replicas=replicas)
        return app

    def test_replicated_responder_results_deduplicated(self):
        app = self._echo_app(replicas=2)
        backend = make_backend()
        result = backend.run(app, until_thread="client")
        # The client sees exactly one copy of each reply even though two echo
        # replicas answered every request.
        assert result.return_of("client") == [0, 10, 20]
        assert backend.collector.count("duplicates_suppressed") >= 2

    def test_unreplicated_behaviour_identical(self):
        plain = make_backend().run(self._echo_app(1), until_thread="client")
        replicated = make_backend().run(self._echo_app(2), until_thread="client")
        assert plain.return_of("client") == replicated.return_of("client")

    def test_replica_compute_costs_double_on_shared_node(self):
        def worker(ctx):
            yield Compute(fn=lambda: None, flops=1e6, phase="w")
            now = yield GetTime()
            return now

        # Both replicas are forced onto the same single node.
        app = Application()
        app.add_thread("worker", worker, replicas=2, placement=["n0", "n0"])
        backend = make_backend(nodes=1, flops=1e6)
        result = backend.run(app)
        # Two replicas share one processor: each takes 2 virtual seconds.
        assert result.return_of("worker") == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Control surface: kills, node failures, spawning, dead letters, heartbeats
# ---------------------------------------------------------------------------

class TestControlSurface:
    def test_kill_thread_and_outcome(self):
        def victim(ctx):
            yield Recv(port="never")

        def main(ctx):
            yield Sleep(seconds=1.0)
            return "done"

        app = Application()
        app.add_thread("victim", victim)
        app.add_thread("main", main, critical=False)
        backend = make_backend()
        backend.schedule(0.5, lambda: backend.kill_thread("victim#0"))
        result = backend.run(app, until_thread="main")
        assert result.outcomes["victim#0"].status == "killed"
        assert result.metrics.failures_injected == 1

    def test_fail_node_kills_hosted_threads(self):
        def waiter(ctx):
            yield Recv(port="never")

        def main(ctx):
            yield Sleep(seconds=1.0)
            return "done"

        app = Application()
        app.add_thread("a", waiter, placement=["n1"])
        app.add_thread("b", waiter, placement=["n1"])
        app.add_thread("main", main, critical=False, placement=["n0"])
        backend = make_backend()
        backend.schedule(0.2, lambda: backend.fail_node("n1"))
        result = backend.run(app, until_thread="main")
        assert result.outcomes["a#0"].status == "killed"
        assert result.outcomes["b#0"].status == "killed"
        assert not backend.cluster.node("n1").alive

    def test_dead_letters_replayed_to_spawned_replica(self):
        """A message sent while no replica is alive reaches the regenerated one."""
        def sender(ctx):
            yield Sleep(seconds=0.5)
            yield Send(dst="target", port="data", payload="precious")
            yield Sleep(seconds=3.0)
            return "sender-done"

        def target(ctx):
            msg = yield Recv(port="data")
            return msg.payload

        app = Application()
        app.add_thread("sender", sender, critical=False)
        app.add_thread("target", target)
        backend = make_backend()
        target_spec = app.spec("target")
        # Kill the only replica before the message is sent, then respawn later.
        backend.schedule(0.1, lambda: backend.kill_thread("target#0"))
        backend.schedule(1.0, lambda: backend.spawn_thread(target_spec, replica=1,
                                                           node="n2", incarnation=1))
        result = backend.run(app, until_thread="sender")
        assert result.returns.get("target") == "precious"

    def test_spawned_replica_receives_restored_state(self):
        def phoenix(ctx):
            if ctx.restored is not None:
                return ctx.restored
            # The original incarnation blocks until the fault injector kills it.
            yield Recv(port="never")
            return None

        def main(ctx):
            yield Sleep(seconds=2.0)
            return "done"

        app = Application()
        app.add_thread("main", main, critical=False)
        spec = app.add_thread("phoenix", phoenix)
        backend = make_backend()
        backend.schedule(0.1, lambda: backend.kill_thread("phoenix#0"))
        backend.schedule(0.5, lambda: backend.spawn_thread(spec, replica=1, node="n1",
                                                           restored={"resume": 9},
                                                           incarnation=2))
        result = backend.run(app, until_thread="main")
        assert result.returns["phoenix"] == {"resume": 9}
        assert backend.collector.count("replicas_regenerated") == 1

    def test_in_flight_message_retargeted_to_surviving_replica(self):
        big = b"y" * 500_000  # takes ~0.5 s on the 1 MB/s link

        def sender(ctx):
            yield Send(dst="group", port="data", payload=big)
            yield Sleep(seconds=3.0)
            return "sent"

        def group(ctx):
            msg = yield Recv(port="data")
            return len(msg.payload)

        app = Application()
        app.add_thread("sender", sender, critical=False)
        app.add_thread("group", group, replicas=2)
        backend = make_backend()
        # Kill replica 0 while the copy addressed to it is still on the wire.
        backend.schedule(0.1, lambda: backend.kill_thread("group#0"))
        result = backend.run(app, until_thread="sender")
        assert result.returns.get("group") == 500_000

    def test_heartbeats_reach_listener_and_stop_after_death(self):
        beats = []

        def worker(ctx):
            yield Sleep(seconds=1.0)
            return "ok"

        app = Application()
        app.add_thread("worker", worker)
        backend = make_backend()
        backend.enable_heartbeats(0.2, lambda pid, t: beats.append((pid, round(t, 3))))
        backend.run(app)
        assert all(pid == "worker#0" for pid, _ in beats)
        assert len(beats) >= 3

    def test_heartbeat_traffic_is_accounted(self):
        def worker(ctx):
            yield Sleep(seconds=1.0)
            return "ok"

        app = Application()
        app.add_thread("worker", worker, placement=["n0"])
        backend = make_backend()
        before_messages = backend.cluster.interconnect.messages_sent
        backend.enable_heartbeats(0.1, lambda pid, t: None, monitor_node="n2")
        backend.run(app)
        assert backend.cluster.interconnect.messages_sent > before_messages

    def test_protocol_ack_generates_network_traffic(self):
        def sender(ctx):
            yield Send(dst="receiver", port="data", payload=b"z" * 1000)
            # Stay alive long enough for the acknowledgement to be routed back.
            yield Sleep(seconds=1.0)
            return "sent"

        def receiver(ctx):
            yield Recv(port="data")
            return "got"

        def run(protocol):
            app = Application()
            app.add_thread("sender", sender)
            app.add_thread("receiver", receiver)
            backend = make_backend(protocol=protocol)
            backend.run(app)
            return backend.cluster.interconnect.messages_sent

        without_ack = run(ProtocolConfig(ack_enabled=False))
        with_ack = run(ProtocolConfig(ack_enabled=True))
        assert with_ack > without_ack


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _run_once(self):
        def worker(ctx, *, index):
            yield Compute(fn=lambda: index, flops=1e5 * (index + 1), phase="w")
            yield Send(dst="collector", port="result", payload=index)
            return index

        def collector(ctx, *, count):
            seen = []
            for _ in range(count):
                msg = yield Recv(port="result")
                seen.append(msg.payload)
            return seen

        app = Application()
        app.add_thread("collector", collector, params={"count": 4}, critical=False)
        for i in range(4):
            app.add_thread(f"w{i}", worker, params={"index": i})
        backend = make_backend(nodes=2)
        result = backend.run(app, until_thread="collector")
        return result.return_of("collector"), result.elapsed_seconds

    def test_identical_runs_produce_identical_traces(self):
        order_a, elapsed_a = self._run_once()
        order_b, elapsed_b = self._run_once()
        assert order_a == order_b
        assert elapsed_a == elapsed_b


# ---------------------------------------------------------------------------
# Golden numbers of the fusion application (Figures 4 and 5)
# ---------------------------------------------------------------------------

class TestFusionGoldenNumbers:
    """The simulated LAN's charges for the paper's application, pinned.

    Figures 4 and 5 are drawn from these three numbers, so a change to the
    message protocol or to the payload model must leave them exactly as
    they are: 64x64x32 HYDICE scene (seed 5), 4 workers on the default
    preset, resilient at replication 2.
    """

    GOLDEN = {
        ("distributed", 4): (1.038103272727273, 32, 1470496),
        ("distributed", 16): (1.037473696969697, 80, 1715296),
        ("resilient", 4): (1.6835549212121208, 158, 2947008),
        ("resilient", 16): (1.3616648363636363, 318, 3440704),
    }

    @pytest.fixture(scope="class")
    def scene(self):
        from repro.data.hydice import HydiceConfig, HydiceGenerator
        return HydiceGenerator(HydiceConfig(bands=32, rows=64, cols=64,
                                            seed=5)).generate()

    @pytest.mark.parametrize("engine,subcubes", sorted(GOLDEN))
    def test_simulated_costs_are_unchanged(self, scene, engine, subcubes):
        from repro import fuse
        from repro.config import FusionConfig, PartitionConfig

        config = FusionConfig(partition=PartitionConfig(workers=4,
                                                        subcubes=subcubes))
        options = {"replication": 2} if engine == "resilient" else {}
        metrics = fuse(scene, engine=engine, backend="sim", config=config,
                       **options).metrics
        assert (metrics.elapsed_seconds, metrics.messages,
                metrics.bytes_sent) == self.GOLDEN[(engine, subcubes)]


def _group(target, *, lost):
    """One ``report.resilience["replication"]`` entry: every lost replica
    regenerated, so the group is back at its target."""
    return {"live": target, "target": target, "lost": lost,
            "regenerated": lost, "incarnation": lost}


class TestResilienceGoldenNumbers:
    """Resilient runs under an attack campaign and under camouflage, pinned.

    The attack is the escalating campaign of
    ``examples/resilient_fusion_under_attack.py`` at its ``--quick`` size
    (48x48x24 scene, seed 11, 4 workers, 8 sub-cubes, replication 2,
    heartbeats every 0.1 s, 2 misses).  Detection, regeneration and
    reconfiguration must leave the virtual run and the whole resiliency
    report exactly as they are.
    """

    GOLDEN = {
        "attack": (
            (0.7024250909090911, 209, 1441176, 1, 1),
            {"replication": {"manager": _group(1, lost=0),
                             "worker.0": _group(2, lost=1),
                             **{f"worker.{i}": _group(2, lost=0)
                                for i in (1, 2, 3)}},
             "reconfigurations": {"total": 1, "completed": 1, "aborted": 0,
                                  "by_logical": {"worker.0": 1}},
             "recoveries": 1, "failed_recoveries": 0,
             "suspicions": ["worker.0#0"], "attacks_executed": 1,
             "migrations": 0}),
        "camouflage": (
            (0.724815781818182, 194, 1366480, 4, 4),
            {"replication": {"manager": _group(1, lost=0),
                             **{f"worker.{i}": _group(2, lost=1)
                                for i in range(4)}},
             "reconfigurations": {"total": 4, "completed": 4, "aborted": 0,
                                  "by_logical": {f"worker.{i}": 1
                                                 for i in range(4)}},
             "recoveries": 4, "failed_recoveries": 0,
             "suspicions": ["worker.3#1", "worker.2#0", "worker.1#0"],
             "attacks_executed": 0, "migrations": 4}),
    }

    @pytest.fixture(scope="class")
    def scene(self):
        from repro.data.hydice import HydiceConfig, HydiceGenerator
        return HydiceGenerator(HydiceConfig(bands=24, rows=48, cols=48,
                                            seed=11)).generate()

    @staticmethod
    def escalating_campaign():
        from repro.resilience.attack import AttackScenario
        scenario = AttackScenario("escalating-campaign")
        scenario.add(0.5, "kill_replica", "worker.0")
        scenario.add(1.0, "fail_node", "sun01")
        for i in range(3):
            scenario.add(2.0 + 0.001 * i, "kill_replica", "worker.3")
        return scenario

    @pytest.mark.parametrize("layer", sorted(GOLDEN))
    def test_resilience_report_is_unchanged(self, scene, layer):
        from repro import fuse
        from repro.config import (FusionConfig, PartitionConfig,
                                  ResilienceConfig)

        config = FusionConfig(
            partition=PartitionConfig(workers=4, subcubes=8),
            resilience=ResilienceConfig(replication_level=2,
                                        heartbeat_period=0.1,
                                        heartbeat_misses=2))
        options = ({"attack": self.escalating_campaign()} if layer == "attack"
                   else {"camouflage_period": 0.15})
        report = fuse(scene, engine="resilient", backend="sim", config=config,
                      **options)
        metrics = report.metrics
        numbers, resilience = self.GOLDEN[layer]
        assert (metrics.elapsed_seconds, metrics.messages, metrics.bytes_sent,
                report.replicas_regenerated,
                report.failures_injected) == numbers
        assert report.resilience == resilience

    def test_the_example_lists_the_faults_its_run_never_reached(self, scene):
        # Every scheduled fault either ran during the run or fell after its
        # end; examples/resilient_fusion_under_attack.py prints the latter.
        import importlib.util
        from pathlib import Path

        from repro import fuse
        from repro.config import (FusionConfig, PartitionConfig,
                                  ResilienceConfig)

        path = (Path(__file__).resolve().parents[1] / "examples"
                / "resilient_fusion_under_attack.py")
        spec = importlib.util.spec_from_file_location("attack_example", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        attack = example.build_attack(4)
        assert attack.sorted_events() == \
            self.escalating_campaign().sorted_events()

        config = FusionConfig(
            partition=PartitionConfig(workers=4, subcubes=8),
            resilience=ResilienceConfig(replication_level=2,
                                        heartbeat_period=0.1,
                                        heartbeat_misses=2))
        report = fuse(scene, engine="resilient", backend="sim", config=config,
                      attack=attack)
        missed = example.faults_after_end(attack, report.elapsed_seconds)
        assert report.resilience["attacks_executed"] + len(missed) == len(attack)
        # At --quick size the run ends before the outage and the wipe-out.
        assert [(event.time, event.kind) for event in missed] == [
            (1.0, "fail_node"), (2.0, "kill_replica"), (2.001, "kill_replica"),
            (2.002, "kill_replica")]
