"""Tests for the execution trace recorder and its SimBackend integration."""

import numpy as np
import pytest

from repro import fuse
from repro.cluster.machine import Cluster
from repro.cluster.network import LinkSpec, SharedEthernet
from repro.cluster.node import NodeSpec
from repro.config import FusionConfig, PartitionConfig
from repro.scp.effects import Compute, Recv, Send, Sleep
from repro.scp.runtime import Application
from repro.scp.sim_backend import SimBackend
from repro.scp.tracing import TraceRecorder


def make_backend(tracer, nodes=2, flops=1e6):
    specs = [NodeSpec(name=f"n{i}", flops=flops, memory_bytes=10**9) for i in range(nodes)]
    link = LinkSpec(bandwidth_bytes_per_s=1e6, latency_s=0.001, per_message_overhead_s=0.001)
    return SimBackend(Cluster(specs, interconnect=SharedEthernet(link)), tracer=tracer)


class TestTraceRecorderUnit:
    def test_empty_trace(self):
        tracer = TraceRecorder()
        assert tracer.span == 0.0
        assert tracer.threads() == []
        assert tracer.gantt() == "(empty trace)"
        assert tracer.utilisation_timeline() == "(empty trace)"

    def test_manual_records_and_summaries(self):
        tracer = TraceRecorder()
        tracer.record_compute("w#0", "n0", "screening", 0.0, 2.0, 1e6)
        tracer.record_compute("w#0", "n0", "transform", 3.0, 4.0, 5e5)
        tracer.record_compute("v#0", "n1", "screening", 0.0, 1.0, 5e5)
        tracer.record_message("m", "w#0", "task", 1024, 0.0, 0.5)
        tracer.record_lifecycle("w#0", "spawn", 0.0)
        tracer.record_lifecycle("w#0", "finish", 4.0)

        assert tracer.span == pytest.approx(4.0)
        assert tracer.threads() == ["v#0", "w#0"]
        assert tracer.busy_seconds("w#0") == pytest.approx(3.0)
        assert tracer.phase_seconds() == pytest.approx(
            {"screening": 3.0, "transform": 1.0})
        assert tracer.node_busy_seconds() == pytest.approx({"n0": 3.0, "n1": 1.0})
        assert tracer.bytes_by_port() == {"task": 1024}
        summary = tracer.summary()
        assert summary["threads"] == 2
        assert summary["messages"] == 1
        assert summary["spawns"] == 1
        assert summary["deaths"] == 0

    def test_gantt_rendering(self):
        tracer = TraceRecorder()
        tracer.record_compute("alpha#0", "n0", "w", 0.0, 5.0, 1.0)
        tracer.record_lifecycle("alpha#0", "spawn", 0.0)
        tracer.record_lifecycle("alpha#0", "finish", 5.0)
        chart = tracer.gantt(width=40)
        assert "alpha#0" in chart
        assert "#" in chart
        assert "F" in chart

    def test_utilisation_timeline(self):
        tracer = TraceRecorder()
        tracer.record_compute("a#0", "n0", "w", 0.0, 10.0, 1.0)
        timeline = tracer.utilisation_timeline(buckets=5)
        lines = timeline.splitlines()
        assert len(lines) == 6
        assert "1.00" in timeline


class TestSimBackendIntegration:
    def test_trace_records_compute_and_messages(self):
        tracer = TraceRecorder()

        def producer(ctx):
            yield Compute(fn=lambda: None, flops=2e6, phase="produce")
            yield Send(dst="consumer", port="data", payload=b"x" * 1000)
            return "done"

        def consumer(ctx):
            yield Recv(port="data")
            yield Compute(fn=lambda: None, flops=1e6, phase="consume")
            return "done"

        app = Application()
        app.add_thread("producer", producer)
        app.add_thread("consumer", consumer)
        backend = make_backend(tracer)
        backend.run(app)

        assert {i.phase for i in tracer.compute} == {"produce", "consume"}
        assert tracer.busy_seconds("producer#0") == pytest.approx(2.0, rel=1e-6)
        assert any(m.port == "data" for m in tracer.messages)
        kinds = {(e.physical_id, e.kind) for e in tracer.lifecycle}
        assert ("producer#0", "spawn") in kinds
        assert ("consumer#0", "finish") in kinds

    def test_trace_records_kills(self):
        tracer = TraceRecorder()

        def victim(ctx):
            yield Recv(port="never")

        def main(ctx):
            yield Sleep(seconds=1.0)
            return "ok"

        app = Application()
        app.add_thread("victim", victim)
        app.add_thread("main", main)
        backend = make_backend(tracer)
        backend.schedule(0.5, lambda: backend.kill_thread("victim#0"))
        backend.run(app, until_thread="main")
        assert any(e.kind == "killed" and e.physical_id == "victim#0"
                   for e in tracer.lifecycle)
        assert tracer.summary()["deaths"] == 1

    def test_tracing_does_not_change_results(self, small_cube):
        config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
        plain = fuse(small_cube, engine="distributed", config=config)

        tracer = TraceRecorder()
        from repro.cluster.presets import sun_ultra_lan
        traced_backend = SimBackend(sun_ultra_lan(2), pinned={"manager": "manager"},
                                    tracer=tracer)
        traced = fuse(small_cube, engine="distributed", config=config, backend=traced_backend)

        np.testing.assert_array_equal(plain.result.composite, traced.result.composite)
        assert traced.elapsed_seconds == pytest.approx(plain.elapsed_seconds)
        # The trace saw the fusion phases and all the worker threads.
        assert "screening" in tracer.phase_seconds()
        assert "transform" in tracer.phase_seconds()
        assert any(name.startswith("worker.") for name in tracer.threads())
        assert tracer.summary()["busy_seconds"] > 0
        # Its Gantt chart renders.
        assert "#" in tracer.gantt(width=60)
