"""Unified API: spec parsing, name tables, friendly errors, the public surface."""

import pytest

import repro
from repro import fuse, open_session
from repro.api.engines import engine_names, get_engine
from repro.api.request import FusionRequest
from repro.config import FusionConfig, PartitionConfig
from repro.resilience.attack import AttackScenario
from repro.scp.local_backend import LocalBackend
from repro.scp.process_backend import ProcessBackend
from repro.scp.registry import (BackendContext, BackendSpec, backend_names,
                                create_backend)
from repro.scp.sim_backend import SimBackend


class TestBackendSpec:
    def test_plain_names(self):
        for name in ("sim", "local", "process"):
            spec = BackendSpec.parse(name)
            assert spec.name == name
            assert spec.variant is None and spec.workers is None

    def test_worker_count_hint(self):
        spec = BackendSpec.parse("process:8")
        assert spec == BackendSpec(name="process", workers=8)

    def test_variant(self):
        assert BackendSpec.parse("sim:sun-ultra").variant == "sun-ultra"
        assert BackendSpec.parse("process:fork").variant == "fork"

    def test_variant_and_workers_combined(self):
        spec = BackendSpec.parse("process:fork:4")
        assert spec.variant == "fork" and spec.workers == 4

    def test_roundtrip_str(self):
        assert str(BackendSpec.parse("process:fork:4")) == "process:fork:4"
        assert str(BackendSpec.parse("sim")) == "sim"

    def test_parse_passthrough(self):
        spec = BackendSpec(name="sim")
        assert BackendSpec.parse(spec) is spec

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="local, process, sim"):
            BackendSpec.parse("typo")

    def test_unknown_variant_lists_allowed(self):
        with pytest.raises(ValueError, match="sun-ultra"):
            BackendSpec.parse("sim:nope")
        with pytest.raises(ValueError, match="spawn"):
            BackendSpec.parse("process:nope")

    def test_local_accepts_no_variant(self):
        with pytest.raises(ValueError, match="no variant"):
            BackendSpec.parse("local:anything")

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="two worker counts"):
            BackendSpec.parse("process:2:4")
        with pytest.raises(ValueError, match="two variants"):
            BackendSpec.parse("sim:smp:switched")

    def test_non_string_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            BackendSpec.parse(42)
        with pytest.raises(ValueError, match="non-empty string"):
            BackendSpec.parse("")


class TestBackendRegistry:
    def test_names_and_descriptions(self):
        assert backend_names() == ["local", "process", "sim", "socket"]
        # Every name parses; only socket builds no SCP backend.
        for name in backend_names():
            assert BackendSpec.parse(name).name == name
        with pytest.raises(ValueError, match="pipeline engine only"):
            create_backend("socket")

    def test_create_backend_types(self):
        assert isinstance(create_backend("local"), LocalBackend)
        backend = create_backend("process:fork")
        assert isinstance(backend, ProcessBackend)
        assert backend.start_method == "fork"
        assert isinstance(create_backend("sim", BackendContext(workers=2)), SimBackend)

    def test_create_backend_instance_passthrough(self):
        instance = LocalBackend()
        assert create_backend(instance) is instance

    def test_sim_factory_resolves_cluster_into_context(self):
        context = BackendContext(workers=3, manager="manager")
        create_backend("sim", context)
        assert context.cluster is not None
        assert "manager" in context.cluster.node_names

    def test_sim_preset_variants(self):
        context = BackendContext(workers=2)
        create_backend("sim:smp", context)
        assert context.cluster.name == "shared-memory-smp"


class TestEngineRegistry:
    def test_names(self):
        assert engine_names() == ["distributed", "pipeline", "resilient", "sequential"]

    def test_get_engine_instances(self):
        for name in engine_names():
            engine = get_engine(name)
            assert engine.name == name
            assert hasattr(engine, "run")

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError,
                           match="distributed, pipeline, resilient, sequential"):
            get_engine("typo")

    def test_registered_engine_gets_one_call_from_fuse_and_session(
            self, tiny_cube, monkeypatch):
        # repro.fuse is a session of one request: an engine in the table
        # sees the same run(request, session) call from either door.
        from repro.api import engines
        from repro.api.session import FusionSession

        calls = []

        class RecordingEngine(engines.SequentialEngine):
            name = "recording"

            def run(self, request, session):
                calls.append((request, session))
                return super().run(request, session)

        monkeypatch.setitem(engines._ENGINES, "recording", RecordingEngine)
        fuse(tiny_cube, engine="recording", workers=2)
        with open_session(engine="recording", workers=2) as session:
            session.fuse(tiny_cube)
        (one_shot, its_session), (streamed, session_seen) = calls
        assert isinstance(its_session, FusionSession) and its_session.closed
        assert session_seen is session
        assert one_shot.cube is streamed.cube is tiny_cube
        assert one_shot.replace(cube=None) == streamed.replace(cube=None)


class TestFuseFacadeErrors:
    def test_unknown_engine(self, tiny_cube):
        with pytest.raises(ValueError, match="registered engines"):
            fuse(tiny_cube, engine="typo")

    def test_unknown_backend(self, tiny_cube):
        with pytest.raises(ValueError, match="registered backends"):
            fuse(tiny_cube, engine="distributed", backend="typo")

    def test_unknown_option(self, tiny_cube):
        with pytest.raises(ValueError, match="unknown fuse option"):
            fuse(tiny_cube, bogus=1)

    def test_resilience_options_need_resilient_engine(self, tiny_cube):
        with pytest.raises(ValueError, match="engine='resilient'"):
            fuse(tiny_cube, engine="distributed", replication=2)
        with pytest.raises(ValueError, match="engine='resilient'"):
            fuse(tiny_cube, attack=object())

    @pytest.mark.parametrize("backend", ["local", "process"])
    @pytest.mark.parametrize("option, value", [
        ("attack", AttackScenario.single_worker_kill("worker.0", at=0.01)),
        ("camouflage_period", 0.2)])
    def test_scripted_faults_need_the_simulated_clock(self, tiny_cube, backend,
                                                      option, value):
        # Attacks and camouflage are scheduled on the sim backend's virtual
        # clock; on a wall-clock backend the request fails typed, naming
        # the option and the backend, before anything is spawned.
        import multiprocessing
        children = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match=rf"{option}=.*'{backend}'.*backend='sim'"):
            fuse(tiny_cube, engine="resilient", backend=backend, workers=2,
                 **{option: value})
        assert set(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("engine", ["distributed", "resilient"])
    def test_batch_engines_reject_the_socket_backend(self, tiny_cube, engine):
        # A node agent runs stage tasks, not SCP programs.
        with pytest.raises(ValueError, match="stage-task workers for the "
                                             "streaming pipeline engine only"):
            fuse(tiny_cube, engine=engine, backend="socket:2")

    def test_resilient_rejects_raw_protocol(self, tiny_cube):
        # The cost model comes from config.resilience; protocol= and
        # share_replica_results= are not request fields, so the generic
        # validation names the offender and lists what is valid.
        for option in ("protocol", "share_replica_results"):
            with pytest.raises(ValueError, match=rf"unknown fuse option\(s\) "
                                                 rf"\['{option}'\]; valid options"):
                fuse(tiny_cube, engine="resilient", **{option: None})

    def test_sequential_rejects_explicit_backend(self, tiny_cube):
        # Silently running inline would let `fuse(cube, backend="process:8")`
        # masquerade as a parallel run.
        with pytest.raises(ValueError, match="executes inline"):
            fuse(tiny_cube, backend="process:8")
        with pytest.raises(ValueError, match="executes inline"):
            open_session(engine="sequential", backend="process")

    def test_sequential_points_at_every_backend_engine(self, tiny_cube):
        with pytest.raises(ValueError) as excinfo:
            fuse(tiny_cube, backend="process")
        for engine in ("distributed", "resilient", "pipeline"):
            assert f"engine={engine!r}" in str(excinfo.value)


class TestRequestNormalisation:
    def test_backend_worker_hint_sizes_partition(self, tiny_cube):
        request = FusionRequest(cube=tiny_cube, engine="distributed",
                                backend="process:8")
        assert request.resolved_config().partition.workers == 8

    def test_explicit_workers_beat_the_hint(self, tiny_cube):
        request = FusionRequest(cube=tiny_cube, engine="distributed",
                                backend="process:8", workers=2)
        assert request.resolved_config().partition.workers == 2

    def test_workers_override_config_partition(self, tiny_cube):
        config = FusionConfig(partition=PartitionConfig(workers=4, subcubes=8))
        request = FusionRequest(cube=tiny_cube, config=config, workers=2,
                                subcubes=4)
        partition = request.resolved_config().partition
        assert partition.workers == 2 and partition.subcubes == 4

    def test_replication_merged_into_resilience(self, tiny_cube):
        request = FusionRequest(cube=tiny_cube, engine="resilient", replication=3)
        assert request.resolved_config().resilience.replication_level == 3

    def test_defaults_untouched(self, tiny_cube):
        config = FusionConfig()
        request = FusionRequest(cube=tiny_cube, config=config)
        assert request.resolved_config() is config


class TestFusionReport:
    def test_sequential_report_shape(self, tiny_cube):
        report = fuse(tiny_cube)
        assert report.engine == "sequential"
        assert report.backend == "inline"
        assert report.composite.shape == (tiny_cube.rows, tiny_cube.cols, 3)
        assert report.elapsed_seconds > 0
        assert report.run is None and report.resilience is None
        summary = report.summary()
        assert summary["engine"] == "sequential"
        assert "failures_injected" not in summary

    def test_distributed_report_carries_run_and_metrics(self, tiny_cube, fast_config):
        report = fuse(tiny_cube, engine="distributed", config=fast_config)
        assert report.backend == "sim"
        assert report.metrics.workers == 2
        assert report.run is not None
        assert report.run.return_of("manager") is report.result

    def test_resilient_report_carries_resilience(self, tiny_cube, fast_config):
        report = fuse(tiny_cube, engine="resilient", config=fast_config)
        assert report.resilience is not None
        assert report.summary()["failures_injected"] == 0


class TestDeprecationShims:
    """The constructor-style shims are gone; the facade is the surface."""

    def test_top_level_exports(self):
        for shim in ("DistributedPCT", "ResilientPCT"):
            assert not hasattr(repro, shim), shim
        for name in ("fuse", "open_session", "FusionRequest", "FusionReport",
                     "FusionSession", "BackendSpec", "engine_names",
                     "backend_names", "compute_names"):
            assert hasattr(repro, name), name
        # The engine, backend and compute tables are closed: no registration.
        for name in ("register_engine", "register_backend", "register_compute",
                     "describe_backends"):
            assert not hasattr(repro, name), name
        assert repro.engine_names() == ["distributed", "pipeline", "resilient", "sequential"]
        assert repro.backend_names() == ["local", "process", "sim", "socket"]
