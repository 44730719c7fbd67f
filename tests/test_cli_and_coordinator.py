"""Tests for the command-line interface and the resilience coordinator wiring."""

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.presets import sun_ultra_lan
from repro.config import ResilienceConfig
from repro.core.distributed import build_application
from repro.resilience.coordinator import (ResilienceCoordinator,
                                          protocol_config_for)
from repro.scp.sim_backend import SimBackend


class TestCLI:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_generate_and_sequential_fuse(self, tmp_path, capsys):
        cube_path = str(tmp_path / "scene.npz")
        out_path = str(tmp_path / "fused.npz")
        assert main(["generate", "--bands", "12", "--rows", "24", "--cols", "24",
                     "--seed", "3", "--out", cube_path]) == 0
        assert main(["fuse", cube_path, "--engine", "sequential", "--out", out_path]) == 0
        captured = capsys.readouterr().out
        assert "fusion summary" in captured
        archive = np.load(out_path)
        assert archive["composite"].shape == (24, 24, 3)

    def test_distributed_fuse(self, tmp_path, capsys):
        cube_path = str(tmp_path / "scene.npz")
        main(["generate", "--bands", "10", "--rows", "24", "--cols", "24",
              "--out", cube_path])
        assert main(["fuse", cube_path, "--engine", "distributed", "--workers", "2"]) == 0
        assert "distributed" in capsys.readouterr().out

    def test_resilient_fuse_with_attack(self, tmp_path, capsys):
        cube_path = str(tmp_path / "scene.npz")
        main(["generate", "--bands", "10", "--rows", "24", "--cols", "24",
              "--out", cube_path])
        assert main(["fuse", cube_path, "--engine", "resilient", "--workers", "2",
                     "--attack", "worker.0"]) == 0
        assert "resilient" in capsys.readouterr().out

    @pytest.mark.parametrize("engine,backend", [("sequential", "inline"),
                                                ("distributed", "sim"),
                                                ("resilient", "sim"),
                                                ("pipeline", "process")])
    def test_fuse_without_backend_uses_the_engines_default(
            self, tmp_path, capsys, engine, backend):
        # The CLI leaves the choice to repro.fuse, whose default is the
        # engine's own (the pipeline engine's is process, not sim).
        from repro.api.engines import get_engine

        assert (get_engine(engine).default_backend or "inline") == backend
        cube_path = str(tmp_path / "scene.npz")
        assert main(["generate", "--bands", "8", "--rows", "24", "--cols", "24",
                     "--out", cube_path]) == 0
        capsys.readouterr()
        assert main(["fuse", cube_path, "--engine", engine]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith(("backend", "mode")))
        assert rows == {"mode": engine, "backend": backend}

    def test_sequential_fuse_rejects_a_backend_as_the_facade_does(
            self, tmp_path, capsys):
        cube_path = str(tmp_path / "scene.npz")
        assert main(["generate", "--bands", "8", "--rows", "24", "--cols", "24",
                     "--out", cube_path]) == 0
        assert main(["fuse", cube_path, "--engine", "sequential",
                     "--backend", "process"]) == 2
        assert "accepts no backend" in capsys.readouterr().err

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--workers", "1", "2", "--scale", "0.1",
                     "--bands", "16"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "processors" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestCoordinatorWiring:
    def test_protocol_config_derived_from_overhead(self):
        config = ResilienceConfig(protocol_overhead=0.2)
        protocol = protocol_config_for(config)
        assert protocol.ack_enabled
        assert protocol.per_message_cpu_s == pytest.approx(0.2 * 1.5e-3)

    def test_attach_returns_placement_for_sim_backend(self, small_cube, resilient_config):
        app = build_application(small_cube, resilient_config, worker_replicas=2)
        cluster = sun_ultra_lan(2)
        backend = SimBackend(cluster, pinned={"manager": "manager"})
        coordinator = ResilienceCoordinator(backend, cluster,
                                            resilient_config.resilience,
                                            pinned={"manager": "manager"})
        placement = coordinator.attach(app)
        assert placement is not None
        assert placement["manager#0"] == "manager"
        # Every worker replica has a placement and shadows are spread out.
        for i in range(2):
            assert placement[f"worker.{i}#0"] != placement[f"worker.{i}#1"]

    def test_attach_twice_rejected(self, small_cube, resilient_config):
        app = build_application(small_cube, resilient_config, worker_replicas=2)
        cluster = sun_ultra_lan(2)
        backend = SimBackend(cluster)
        coordinator = ResilienceCoordinator(backend, cluster, resilient_config.resilience)
        coordinator.attach(app)
        with pytest.raises(RuntimeError):
            coordinator.attach(app)

    def test_camouflage_requires_attach(self, resilient_config):
        cluster = sun_ultra_lan(2)
        backend = SimBackend(cluster)
        coordinator = ResilienceCoordinator(backend, cluster, resilient_config.resilience)
        with pytest.raises(RuntimeError):
            coordinator.enable_camouflage(period=1.0, logical_threads=["worker.0"])

    def test_report_before_run(self, small_cube, resilient_config):
        app = build_application(small_cube, resilient_config, worker_replicas=2)
        cluster = sun_ultra_lan(2)
        backend = SimBackend(cluster)
        coordinator = ResilienceCoordinator(backend, cluster, resilient_config.resilience)
        coordinator.attach(app)
        report = coordinator.report()
        assert report["recoveries"] == 0
        assert report["attacks_executed"] == 0
