"""Per-stage profiling and the compute-dtype policy (PR 5 tentpole).

Asserts the contract of :attr:`repro.api.request.FusionReport.stage_timings`
(populated by all four engines, with throughput derivations where the cost
models apply), the ``--profile`` CLI view, and the compute-dtype policy
(float64 default bit-identical to the seed arithmetic, float32 fast mode
close but not required to match).
"""

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.config import ConfigurationError, FusionConfig
from repro.core.profiling import (StageTiming, build_stage_timings,
                                  stage_timings_table)
from repro.data.hydice import HydiceConfig, HydiceGenerator


@pytest.fixture(scope="module")
def small_cube():
    return HydiceGenerator(HydiceConfig(bands=12, rows=32, cols=32,
                                        seed=11)).generate()


@pytest.fixture(scope="module")
def reference(small_cube):
    return repro.fuse(small_cube, engine="sequential", workers=2)


class TestStageTimings:
    def test_sequential_engine_populates_stage_timings(self, small_cube, reference):
        timings = reference.stage_timings
        for stage in ("screening", "merge", "mean", "covariance",
                      "eigendecomposition", "projection", "colormap"):
            assert stage in timings, stage
            assert timings[stage].seconds >= 0.0
        assert timings["screening"].rows == small_cube.pixels
        assert timings["screening"].invocations == 2  # one per sub-cube
        assert timings["projection"].rows == small_cube.pixels

    @pytest.mark.parametrize("engine,backend", [
        ("distributed", "sim"),
        ("distributed", "local"),
        ("resilient", "sim"),
        ("pipeline", "local"),
    ])
    def test_all_engines_populate_stage_timings(self, small_cube, reference,
                                                engine, backend):
        report = repro.fuse(small_cube, engine=engine, backend=backend,
                            workers=2)
        assert np.array_equal(report.composite, reference.composite)
        assert report.stage_timings, f"{engine} produced no stage timings"
        assert "screening" in report.stage_timings
        rates = [t.gflops_per_second for t in report.stage_timings.values()
                 if t.gflops_per_second is not None]
        assert rates and all(rate > 0 for rate in rates)

    def test_profile_table_renders_every_stage(self, reference):
        table = reference.profile_table()
        for stage in reference.stage_timings:
            assert stage in table
        assert "GFLOP/s" in table and "total" in table

    def test_throughput_derivations(self):
        timing = StageTiming(name="screening", seconds=2.0, invocations=4,
                             rows=1000, flops=4e9)
        assert timing.rows_per_second == pytest.approx(500.0)
        assert timing.gflops_per_second == pytest.approx(2.0)
        record = timing.as_dict()
        assert record["name"] == "screening"
        assert record["rows_per_second"] == pytest.approx(500.0)
        idle = StageTiming(name="merge", seconds=0.0)
        assert idle.rows_per_second is None
        assert idle.gflops_per_second is None

    def test_build_stage_timings_keeps_measurement_order(self):
        timings = build_stage_timings({"screening": 1.0, "projection": 2.0},
                                      phase_rows={"screening": 10},
                                      phase_flops={"projection": 1e9})
        assert list(timings) == ["screening", "projection"]
        assert timings["screening"].rows == 10
        assert timings["projection"].gflops_per_second == pytest.approx(0.5)
        table = stage_timings_table(timings, title=None)
        assert "screening" in table

    def test_cli_profile_flag(self, tmp_path, capsys):
        scene = tmp_path / "scene.npz"
        assert cli_main(["generate", "--bands", "10", "--rows", "24",
                         "--cols", "24", "--out", str(scene)]) == 0
        assert cli_main(["fuse", str(scene), "--engine", "sequential",
                        "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-stage profile" in out
        assert "screening" in out and "GFLOP/s" in out


class TestComputeDtypePolicy:
    def test_float64_explicit_is_bit_identical(self, small_cube, reference):
        explicit = repro.fuse(small_cube, engine="sequential", workers=2,
                              compute_dtype="float64")
        np.testing.assert_array_equal(explicit.composite, reference.composite)
        np.testing.assert_array_equal(explicit.components, reference.components)

    def test_float32_fast_mode_is_close(self, small_cube, reference):
        fast = repro.fuse(small_cube, engine="sequential", workers=2,
                          compute_dtype="float32")
        assert fast.result.metadata["compute_dtype"] == "float32"
        assert fast.composite.dtype == np.float64
        np.testing.assert_allclose(fast.composite, reference.composite,
                                   atol=5e-3)

    @pytest.mark.parametrize("engine,backend", [
        ("sequential", None),
        ("distributed", "sim"),
        ("pipeline", "local"),
    ])
    def test_float32_request_screens_like_float64(self, engine, backend):
        # float32 is a projection precision only: the unique set, and so the
        # basis and the stretch constants derived from it, are float64's.
        # (On this scene float32 screening used to admit other pixels.)
        cube = HydiceGenerator(HydiceConfig(bands=32, rows=64, cols=64,
                                            seed=0)).generate()
        options = {} if backend is None else {"backend": backend}
        exact, fast = (repro.fuse(cube, engine=engine, workers=2,
                                  compute_dtype=dtype, **options)
                       for dtype in ("float64", "float32"))
        assert fast.result.unique_set_size == exact.result.unique_set_size
        np.testing.assert_array_equal(fast.result.basis.components,
                                      exact.result.basis.components)
        for key in ("stretch_mean", "stretch_std"):
            np.testing.assert_array_equal(fast.result.metadata[key],
                                          exact.result.metadata[key])

    @pytest.mark.parametrize("engine,backend", [
        ("distributed", "sim"),
        ("pipeline", "local"),
    ])
    def test_float32_mode_runs_on_backend_engines(self, small_cube, reference,
                                                  engine, backend):
        fast = repro.fuse(small_cube, engine=engine, backend=backend,
                          workers=2, compute_dtype="float32")
        np.testing.assert_allclose(fast.composite, reference.composite,
                                   atol=5e-3)

    def test_request_rejects_unknown_dtype(self, small_cube):
        with pytest.raises(ValueError, match="compute_dtype"):
            repro.fuse(small_cube, compute_dtype="float16")

    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ConfigurationError, match="compute_dtype"):
            FusionConfig(compute_dtype="bfloat16")

    def test_cli_compute_dtype_flag(self, tmp_path, capsys):
        scene = tmp_path / "scene.npz"
        assert cli_main(["generate", "--bands", "10", "--rows", "24",
                         "--cols", "24", "--out", str(scene)]) == 0
        assert cli_main(["fuse", str(scene), "--compute-dtype",
                         "float32"]) == 0
        assert "float32" in capsys.readouterr().out
