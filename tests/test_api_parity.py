"""Cross-engine / cross-backend parity through the unified facade.

The paper's correctness claim -- distribution and resiliency change *how*
the fusion runs, never *what* it produces -- restated through ``repro.fuse``:
for one request shape, every engine on every backend returns a bit-identical
composite (and the same unique-set size and PCT basis).
"""

import numpy as np
import pytest

from repro import fuse
from repro.config import (ColorMapConfig, FusionConfig, PartitionConfig,
                          ScreeningConfig)
from repro.data.cube import HyperspectralCube
from repro.data.hydice import HydiceConfig, HydiceGenerator

#: One request shape shared by every run in this module.  The sequential
#: reference must use the same partition (screening decomposition and
#: covariance summation order follow it), which is exactly what routing
#: everything through one FusionRequest/config guarantees.
PARITY_CONFIG = FusionConfig(
    screening=ScreeningConfig(angle_threshold=0.05, max_unique=512),
    partition=PartitionConfig(workers=2, subcubes=4),
)

#: Every engine x backend combination the registries support.  The
#: sequential engine executes inline on purpose (its backend is ignored).
ENGINE_BACKEND_MATRIX = [
    ("sequential", None),
    ("distributed", "sim"),
    ("distributed", "local"),
    ("distributed", "process"),
    ("resilient", "sim"),
    ("resilient", "local"),
    ("resilient", "process"),
    ("pipeline", "sim"),
    ("pipeline", "local"),
    ("pipeline", "process"),
]


@pytest.fixture(scope="module")
def reference(tiny_cube):
    """The sequential reference composite for the shared request shape."""
    return fuse(tiny_cube, engine="sequential", config=PARITY_CONFIG)


@pytest.mark.parametrize("engine,backend", ENGINE_BACKEND_MATRIX,
                         ids=[f"{e}-{b or 'inline'}" for e, b in ENGINE_BACKEND_MATRIX])
def test_composites_bit_identical_across_engines_and_backends(
        tiny_cube, reference, engine, backend):
    report = fuse(tiny_cube, engine=engine, backend=backend, config=PARITY_CONFIG)
    np.testing.assert_array_equal(report.composite, reference.composite)
    assert report.unique_set_size == reference.unique_set_size
    np.testing.assert_array_equal(report.result.basis.components,
                                  reference.result.basis.components)


@pytest.mark.parametrize("engine", ["distributed", "pipeline"])
@pytest.mark.parametrize("spec", ["sim:switched", "sim:smp", "process:fork"])
def test_parameterised_backend_specs_preserve_parity(tiny_cube, reference,
                                                     engine, spec):
    """Variant specs (cluster presets, start methods) are output-invariant."""
    report = fuse(tiny_cube, engine=engine, backend=spec, config=PARITY_CONFIG)
    np.testing.assert_array_equal(report.composite, reference.composite)


@pytest.mark.parametrize("tile_rows", [1, 3, 32])
def test_pipeline_tile_rows_is_output_invariant(tiny_cube, reference, tile_rows):
    """The streaming granularity knob never changes the composite."""
    report = fuse(tiny_cube, engine="pipeline", backend="local",
                  config=PARITY_CONFIG, tile_rows=tile_rows)
    np.testing.assert_array_equal(report.composite, reference.composite)


@pytest.mark.parametrize("backend", ["local", "sim"])
@pytest.mark.parametrize("engine", ["distributed", "resilient", "pipeline"])
def test_cube_with_fewer_rows_than_subcubes_keeps_parity(tiny_cube, engine,
                                                         backend):
    """A cube smaller than the decomposition clamps it; nothing crashes.

    Regression: the manager handed ``max(subcubes, workers)`` to
    ``decompose`` unclamped, so the two batch engines died on a 3-row cube
    with four workers while ``sequential`` and ``pipeline`` succeeded.
    """
    sliver = HyperspectralCube(tiny_cube.data[:, 0:3, :].copy(),
                               tiny_cube.wavelengths_nm.copy(), dict(tiny_cube.metadata))
    reference = fuse(sliver, engine="sequential", workers=4)
    report = fuse(sliver, engine=engine, backend=backend, workers=4)
    np.testing.assert_array_equal(report.composite, reference.composite)
    assert report.unique_set_size == reference.unique_set_size
    # Every engine reports the decomposition that actually ran (three
    # one-row blocks), not the four that were asked for.
    assert report.metrics.subcubes == reference.metrics.subcubes == 3


@pytest.mark.parametrize("backend", ["local", "sim"])
@pytest.mark.parametrize("engine", ["distributed", "resilient", "pipeline"])
def test_unnormalised_colour_map_keeps_parity(engine, backend):
    """``normalize_components=False`` reaches every engine's step 8.

    Regression: the batch engines' worker hard-coded the stretch on, so
    their composites sat up to 0.66 away from the sequential reference.
    """
    cube = HydiceGenerator(HydiceConfig(bands=16, rows=24, cols=24,
                                        seed=1)).generate()
    config = FusionConfig(colormap=ColorMapConfig(normalize_components=False))
    reference = fuse(cube, engine="sequential", workers=2, config=config)
    report = fuse(cube, engine=engine, backend=backend, workers=2,
                  config=config)
    assert np.array_equal(report.composite, reference.composite)


def test_fuse_stream_fuse_many_and_loop_are_equivalent(tiny_cube, small_cube):
    """One batch, three API shapes, one answer.

    ``session.fuse_stream`` (overlapped), ``session.fuse_many`` (serial on
    warm resources) and a loop of one-shot ``repro.fuse`` calls must return
    report-for-report bit-identical composites in the same order.
    """
    from repro import open_session

    cubes = [tiny_cube, small_cube, tiny_cube]
    loop = [fuse(cube, engine="pipeline", backend="process",
                 config=PARITY_CONFIG) for cube in cubes]
    with open_session(engine="pipeline", backend="process",
                      config=PARITY_CONFIG, max_inflight=2) as session:
        streamed = list(session.fuse_stream(cubes))
        batched = session.fuse_many(cubes)
    for one_shot, stream_report, batch_report in zip(loop, streamed, batched):
        np.testing.assert_array_equal(stream_report.composite, one_shot.composite)
        np.testing.assert_array_equal(batch_report.composite, one_shot.composite)
        assert stream_report.unique_set_size == one_shot.unique_set_size
