"""A cube with a NaN or infinite sample is rejected before any worker runs.

Unchecked, one NaN sample fused to a non-finite composite without a warning,
and one infinity to a finite but meaningless one.  Every engine rejects the
cube with a :class:`~repro.data.cube.CubeError` (a ``ValueError``) naming the
count of bad samples and the first one, and leaves nothing in ``/dev/shm``.
"""

import numpy as np
import pytest

from repro import fuse, open_session
from repro.data.cube import CubeError, HyperspectralCube
from repro.data.shared import owned_segment_names

from _process_utils import shm_residue

CELLS = [
    ("sequential", None),
    ("pipeline", "local:2"),
    ("pipeline", "process:2"),
    ("distributed", "sim"),
    ("resilient", "process:2"),
]


def spoiled(cube, value, *, also=None):
    """A copy of ``cube`` with ``value`` at (3, 5, 7) and at ``also``."""
    data = cube.data.copy()
    data[3, 5, 7] = value
    if also is not None:
        data[also] = value
    return HyperspectralCube(data, cube.wavelengths_nm.copy(), dict(cube.metadata))


@pytest.mark.parametrize("engine, backend", CELLS)
def test_non_finite_sample_is_rejected_without_residue(tiny_cube, fast_config,
                                                       engine, backend):
    residue, owned = set(shm_residue()), owned_segment_names()
    for value in (np.nan, np.inf, -np.inf):
        bad = spoiled(tiny_cube, value, also=(9, 0, 1))
        with pytest.raises(ValueError,
                           match=r"2 non-finite sample\(s\).*\(3, 5, 7\)") as raised:
            fuse(bad, engine=engine, backend=backend, config=fast_config)
        assert raised.type is CubeError
        assert set(shm_residue()) == residue
        assert owned_segment_names() == owned
    reference = fuse(tiny_cube, config=fast_config)
    report = fuse(tiny_cube, engine=engine, backend=backend, config=fast_config)
    np.testing.assert_array_equal(report.composite, reference.composite)


@pytest.mark.parametrize("backend, checks", [("process:2", 1), ("local:2", 3)])
def test_check_runs_once_per_placement_miss_else_per_request(
        tiny_cube, fast_config, monkeypatch, backend, checks):
    """A process backend checks a cube when it places it (a cache hit costs
    nothing); a thread backend, which places nothing, checks every request."""
    checked = []
    original = HyperspectralCube.require_finite
    monkeypatch.setattr(HyperspectralCube, "require_finite",
                        lambda cube: checked.append(cube) or original(cube))
    with open_session(engine="pipeline", backend=backend,
                      config=fast_config) as session:
        for _ in range(3):
            session.fuse(tiny_cube)
        assert len(checked) == checks
        with pytest.raises(CubeError):
            session.fuse(spoiled(tiny_cube, np.inf))
        assert session.cubes_placed == (1 if backend == "process:2" else 0)
