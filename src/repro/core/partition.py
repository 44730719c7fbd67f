"""Sub-cube decomposition.

The distributed algorithm divides the hyper-spectral cube into *sub-cubes*
along the spatial (row) axis; each sub-cube is one unit of work handed to a
worker.  Section 4 of the paper (Figure 5) studies the effect of the number
of sub-cubes relative to the number of workers: decomposing into 2-3x more
sub-cubes than workers allows communication to be overlapped with
computation, while decomposing too finely (beyond ~32 sub-cubes for the
320x320x105 cube) makes per-message overhead dominate.

This module owns that decomposition: splitting the scene rows into blocks,
extracting one block, and stitching the per-block composites back together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..data.cube import HyperspectralCube


@dataclass(frozen=True)
class SubcubeSpec:
    """One unit of work: a contiguous block of scene rows.

    Attributes
    ----------
    task_id:
        Dense index of the sub-cube, 0..subcubes-1.
    row_start / row_stop:
        Half-open row range of the block.
    """

    task_id: int
    row_start: int
    row_stop: int

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start


def decompose(cube_rows: int, subcubes: int) -> List[SubcubeSpec]:
    """Split ``cube_rows`` scene rows into ``subcubes`` contiguous blocks.

    Blocks differ in size by at most one row, so load imbalance introduced by
    the decomposition itself is negligible.
    """
    if subcubes < 1:
        raise ValueError("subcubes must be >= 1")
    if subcubes > cube_rows:
        raise ValueError(f"cannot create {subcubes} sub-cubes from {cube_rows} rows")
    edges = np.linspace(0, cube_rows, subcubes + 1, dtype=int)
    return [SubcubeSpec(task_id=i, row_start=int(edges[i]), row_stop=int(edges[i + 1]))
            for i in range(subcubes)]


def extract_subcube(cube: HyperspectralCube, spec: SubcubeSpec) -> np.ndarray:
    """Materialise the ``(bands, block_rows, cols)`` array of one sub-cube.

    Called where a transform block is computed on -- by a worker on the
    cube its task names -- never to build a message.  The contiguous copy
    detaches the block from a shared-memory cube that a later request may
    recycle.  Screening does not copy: it reads the view
    ``subcube_pixel_matrix(cube.data[:, row_start:row_stop])`` in place.
    """
    if not 0 <= spec.row_start < spec.row_stop <= cube.rows:
        raise ValueError(f"sub-cube {spec} out of range for cube with {cube.rows} rows")
    return np.ascontiguousarray(cube.data[:, spec.row_start:spec.row_stop, :])


def subcube_pixel_matrix(block: np.ndarray) -> np.ndarray:
    """Reshape a ``(bands, rows, cols)`` block -- or a row range of a cube's
    ``data`` -- to a ``(pixels, bands)`` view (no copy)."""
    if block.ndim != 3:
        raise ValueError("expected a 3-D sub-cube block")
    bands = block.shape[0]
    return block.reshape(bands, -1).T


def reassemble_composite(blocks: Sequence[Tuple[SubcubeSpec, np.ndarray]],
                         rows: int, cols: int, channels: int = 3) -> np.ndarray:
    """Stitch per-sub-cube RGB blocks back into the full composite image.

    Raises
    ------
    ValueError
        If the blocks do not tile the full row range exactly once.
    """
    composite = np.zeros((rows, cols, channels), dtype=np.float64)
    covered = np.zeros(rows, dtype=bool)
    for spec, block in blocks:
        block = np.asarray(block)
        expected = (spec.rows, cols, channels)
        if block.shape != expected:
            raise ValueError(f"block for {spec} has shape {block.shape}, expected {expected}")
        if covered[spec.row_start:spec.row_stop].any():
            raise ValueError(f"rows {spec.row_start}:{spec.row_stop} are covered twice")
        composite[spec.row_start:spec.row_stop] = block
        covered[spec.row_start:spec.row_stop] = True
    if not covered.all():
        missing = int(np.count_nonzero(~covered))
        raise ValueError(f"composite is missing {missing} rows")
    return composite


__all__ = [
    "SubcubeSpec",
    "decompose",
    "extract_subcube",
    "subcube_pixel_matrix",
    "reassemble_composite",
]
