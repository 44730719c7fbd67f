"""The eight algorithm steps of the spectral-screening PCT, as pure functions.

Each module pairs the numerical kernels with FLOP estimators used by the
simulated backend's cost model:

* :mod:`.screening`  -- steps 1-2: spectral-angle screening and merging
* :mod:`.statistics` -- steps 3-5: mean vector, covariance sums, covariance
* :mod:`.transform`  -- steps 6-7: eigen-decomposition and projection
* :mod:`.colormap`   -- step 8: human-centred colour mapping
"""

from .colormap import (OPPONENCY_MATRIX, color_map, color_map_flops,
                       component_statistics, luminance, stretch_components)
from .screening import (UniqueSetBuffer, merge_flops, merge_unique_sets,
                        normalize_rows, screen_unique_set,
                        screen_unique_set_reference, screening_flops,
                        spectral_angles)
from .statistics import (covariance_combine_flops, covariance_matrix,
                         covariance_sum, covariance_sum_flops, mean_flops,
                         mean_vector, partition_pixel_matrix)
from .transform import (EIGH_FLOP_CONSTANT, PCTBasis, eigendecomposition_flops,
                        project, project_cube_block, projection_flops,
                        transformation_matrix)

__all__ = [
    "OPPONENCY_MATRIX",
    "color_map",
    "color_map_flops",
    "component_statistics",
    "luminance",
    "stretch_components",
    "UniqueSetBuffer",
    "merge_flops",
    "merge_unique_sets",
    "normalize_rows",
    "screen_unique_set",
    "screen_unique_set_reference",
    "screening_flops",
    "spectral_angles",
    "covariance_combine_flops",
    "covariance_matrix",
    "covariance_sum",
    "covariance_sum_flops",
    "mean_flops",
    "mean_vector",
    "partition_pixel_matrix",
    "EIGH_FLOP_CONSTANT",
    "PCTBasis",
    "eigendecomposition_flops",
    "project",
    "project_cube_block",
    "projection_flops",
    "transformation_matrix",
]
