"""Pluggable compute-kernel tier for the hot fusion stages.

``repro.core.kernels`` mirrors the engine/backend/rule/scenario/transport
registries for *arithmetic*: named, bit-identical implementations of the
three hot kernels (fused centre+SYRK covariance partials, fused
centre/project/stretch step-7 tiles, the screening survivor elimination),
selected by the ``compute=`` policy string carried on
:class:`~repro.config.FusionConfig` -- never by a pickled function, so
forked and socket-transport workers resolve the same kernel by name.

Registered tier:

``numpy``
    The reference (:mod:`.numpy_backend`): scratch-pooled centring,
    ``out=`` GEMMs, in-place colour chain.  Defines the bits.

The module-level ``kernel_*`` functions are the picklable dispatch surface
worker tasks use: plain functions taking the compute name as data.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .registry import (ComputeBackend, compute_names, get_compute,
                       register_compute)
from .numpy_backend import NumpyBackend


def kernel_covariance_sum(pixels: np.ndarray, mean: np.ndarray,
                          compute: str = "numpy") -> np.ndarray:
    """Covariance partial through the named compute backend (picklable)."""
    return get_compute(compute).covariance_sum(pixels, mean)


def kernel_project_and_map(block: np.ndarray, basis, *, n_components: int,
                           normalize: bool, stretch_mean: np.ndarray,
                           stretch_std: np.ndarray, compute_dtype=np.float64,
                           compute: str = "numpy",
                           components_out: Optional[np.ndarray] = None,
                           composite_out: Optional[np.ndarray] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused step-7/8 tile through the named compute backend (picklable)."""
    return get_compute(compute).project_and_map(
        block, basis, n_components=n_components, normalize=normalize,
        stretch_mean=stretch_mean, stretch_std=stretch_std,
        compute_dtype=compute_dtype, components_out=components_out,
        composite_out=composite_out)


__all__ = ["ComputeBackend", "register_compute", "compute_names",
           "get_compute", "NumpyBackend",
           "kernel_covariance_sum", "kernel_project_and_map"]
