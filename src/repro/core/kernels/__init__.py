"""The hot fusion kernels, reached by name from worker tasks.

``repro.core.kernels`` holds the fused numeric kernels of the hot stages
(centre+SYRK covariance partials, centre/project/stretch step-7 tiles; the
screening survivor elimination lives with screening, in
:mod:`repro.core.steps.screening`).  The ``compute=`` policy string carried
on :class:`~repro.config.FusionConfig` names the backend that runs them;
``numpy`` (:mod:`.numpy_backend`: scratch-pooled centring, ``out=`` GEMMs,
in-place colour chain) is the one tier and defines the bits.

The module-level ``kernel_*`` functions are the picklable dispatch surface
worker tasks use: plain functions taking the compute name as data, which
they check against :func:`compute_names`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...config import compute_names, require_compute
from .numpy_backend import covariance_sum, project_and_map


def kernel_covariance_sum(pixels: np.ndarray, mean: np.ndarray,
                          compute: str = "numpy") -> np.ndarray:
    """Covariance partial on the named compute backend (picklable)."""
    require_compute(compute)
    return covariance_sum(pixels, mean)


def kernel_project_and_map(block: np.ndarray, basis, *, n_components: int,
                           normalize: bool, stretch_mean: np.ndarray,
                           stretch_std: np.ndarray, compute_dtype=np.float64,
                           compute: str = "numpy",
                           components_out: Optional[np.ndarray] = None,
                           composite_out: Optional[np.ndarray] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Fused step-7/8 tile on the named compute backend (picklable)."""
    require_compute(compute)
    return project_and_map(
        block, basis, n_components=n_components, normalize=normalize,
        stretch_mean=stretch_mean, stretch_std=stretch_std,
        compute_dtype=compute_dtype, components_out=components_out,
        composite_out=composite_out)


__all__ = ["compute_names", "kernel_covariance_sum", "kernel_project_and_map"]
