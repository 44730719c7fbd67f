"""Step 8: human-centred colour mapping.

The final step maps the first three principal components onto a colour
composite in a way matched to the opponent-process organisation of human
vision: the first (highest variance) component drives the achromatic channel,
the second drives red-green opponency and the third blue-yellow opponency
(Boynton 1979; Poirson & Wandell 1993, both cited by the paper).

The paper gives an explicit 3x3 mixing matrix applied to the components after
an offset of 128, followed by normalisation by 256.  The matrix printed in
the archival scan is partially garbled by the OCR of the equation; the matrix
used here is reconstructed so that its columns implement exactly the stated
opponency scheme (column 1 adds to every RGB channel, column 2 is a
red-minus-green difference, column 3 a blue-minus-yellow difference) while
keeping the legible coefficients (0.4387, 0.4972, 0.1403, 0.1355, 0.0795,
0.0641, 0.0116).  The qualitative behaviour the paper reports -- improved
contrast, the camouflaged vehicle standing out against foliage -- depends
only on this structure, which the reproduction tests check directly.

Normalisation
-------------
Principal components have arbitrary numeric range, so before the 3x3 mix the
components are stretched into the +-128 digital range implied by the paper's
``(C - 128)`` term.  The stretch statistics (per-component mean and standard
deviation) may either be computed from the data being mapped
(``self-normalising``, the convenient single-machine path) or supplied
explicitly.  The distributed implementation supplies statistics computed once
from the screened unique set so that every worker's block is normalised with
the *same* constants -- otherwise block boundaries would be visible and the
distributed composite would not match the sequential reference.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .transform import _fresh_buffer, matmul_panels

#: Opponency-to-RGB mixing matrix.  Rows produce (R, G, B); columns take
#: (achromatic, red-green, blue-yellow) inputs.
OPPONENCY_MATRIX = np.array([
    [0.4387, +0.4972, +0.0641],   # red   = luminance + R-G push + small B-Y
    [0.4972, -0.1403, +0.0795],   # green = luminance - R-G push + small B-Y
    [0.1355, -0.0116, -0.4972],   # blue  = luminance            - B-Y push
], dtype=np.float64)

#: Offset and scale constants from the paper's equation.
_OFFSET = 128.0
_SCALE = 256.0


def component_statistics(components: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-component mean and standard deviation of the first three components.

    Used by the manager to derive global stretch constants from the screened
    unique set before distributing the transform/colour-map tasks.
    """
    components = np.asarray(components, dtype=np.float64)
    if components.shape[-1] < 3:
        raise ValueError("need at least 3 components")
    flat = components.reshape(-1, components.shape[-1])[:, :3]
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def stretch_components(components: np.ndarray, *, mean: Optional[np.ndarray] = None,
                       std: Optional[np.ndarray] = None,
                       clip_sigma: float = 2.5) -> np.ndarray:
    """Scale principal components into the [0, 256] digital range.

    Each component is centred on ``mean`` and scaled so ``clip_sigma``
    standard deviations span the +-128 range, then clipped and shifted to be
    non-negative.  When ``mean``/``std`` are omitted they are computed from
    the data itself.
    """
    components = np.asarray(components, dtype=np.float64)
    if components.shape[-1] < 3:
        raise ValueError("need at least 3 components")
    first_three = components[..., :3]
    if mean is None or std is None:
        mean, std = component_statistics(first_three)
    mean = np.asarray(mean, dtype=np.float64)[:3]
    std = np.asarray(std, dtype=np.float64)[:3]
    std = np.where(std > 0, std, 1.0)
    if clip_sigma <= 0:
        raise ValueError("clip_sigma must be positive")
    scaled = (first_three - mean) / (clip_sigma * std) * _OFFSET
    return np.clip(scaled, -_OFFSET, _OFFSET) + _OFFSET


def mix_opponency(centred: np.ndarray, *,
                  scratch: Callable[..., np.ndarray] = _fresh_buffer) -> np.ndarray:
    """``centred @ OPPONENCY_MATRIX.T`` of a ``(pixels, 3)`` matrix, in the
    fixed-width padded panels of :func:`~repro.core.steps.transform.
    matmul_panels`, so a pixel's mix has the same bits in a tile of any size.
    """
    return matmul_panels(centred, OPPONENCY_MATRIX.T, tag="mixed",
                         scratch=scratch)


def color_map(components: np.ndarray, *, normalize: bool = True,
              mean: Optional[np.ndarray] = None, std: Optional[np.ndarray] = None,
              clip_sigma: float = 2.5, as_uint8: bool = False) -> np.ndarray:
    """Map the first three principal components to an RGB composite.

    Parameters
    ----------
    components:
        ``(..., k)`` array with k >= 3; only the first three are used.
        Typically ``(rows, cols, 3)`` from
        :func:`~repro.core.steps.transform.project_cube_block`.
    normalize:
        Apply :func:`stretch_components` first (recommended; raw principal
        components have arbitrary numeric range).
    mean / std:
        Optional global stretch statistics (see module docstring).
    clip_sigma:
        Stretch width used by the normalisation.
    as_uint8:
        Return ``uint8`` in [0, 255] instead of float in [0, 1].

    Returns
    -------
    ndarray
        ``(..., 3)`` RGB composite.
    """
    components = np.asarray(components, dtype=np.float64)
    if components.shape[-1] < 3:
        raise ValueError(
            f"colour mapping needs at least 3 components; got {components.shape[-1]}")
    first_three = components[..., :3]
    if normalize:
        first_three = stretch_components(first_three, mean=mean, std=std,
                                         clip_sigma=clip_sigma)
    # R_ij = (128 + M (C_ij - 128)) / 256, vectorised over all pixels.
    centred = first_three - _OFFSET
    mixed = mix_opponency(centred.reshape(-1, 3)).reshape(centred.shape)
    rgb = (_OFFSET + mixed) / _SCALE
    rgb = np.clip(rgb, 0.0, 1.0)
    if as_uint8:
        return np.round(rgb * 255.0).astype(np.uint8)
    return rgb


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luminance of an RGB composite (used by contrast metrics)."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.shape[-1] != 3:
        raise ValueError("expected an RGB array with a trailing dimension of 3")
    return rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

def color_map_flops(n_pixels: int) -> float:
    """FLOPs of the colour mapping: a 3x3 mix plus offsets per pixel."""
    return float(n_pixels) * (2 * 9 + 6 + 4)


__all__ = [
    "OPPONENCY_MATRIX",
    "component_statistics",
    "stretch_components",
    "color_map",
    "mix_opponency",
    "luminance",
    "color_map_flops",
]
