"""Hyper-spectral image cube container.

A HYDICE collection is a stack of co-registered images, one per spectral
band.  :class:`HyperspectralCube` stores the stack as a single
``(bands, rows, cols)`` ``float32`` array together with the band-centre
wavelengths, and provides the views the fusion algorithm needs: the
pixel-vector matrix (each row one pixel across all bands) and individual
band frames (Figure 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np


class CubeError(ValueError):
    """Raised for malformed cube construction or out-of-range access."""


@dataclass
class HyperspectralCube:
    """A ``(bands, rows, cols)`` hyper-spectral data cube.

    Attributes
    ----------
    data:
        Radiance/reflectance samples, ``float32``, indexed ``[band, row, col]``.
    wavelengths_nm:
        Band-centre wavelengths in nanometres, ascending, length ``bands``.
    metadata:
        Free-form provenance (sensor name, scene seed, ground-truth labels...).
    """

    data: np.ndarray
    wavelengths_nm: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float32)
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=np.float64)
        if self.data.ndim != 3:
            raise CubeError(f"cube data must be 3-D (bands, rows, cols); got {self.data.shape}")
        if self.wavelengths_nm.ndim != 1 or len(self.wavelengths_nm) != self.data.shape[0]:
            raise CubeError(
                f"wavelengths length {self.wavelengths_nm.shape} does not match "
                f"band count {self.data.shape[0]}")
        if len(self.wavelengths_nm) > 1 and np.any(np.diff(self.wavelengths_nm) <= 0):
            raise CubeError("wavelengths must be strictly ascending")

    # ------------------------------------------------------------ dimensions
    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def pixels(self) -> int:
        return self.rows * self.cols

    def nbytes_estimate(self) -> int:
        """Serialized size estimate used by the communication cost model."""
        return int(self.data.nbytes + self.wavelengths_nm.nbytes)

    # ----------------------------------------------------------------- views
    def as_pixel_matrix(self) -> np.ndarray:
        """Return a ``(pixels, bands)`` view with each row one pixel vector.

        The transformation and statistics steps of the algorithm operate on
        pixel vectors; this reshape is free (a view) because the cube is
        stored band-major and we only permute axes lazily.
        """
        return self.data.reshape(self.bands, -1).T

    def band(self, index: int) -> np.ndarray:
        """Return one spectral frame as a ``(rows, cols)`` array."""
        if not 0 <= index < self.bands:
            raise CubeError(f"band index {index} out of range [0, {self.bands})")
        return self.data[index]

    def band_nearest(self, wavelength_nm: float) -> Tuple[int, np.ndarray]:
        """Return ``(index, frame)`` of the band closest to ``wavelength_nm``.

        Figure 2 of the paper shows the 400 nm and 1998 nm frames; this is
        the accessor the corresponding benchmark and example use.
        """
        index = int(np.argmin(np.abs(self.wavelengths_nm - wavelength_nm)))
        return index, self.data[index]

    def require_finite(self) -> None:
        """Raise :class:`CubeError` if any sample is NaN or infinite.

        The fusion arithmetic is undefined on such a sample: a NaN makes
        the composite non-finite, and an infinity yields a finite but
        meaningless one.
        """
        finite = np.isfinite(self.data)
        if finite.all():
            return
        bad = ~finite
        band, row, col = np.unravel_index(int(np.argmax(bad)), self.shape)
        raise CubeError(f"cube has {int(np.count_nonzero(bad))} non-finite sample(s); "
                        f"the first is at (band, row, col) = ({band}, {row}, {col})")

    # ------------------------------------------------------------------- i/o
    def save_npz(self, path: str) -> None:
        """Persist the cube to a compressed ``.npz`` file."""
        label_map = self.metadata.get("label_map")
        np.savez_compressed(path, data=self.data, wavelengths_nm=self.wavelengths_nm,
                            label_map=label_map if label_map is not None else np.empty(0))

    @classmethod
    def load_npz(cls, path: str) -> "HyperspectralCube":
        """Load a cube previously written by :meth:`save_npz`."""
        archive = np.load(path, allow_pickle=False)
        metadata: Dict[str, object] = {}
        if "label_map" in archive and archive["label_map"].size:
            metadata["label_map"] = archive["label_map"]
        return cls(archive["data"], archive["wavelengths_nm"], metadata)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HyperspectralCube bands={self.bands} rows={self.rows} cols={self.cols} "
                f"{self.wavelengths_nm[0]:.0f}-{self.wavelengths_nm[-1]:.0f}nm>")


__all__ = ["HyperspectralCube", "CubeError"]
