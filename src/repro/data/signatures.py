"""Synthetic spectral signature library.

The HYDICE scenes of the paper are "foliated scenes ... contain[ing]
mechanized vehicles sitting in open fields as well as under camouflage",
collected between 400 nm and 2.5 um.  The fusion algorithm does not depend
on radiometric fidelity -- only on the *relative* spectral structure: strong
inter-band correlation within a material, distinctive shapes between
materials, and rare target materials embedded in a dominant background.

The signatures below are smooth analytic reflectance curves built from a few
Gaussian features that capture the well-known qualitative behaviour of each
material class (chlorophyll red edge and near-infrared plateau for
vegetation, water-absorption dips near 1400/1900 nm, flat low reflectance
for asphalt and painted metal, an intermediate mixed curve for camouflage
netting).  They are deliberately simple, deterministic and fast to evaluate
on arbitrary wavelength grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Wavelength coverage of the HYDICE instrument, nanometres.
HYDICE_MIN_NM = 400.0
HYDICE_MAX_NM = 2500.0


def _gauss(wl: np.ndarray, centre: float, width: float, height: float) -> np.ndarray:
    return height * np.exp(-0.5 * ((wl - centre) / width) ** 2)


def _sigmoid(wl: np.ndarray, centre: float, width: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(wl - centre) / width))


def _water_absorption(wl: np.ndarray, depth: float = 0.55) -> np.ndarray:
    """Multiplicative atmospheric/water absorption dips near 1400 and 1900 nm."""
    dips = (_gauss(wl, 1400.0, 45.0, depth) + _gauss(wl, 1900.0, 55.0, depth)
            + _gauss(wl, 2500.0, 120.0, 0.3 * depth))
    return np.clip(1.0 - dips, 0.05, 1.0)


@dataclass(frozen=True)
class SpectralSignature:
    """A named reflectance curve.

    Attributes
    ----------
    name:
        Material name, used as the scene label.
    reflectance_fn:
        Callable mapping a wavelength array (nm) to reflectance in [0, 1].
    """

    name: str
    reflectance_fn: Callable[[np.ndarray], np.ndarray]

    def reflectance(self, wavelengths_nm: Sequence[float]) -> np.ndarray:
        wl = np.asarray(wavelengths_nm, dtype=np.float64)
        values = np.asarray(self.reflectance_fn(wl), dtype=np.float64)
        return np.clip(values, 0.0, 1.0)


# --------------------------------------------------------------------------
# Material definitions
# --------------------------------------------------------------------------

def _vegetation(wl: np.ndarray) -> np.ndarray:
    # Low visible reflectance with a small green peak, sharp red edge at
    # ~720 nm, high NIR plateau, then declining SWIR with water absorption.
    visible = 0.06 + _gauss(wl, 550.0, 40.0, 0.08)
    nir_plateau = 0.48 * _sigmoid(wl, 720.0, 18.0)
    swir_decline = 1.0 - 0.35 * _sigmoid(wl, 1500.0, 250.0)
    return (visible + nir_plateau) * swir_decline * _water_absorption(wl, 0.6)


def _dry_grass(wl: np.ndarray) -> np.ndarray:
    base = 0.12 + 0.28 * _sigmoid(wl, 700.0, 60.0)
    cellulose = _gauss(wl, 2100.0, 120.0, -0.06)
    return (base + cellulose) * _water_absorption(wl, 0.4)


def _soil(wl: np.ndarray) -> np.ndarray:
    # Monotonically rising reflectance typical of dry soil, clay feature ~2200.
    rise = 0.10 + 0.35 * _sigmoid(wl, 900.0, 350.0)
    clay = _gauss(wl, 2200.0, 60.0, -0.05)
    return (rise + clay) * _water_absorption(wl, 0.35)


def _asphalt(wl: np.ndarray) -> np.ndarray:
    return (0.07 + 0.04 * _sigmoid(wl, 1200.0, 500.0)) * _water_absorption(wl, 0.25)


def _vehicle_paint(wl: np.ndarray) -> np.ndarray:
    # Olive-drab paint: modest green reflectance, *no* red edge, a broad
    # absorption near 870 nm from the pigment, flat and low in the SWIR.
    green = _gauss(wl, 560.0, 45.0, 0.10)
    pigment = _gauss(wl, 870.0, 90.0, -0.05)
    base = 0.10 + 0.05 * _sigmoid(wl, 1000.0, 400.0)
    return (base + green + pigment) * _water_absorption(wl, 0.3)


def _camouflage_net(wl: np.ndarray) -> np.ndarray:
    # Camouflage netting mimics vegetation in the visible but lacks the full
    # NIR plateau and the deep water-absorption structure of live foliage --
    # this is precisely the difference the spectral screening preserves.
    fake_vegetation = 0.07 + _gauss(wl, 550.0, 45.0, 0.07) + 0.22 * _sigmoid(wl, 730.0, 30.0)
    fabric = 0.10 * _sigmoid(wl, 1600.0, 300.0)
    return (fake_vegetation + fabric) * _water_absorption(wl, 0.35)


def _water(wl: np.ndarray) -> np.ndarray:
    return 0.08 * np.exp(-(wl - HYDICE_MIN_NM) / 500.0) + 0.01


def _shadow(wl: np.ndarray) -> np.ndarray:
    return 0.25 * _vegetation(wl)


_LIBRARY: Dict[str, SpectralSignature] = {
    sig.name: sig for sig in [
        SpectralSignature("forest", _vegetation),
        SpectralSignature("grass", _dry_grass),
        SpectralSignature("soil", _soil),
        SpectralSignature("road", _asphalt),
        SpectralSignature("vehicle", _vehicle_paint),
        SpectralSignature("camouflage", _camouflage_net),
        SpectralSignature("water", _water),
        SpectralSignature("shadow", _shadow),
    ]
}


def available_materials() -> List[str]:
    """Names of all materials in the built-in library."""
    return sorted(_LIBRARY)


def get_signature(name: str) -> SpectralSignature:
    """Look up a signature by material name."""
    try:
        return _LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown material {name!r}; available: {available_materials()}") from None


def signature_matrix(names: Sequence[str], wavelengths_nm: Sequence[float]) -> np.ndarray:
    """Stack reflectance curves into a ``(len(names), bands)`` matrix."""
    wl = np.asarray(wavelengths_nm, dtype=np.float64)
    return np.stack([get_signature(name).reflectance(wl) for name in names])


__all__ = [
    "HYDICE_MIN_NM",
    "HYDICE_MAX_NM",
    "SpectralSignature",
    "available_materials",
    "get_signature",
    "signature_matrix",
]
