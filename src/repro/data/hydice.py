"""Synthetic HYDICE collection generator.

The paper's test data comes from the Hyper-spectral Digital Imagery
Collection Experiment (HYDICE) airborne spectrometer: 210 channels between
400 nm and 2.5 um over foliated scenes containing mechanised vehicles, some
camouflaged.  That data is not publicly distributable, so this module builds
a synthetic stand-in with the same structural properties (see the
introduction of README.md): the scene layout from :mod:`repro.data.scene`,
material reflectances from :mod:`repro.data.signatures`, a simple
solar-illumination term, and the sensor-noise model from
:mod:`repro.data.noise`.

The generator is deterministic given its configuration, and the label map /
vehicle ground truth is carried in the cube metadata so evaluation code can
quantify target enhancement in the fused composite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .cube import HyperspectralCube
from .noise import NoiseModel, apply_sensor_noise
from .scene import DEFAULT_MATERIALS, generate_scene
from .signatures import HYDICE_MAX_NM, HYDICE_MIN_NM, signature_matrix


@dataclass(frozen=True)
class HydiceConfig:
    """Configuration of a synthetic HYDICE collection.

    Attributes
    ----------
    bands, rows, cols:
        Cube dimensions.  The paper's full collection is 210 bands; its
        granularity experiment uses a 105-band, 320x320 cube.
    seed:
        Master seed controlling layout, abundances and noise.
    vehicles / camouflaged_vehicles:
        Targets embedded in the scene.
    noise:
        Sensor noise model.
    illumination:
        Peak radiance scale (arbitrary units ~ uint16 full range).
    mixing_strength:
        Maximum sub-pixel mixing fraction folded into the material variants:
        real airborne pixels (1-4 m ground sample distance) are almost never
        spectrally pure, so each variant blends its own material with a
        randomly chosen second material by up to this fraction.
    spectral_variability:
        Amplitude of the low-order spectral-shape perturbations (slope and
        curvature) that distinguish the variants of one material, modelling
        within-class variability such as leaf water content, soil moisture
        and illumination geometry.  Unlike multiplicative brightness, these
        change a pixel's spectral *angle* and therefore control how many
        distinct spectra the screening threshold can resolve.
    variants_per_material:
        Size of the per-material variant library.  Every pixel is assigned
        one variant of its material, so the number of genuinely distinct
        spectra in a scene is bounded by ``materials x variants`` -- the
        property of real hyper-spectral scenes that makes the unique-set size
        (and therefore the screening workload) saturate instead of growing
        with the number of pixels examined.
    """

    bands: int = 210
    rows: int = 320
    cols: int = 320
    seed: int = 0
    vehicles: int = 3
    camouflaged_vehicles: int = 1
    noise: NoiseModel = field(default_factory=NoiseModel)
    illumination: float = 4000.0
    mixing_strength: float = 0.4
    spectral_variability: float = 0.12
    variants_per_material: int = 24
    clutter_fraction: float = 0.15
    materials: Tuple[str, ...] = DEFAULT_MATERIALS

    def __post_init__(self) -> None:
        if self.bands < 3:
            raise ValueError("need at least 3 spectral bands")
        if self.rows < 16 or self.cols < 16:
            raise ValueError("scene must be at least 16x16 pixels")
        if self.illumination <= 0:
            raise ValueError("illumination must be positive")
        if not 0.0 <= self.mixing_strength <= 1.0:
            raise ValueError("mixing_strength must be in [0, 1]")
        if self.spectral_variability < 0:
            raise ValueError("spectral_variability must be >= 0")
        if self.variants_per_material < 1:
            raise ValueError("variants_per_material must be >= 1")
        if not 0.0 <= self.clutter_fraction < 1.0:
            raise ValueError("clutter_fraction must be in [0, 1)")


def solar_illumination(wavelengths_nm: np.ndarray) -> np.ndarray:
    """Relative at-sensor illumination: a smooth black-body-like curve peaking
    in the visible and declining into the SWIR."""
    wl = np.asarray(wavelengths_nm, dtype=np.float64)
    curve = np.exp(-0.5 * ((wl - 580.0) / 700.0) ** 2) + 0.15
    return curve / curve.max()


class HydiceGenerator:
    """Builds :class:`~repro.data.cube.HyperspectralCube` objects from a config."""

    def __init__(self, config: Optional[HydiceConfig] = None) -> None:
        self.config = config or HydiceConfig()

    # ------------------------------------------------------------------ main
    def generate(self) -> HyperspectralCube:
        """Generate the synthetic collection described by the configuration."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        wavelengths = np.linspace(HYDICE_MIN_NM, HYDICE_MAX_NM, cfg.bands)

        scene = generate_scene(cfg.rows, cfg.cols, seed=cfg.seed,
                               vehicles=cfg.vehicles,
                               camouflaged_vehicles=cfg.camouflaged_vehicles,
                               materials=cfg.materials,
                               clutter_fraction=cfg.clutter_fraction)

        reflectance = signature_matrix(scene.materials, wavelengths)  # (materials, bands)
        illumination = solar_illumination(wavelengths) * cfg.illumination

        # Per-material variant library: a bounded set of distinct spectra per
        # material (shape perturbations + sub-pixel mixing), so the diversity
        # of the scene saturates like a real collection instead of growing
        # with the number of pixels sampled.
        variants = self._variant_library(reflectance, wavelengths, rng)
        variant_index = rng.integers(0, cfg.variants_per_material,
                                     size=(cfg.rows, cfg.cols))

        # Radiance cube: gather each pixel's (material, variant) spectrum and
        # scale by the abundance field and the illumination curve.
        per_pixel_reflectance = variants[scene.labels, variant_index]  # (rows, cols, bands)
        radiance = per_pixel_reflectance * scene.abundance[..., None]
        radiance = np.transpose(radiance, (2, 0, 1)) * illumination[:, None, None]

        noisy = apply_sensor_noise(radiance, wavelengths, cfg.noise, rng)

        metadata = {
            "sensor": "synthetic-HYDICE",
            "seed": cfg.seed,
            "label_map": scene.labels.copy(),
            "materials": scene.materials,
            "target_mask": scene.target_mask(),
            "vehicles": scene.vehicles,
            "scene_fractions": scene.fractions(),
        }
        return HyperspectralCube(noisy, wavelengths, metadata)

    # --------------------------------------------------------------- variants
    def _variant_library(self, reflectance: np.ndarray, wavelengths: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Build the ``(materials, variants, bands)`` spectral variant library.

        Each variant of a material is the base signature modulated by an
        independent, spectrally smooth random perturbation (within-class
        variability: leaf chemistry, soil moisture, paint weathering) and
        blended with a randomly chosen second material (sub-pixel mixing).
        Variant 0 is always the unperturbed base signature.

        Because every variant has its own perturbation shape, the variants of
        one material are mutually separated by spectral angles of roughly
        ``spectral_variability`` radians -- well above the screening
        threshold -- so the number of unique spectra a screening pass finds
        saturates at (roughly) the library size rather than growing with the
        number of pixels examined.  That saturation is what keeps the
        distributed screening workload nearly independent of the sub-cube
        decomposition, as it is for real collections.
        """
        cfg = self.config
        n_materials, bands = reflectance.shape
        v = cfg.variants_per_material

        # Smooth random perturbation curves, unit RMS, one per (material, variant).
        raw = rng.standard_normal((n_materials, v, bands))
        width = max(3, bands // 12)
        kernel = np.exp(-0.5 * ((np.arange(-2 * width, 2 * width + 1)) / width) ** 2)
        kernel /= kernel.sum()
        pad = len(kernel) // 2
        padded = np.pad(raw, ((0, 0), (0, 0), (pad, pad)), mode="reflect")
        smooth = np.zeros_like(raw)
        for offset, weight in enumerate(kernel):
            smooth += weight * padded[:, :, offset:offset + bands]
        rms = np.sqrt(np.mean(smooth ** 2, axis=-1, keepdims=True))
        smooth /= np.maximum(rms, 1e-12)
        smooth[:, 0, :] = 0.0

        modulation = 1.0 + cfg.spectral_variability * smooth
        variants = reflectance[:, None, :] * modulation      # (materials, v, bands)

        if cfg.mixing_strength > 0 and n_materials > 1:
            partners = rng.integers(0, n_materials, size=(n_materials, v))
            weights = rng.beta(1.2, 4.0, size=(n_materials, v)) * cfg.mixing_strength
            weights[:, 0] = 0.0
            variants = ((1.0 - weights[..., None]) * variants
                        + weights[..., None] * reflectance[partners])

        return np.clip(variants, 0.0, None)

    # ------------------------------------------------------------- shortcuts
    @classmethod
    def paper_granularity_cube(cls, *, scale: float = 1.0, seed: int = 0) -> HyperspectralCube:
        """The 320x320x105 cube of the granularity experiment (Figure 5).

        ``scale`` < 1 shrinks the spatial extent proportionally (the cost
        model of the simulated backend still reflects the actual array sizes,
        so benchmark runs stay fast while preserving compute/communication
        ratios reasonably well).
        """
        rows = max(32, int(round(320 * scale)))
        cols = max(32, int(round(320 * scale)))
        config = HydiceConfig(bands=105, rows=rows, cols=cols, seed=seed)
        return cls(config).generate()

    @classmethod
    def quicklook_cube(cls, *, bands: int = 32, rows: int = 48, cols: int = 48,
                       seed: int = 0) -> HyperspectralCube:
        """A small cube for unit tests and quick examples."""
        config = HydiceConfig(bands=bands, rows=rows, cols=cols, seed=seed,
                              vehicles=1, camouflaged_vehicles=1)
        return cls(config).generate()


def generate_cube(bands: int = 210, rows: int = 320, cols: int = 320, *,
                  seed: int = 0, **kwargs) -> HyperspectralCube:
    """Functional shortcut: ``generate_cube(210, 320, 320, seed=0)``."""
    config = HydiceConfig(bands=bands, rows=rows, cols=cols, seed=seed, **kwargs)
    return HydiceGenerator(config).generate()


__all__ = ["HydiceConfig", "HydiceGenerator", "generate_cube", "solar_illumination"]
