"""Synthetic HYDICE-like data substrate.

The paper evaluates on proprietary HYDICE airborne spectrometer collections;
this subpackage provides a deterministic, physically-motivated synthetic
stand-in (see the introduction of README.md): a spectral signature
library (:mod:`.signatures`), scene layout generation with embedded vehicle
targets (:mod:`.scene`), a sensor noise model (:mod:`.noise`), the
:class:`~repro.data.cube.HyperspectralCube` container (:mod:`.cube`), the
end-to-end generator (:mod:`.hydice`) and the shared-memory cube used by the
process-parallel backend (:mod:`.shared`).
"""

from .cube import CubeError, HyperspectralCube
from .hydice import HydiceConfig, HydiceGenerator, generate_cube, solar_illumination
from .shared import (OutputPool, SegmentPool, SharedComposite, SharedCompositeHandle,
                     SharedCube, SharedCubeHandle, owned_segment_names,
                     share_cube_params, sweep_owned_segments)
from .noise import NoiseModel, apply_sensor_noise, band_noise_sigma
from .scene import (DEFAULT_MATERIALS, SceneLayout, VehiclePlacement,
                    generate_scene)
from .signatures import (HYDICE_MAX_NM, HYDICE_MIN_NM, SpectralSignature,
                         available_materials, get_signature, signature_matrix)

__all__ = [
    "CubeError",
    "HyperspectralCube",
    "HydiceConfig",
    "HydiceGenerator",
    "generate_cube",
    "solar_illumination",
    "SharedCube",
    "SharedCubeHandle",
    "SharedComposite",
    "SharedCompositeHandle",
    "SegmentPool",
    "OutputPool",
    "share_cube_params",
    "owned_segment_names",
    "sweep_owned_segments",
    "NoiseModel",
    "apply_sensor_noise",
    "band_noise_sigma",
    "DEFAULT_MATERIALS",
    "SceneLayout",
    "VehiclePlacement",
    "generate_scene",
    "HYDICE_MAX_NM",
    "HYDICE_MIN_NM",
    "SpectralSignature",
    "available_materials",
    "get_signature",
    "signature_matrix",
]
