"""Run-wide configuration objects.

Every top-level entry point of the library (the sequential pipeline, the
distributed manager/worker run, and the resilient run) is parameterised by a
small set of frozen dataclasses defined here.  Keeping configuration in plain
dataclasses (rather than ad-hoc keyword arguments threaded through many call
sites) gives three things:

* a single place where defaults corresponding to the paper's experimental
  setup live (``PaperSetup``),
* cheap validation with actionable error messages, and
* hashable/immutable values that are safe to share between simulated threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class ConfigurationError(ValueError):
    """Raised when a configuration object is internally inconsistent."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ScreeningConfig:
    """Parameters of spectral-angle screening (algorithm steps 1-2).

    Attributes
    ----------
    angle_threshold:
        Minimum spectral angle (radians) between a candidate pixel vector and
        every current member of the unique set for the candidate to be added.
        The paper screens with the arccosine of the normalised dot product.
        The default of 0.05 rad sits above the sensor-noise angle of the
        synthetic HYDICE scenes (so noise does not inflate the unique set)
        but below the separation of the scene's material variants, yielding
        unique sets of a few hundred vectors -- enough for the screening pass
        to be a major share of the distributed compute, as it is in the
        paper's measurements, while rare target signatures are always
        retained.
    max_unique:
        Safety cap on the unique-set size.  ``None`` disables the cap.
    sample_stride:
        Optional spatial sub-sampling applied before screening.  ``1`` means
        every pixel participates, as in the paper.
    rescreen_merge:
        Whether the manager re-screens the concatenated per-worker unique
        sets (step 2) instead of taking their plain union.  The union keeps
        step 2 negligible, matching the paper's claim that the
        eigen-decomposition dominates the sequential time; re-screening is
        available for the merge ablation.
    """

    angle_threshold: float = 0.05
    max_unique: Optional[int] = 4096
    sample_stride: int = 1
    rescreen_merge: bool = False

    def __post_init__(self) -> None:
        _require(0.0 < self.angle_threshold < math.pi / 2,
                 f"angle_threshold must be in (0, pi/2), got {self.angle_threshold}")
        _require(self.max_unique is None or self.max_unique >= 1,
                 "max_unique must be None or >= 1")
        _require(self.sample_stride >= 1, "sample_stride must be >= 1")


@dataclass(frozen=True)
class ColorMapConfig:
    """Parameters of the human-centred colour mapping (algorithm step 8)."""

    #: Whether to stretch each opponency channel to +-128 before mixing.
    normalize_components: bool = True


@dataclass(frozen=True)
class PartitionConfig:
    """Sub-cube decomposition / granularity control (Section 4, Figure 5)."""

    #: Number of worker threads P.
    workers: int = 4
    #: Number of sub-cubes the image cube is split into.  The paper explores
    #: ``workers``, ``2 * workers`` and ``3 * workers``; ``None`` means equal
    #: to ``workers``.
    subcubes: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.workers >= 1, "workers must be >= 1")
        _require(self.subcubes is None or self.subcubes >= self.workers,
                 "subcubes must be None or >= workers")

    @property
    def effective_subcubes(self) -> int:
        return self.subcubes if self.subcubes is not None else self.workers


@dataclass(frozen=True)
class ResilienceConfig:
    """Computational-resiliency parameters (Section 2)."""

    #: Replication level for mission-critical (worker) threads.  Level 1 means
    #: no shadow copies; the paper's experiment uses level 2.
    replication_level: int = 2
    #: Heartbeat period used by the failure detector, in (virtual) seconds.
    heartbeat_period: float = 0.25
    #: Number of missed heartbeats before a replica is declared failed.
    heartbeat_misses: int = 3
    #: Whether lost replicas are regenerated on alternative nodes (resiliency)
    #: or merely tolerated (static replication baseline).
    regenerate: bool = True
    #: Fractional protocol overhead charged per replicated message exchange
    #: (sequence numbering, acknowledgements, duplicate suppression).  The
    #: paper measures roughly 10% overall overhead beyond replication cost.
    protocol_overhead: float = 0.10
    #: Whether replica computations are actually re-executed (True, validates
    #: determinism) or cloned from the primary while still being charged
    #: virtual time (False, faster benchmarks).
    execute_replicas: bool = True

    def __post_init__(self) -> None:
        _require(self.replication_level >= 1, "replication_level must be >= 1")
        _require(self.heartbeat_period > 0, "heartbeat_period must be positive")
        _require(self.heartbeat_misses >= 1, "heartbeat_misses must be >= 1")
        _require(0.0 <= self.protocol_overhead < 1.0,
                 "protocol_overhead must be in [0, 1)")


#: Compute dtypes the numeric kernels accept (the compute-dtype policy).
COMPUTE_DTYPES = ("float64", "float32")

#: Compute backends of the hot kernels (the ``compute=`` policy); ``numpy``,
#: the reference, is the one tier.
_COMPUTE_BACKENDS = ("numpy",)


def compute_names() -> List[str]:
    """Names of the compute backends ``compute=`` accepts."""
    return list(_COMPUTE_BACKENDS)


def require_compute(compute: str) -> None:
    """Raise a :class:`ValueError` naming the compute backends unless
    ``compute`` is one of them."""
    if compute not in _COMPUTE_BACKENDS:
        raise ValueError(f"unknown compute backend {compute!r}; registered "
                         f"compute backends: {', '.join(_COMPUTE_BACKENDS)}")


@dataclass(frozen=True)
class FusionConfig:
    """Top-level configuration for a spectral-screening PCT run."""

    screening: ScreeningConfig = field(default_factory=ScreeningConfig)
    colormap: ColorMapConfig = field(default_factory=ColorMapConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    resilience: Optional[ResilienceConfig] = None
    #: Random seed controlling any stochastic component (data generation,
    #: placement tie-breaking, attack schedules).
    seed: int = 0
    #: Arithmetic precision of the stage-3/step-7 projection.  ``"float64"``
    #: (default) reproduces the seed arithmetic bit for bit; ``"float32"``
    #: is the documented fast mode -- about half the projection's memory
    #: traffic, composites matching to single precision only.  Screening is
    #: float64-exact under both (certified in float32, refined in float64).
    compute_dtype: str = "float64"
    #: Compute backend of the hot kernels (:func:`compute_names`):
    #: ``"numpy"`` (default, the reference) is the one tier.  Orthogonal to
    #: ``compute_dtype``: the backend picks *how* the arithmetic runs, the
    #: dtype picks its precision.
    compute: str = "numpy"

    def __post_init__(self) -> None:
        _require(self.compute_dtype in COMPUTE_DTYPES,
                 f"compute_dtype must be one of {COMPUTE_DTYPES}, "
                 f"got {self.compute_dtype!r}")
        _require(self.compute in _COMPUTE_BACKENDS,
                 f"compute must be one of {_COMPUTE_BACKENDS}, "
                 f"got {self.compute!r}")

    def with_resilience(self, resilience: Optional[ResilienceConfig]) -> "FusionConfig":
        return dataclasses.replace(self, resilience=resilience)


@dataclass(frozen=True)
class PaperSetup:
    """Constants describing the paper's experimental setup (Section 4).

    These are used by the benchmark harness and the cluster presets so the
    regenerated figures are driven by the same nominal parameters the paper
    reports, even when the synthetic data cube is scaled down.
    """

    #: The initial cube size used in the granularity experiment.
    cube_shape: Tuple[int, int, int] = (105, 320, 320)  # (bands, rows, cols)
    #: The full HYDICE collection has 210 spectral channels.
    full_bands: int = 210
    #: Worker counts swept in Figure 4.
    figure4_processors: Tuple[int, ...] = (1, 2, 4, 8, 16)
    #: Worker counts swept in Figure 5.
    figure5_processors: Tuple[int, ...] = (2, 4, 8, 16)
    #: Granularity multipliers swept in Figure 5.
    figure5_multipliers: Tuple[int, ...] = (1, 2, 3)
    #: Replication level used in the resiliency experiment.
    resiliency_level: int = 2
    #: The point past which performance "tailed off" in the paper.
    tail_off_subcubes: int = 32
    #: Number of workstations available on the testbed.
    max_processors: int = 16


PAPER_SETUP = PaperSetup()

__all__ = [
    "ConfigurationError",
    "COMPUTE_DTYPES",
    "ScreeningConfig",
    "ColorMapConfig",
    "PartitionConfig",
    "ResilienceConfig",
    "FusionConfig",
    "PaperSetup",
    "PAPER_SETUP",
]
