"""Compute-backend registry: named kernel tiers behind one protocol.

A *compute backend* decides how the three hot numeric kernels of the fusion
pipeline are executed -- the fused centre+SYRK covariance partial, the fused
centre/project/stretch of the step-7 tiles, and the screening
survivor-elimination inner pass.  It is the arithmetic analogue of the
engine/backend registries: engines decide *where* work runs, the compute
policy decides *which kernel implementation* runs it, and both travel as
plain strings so forked and socket-transport workers re-resolve the kernel
by name instead of unpickling functions.

Backends are registered by name with :func:`register_compute` and looked up
with :func:`get_compute`.  ``numpy`` is the one registered tier; the
registry stays open, so another tier is one decorated class, exactly like
adding an engine.

Contract
--------
Every backend produces *bit-identical* float64 results to the ``numpy``
reference backend (the same invariant the engines hold against the
sequential reference); float32 is the documented tolerance tier.  The
kernel-tier property suite asserts this, and the contract is what lets the
compute policy compose freely with every engine, transport and scenario --
it can change throughput, never bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type, TypeVar

import numpy as np

from ...registry import Registry

_COMPUTE_BACKENDS: Registry[Type["ComputeBackend"]] = Registry("compute backend")
_INSTANCES: Dict[str, "ComputeBackend"] = {}

#: The decorated backend class passes through :func:`register_compute` unchanged.
_BackendClass = TypeVar("_BackendClass", bound=Type["ComputeBackend"])


class ComputeBackend:
    """Base class of the registered kernel tiers.

    Subclasses implement the three hot kernels (plus the matrix-level
    ``project`` they share); the base class holds the registered ``name``
    (filled in by :func:`register_compute`).
    """

    name: str = "?"

    # -- the kernel surface; subclasses override ---------------------------
    def covariance_sum(self, pixels: np.ndarray, mean: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, pixels: np.ndarray, basis, *, compute_dtype=np.float64,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def project_block(self, block: np.ndarray, basis, *,
                      compute_dtype=np.float64) -> np.ndarray:
        raise NotImplementedError

    def project_and_map(self, block: np.ndarray, basis, *, n_components: int,
                        normalize: bool, stretch_mean: np.ndarray,
                        stretch_std: np.ndarray, compute_dtype=np.float64,
                        components_out: Optional[np.ndarray] = None,
                        composite_out: Optional[np.ndarray] = None):
        raise NotImplementedError

    def eliminate_survivors(self, survivors: np.ndarray,
                            survivor_rows: np.ndarray, cos_threshold,
                            *, room: Optional[int] = None):
        raise NotImplementedError


def register_compute(name: str) -> Callable[[_BackendClass], _BackendClass]:
    """Class decorator registering a :class:`ComputeBackend` under ``name``."""
    def decorator(cls: _BackendClass) -> _BackendClass:
        _COMPUTE_BACKENDS.add(name, cls)
        cls.name = name
        return cls
    return decorator


def compute_names() -> List[str]:
    """Sorted names of every registered compute backend."""
    return _COMPUTE_BACKENDS.names()


def get_compute(name: str) -> ComputeBackend:
    """The backend registered under ``name``.

    Raises a :class:`ValueError` listing the registered names when ``name``
    is unknown, so a typo in ``repro.fuse(cube, compute="...")`` is a
    one-line fix.  Instances are cached: backends are stateless (scratch
    buffers are thread-local) and resolution happens on every worker task.
    """
    cls = _COMPUTE_BACKENDS.get(name)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


__all__ = ["ComputeBackend", "register_compute", "compute_names",
           "get_compute"]
