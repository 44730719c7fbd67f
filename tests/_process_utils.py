"""Shared helpers for the process-backend and pipeline test modules.

Kept in a plain module (the same idiom as ``benchmarks/_bench_utils.py``) so
both test files and any future process tests share one definition of the
"fast" backend configuration: ``fork`` where the platform offers it -- an
order of magnitude quicker to start than ``spawn`` -- with a generous but
bounded safety timeout.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List

from repro.core.pipeline import FusionResult
from repro.core.streaming import _copy_out, run_pipeline
from repro.data.shared import SharedComposite
from repro.experiments.measured import default_start_method
from repro.scp.process_backend import ProcessBackend

FAST_START = default_start_method()


def fast_backend(**kwargs) -> ProcessBackend:
    kwargs.setdefault("start_method", FAST_START)
    kwargs.setdefault("default_timeout", 120.0)
    return ProcessBackend(**kwargs)


#: /dev/shm residue prefixes the leak checks scan for (matches CI's check).
RESIDUE_PREFIXES = ("psm_", "wnsm_", "scp-stages-")


def shm_residue() -> List[str]:
    """Shared-memory segments and spool directories currently in /dev/shm."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return [n for n in names if n.startswith(RESIDUE_PREFIXES)]


def run_pipeline_copied(cube, config, executor, **options) -> FusionResult:
    """``run_pipeline`` driven the way a request runs it: borrow an output
    placement, run the split stages into it, copy the pixels out."""
    n_components = options.get("n_components", 3)
    with SharedComposite.create(cube.rows, cube.cols, n_components) as placement:
        result = run_pipeline(cube, config, executor, placement.handle(),
                              **options)
        components, composite = _copy_out(placement)
    return replace(result, components=components, composite=composite)
