"""Continuous correctness instrumentation.

``paritylab`` is the repo's standing answer to a question that every
optimization PR otherwise re-answers by hand: **is the engine matrix still
differentially correct?**  The paper's claim is that distribution changes
*how* the fusion runs, never *what* it produces.
:mod:`repro.paritylab.harness` fuzzes that claim: it samples scenes and
:class:`~repro.api.request.FusionRequest` shapes from a seeded generator,
runs every applicable engine x backend combination through
:func:`repro.fuse`, diffs the composites (bit-for-bit for float64,
tolerance-tiered for float32), shrinks any failure to a minimal scene and
serialises it as a JSON repro into the parity corpus.

It is wired into the CLI (``repro-fusion fuzz``) and into CI (the
fuzz-smoke job: corpus replay + fresh sampling).  Performance is gated
elsewhere, by ``BENCHMARK.json`` and ``python benchmarks/e2e/run.py compare``.
"""

from .harness import (CaseOutcome, ComboSpec, FuzzResult, ParityCase,
                      ParityViolation, ReplayEntry, fuzz, load_repro,
                      replay_corpus, run_case, sample_case, save_repro,
                      shrink_case)

__all__ = [
    "CaseOutcome",
    "ComboSpec",
    "FuzzResult",
    "ParityCase",
    "ParityViolation",
    "ReplayEntry",
    "fuzz",
    "load_repro",
    "replay_corpus",
    "run_case",
    "sample_case",
    "save_repro",
    "shrink_case",
]
