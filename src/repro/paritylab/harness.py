"""Randomized differential-parity fuzzing of the engine x backend matrix.

The hand-enumerated parity tests pin a handful of request shapes; this
harness samples the whole space.  One *case* is a synthetic scene plus a
fusion configuration plus a set of engine/backend *combos*; running a case
fuses the scene once with the sequential reference engine and once per
combo, then diffs every report against the reference:

* ``float64`` (the default compute dtype) composites, PCT bases and
  unique-set sizes must match **bit for bit** -- that is the paper's claim
  and the repo-wide invariant every optimization PR leans on.
* ``float32`` (the documented fast mode) composites are compared through a
  tolerance tier (:data:`FLOAT32_COMPOSITE_ATOL`); unique-set sizes must
  still match exactly because screening is float64-exact under either
  dtype (only the projection runs in float32).
* Report metadata invariants (shape, value range, finiteness, engine
  labels, non-negative timings) are checked on every run, reference
  included.

A failing case is *shrunk* -- scene dimensions and band counts are halved,
combos and knobs dropped, while the failure keeps reproducing -- and the
minimal case is serialised as a schema-versioned JSON repro suitable for
committing into ``tests/parity_corpus/``.  The corpus doubles as a
regression suite: :func:`replay_corpus` re-runs every committed repro and
expects it to be green.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..api.facade import fuse
from ..api.request import FusionReport
from ..config import FusionConfig, PartitionConfig, ScreeningConfig
from ..data.cube import HyperspectralCube
from ..data.hydice import HydiceConfig, HydiceGenerator
from ..data.scene import target_capacity
from ..scp.pool import default_start_method

#: Schema tags stamped into every serialised case / repro (bump on layout
#: changes so old corpus files are rejected loudly, not misread).
CASE_SCHEMA = "repro-fusion/parity-case/v1"
REPRO_SCHEMA = "repro-fusion/parity-repro/v1"

#: Tolerance tier of the float32 fast mode.  The repo's own dtype tests
#: accept |composite - float64 reference| <= 5e-3; engines sharing one
#: dtype sit far inside that, so the differential band can be tighter.
FLOAT32_COMPOSITE_ATOL = 1e-3

#: Shrinker floors: below these the scene stops being a fusion problem
#: (the screening pass needs a few distinct spectra to screen).
MIN_ROWS = 16
MIN_COLS = 16
MIN_BANDS = 8

#: Engines exercised by every sampled case (the sequential engine is the
#: reference and always runs).
FUZZ_ENGINES = ("distributed", "resilient", "pipeline")


# ---------------------------------------------------------------------------
# case model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComboSpec:
    """One engine x backend point of a case, with its per-engine knobs."""

    engine: str
    backend: str
    #: Pipeline engine only: streaming tile size.
    tile_rows: Optional[int] = None
    #: Resilient engine only: replication level override.
    replication: Optional[int] = None

    def request_options(self) -> Dict[str, object]:
        """The FusionRequest keyword arguments this combo adds."""
        options: Dict[str, object] = {}
        if self.tile_rows is not None:
            options["tile_rows"] = self.tile_rows
        if self.replication is not None:
            options["replication"] = self.replication
        return options

    def to_dict(self) -> Dict[str, object]:
        return {"engine": self.engine, "backend": self.backend,
                "tile_rows": self.tile_rows,
                "replication": self.replication}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ComboSpec":
        # Unknown keys are ignored, so parity-case/v1 files written by
        # builds that still had per-combo knobs since removed keep replaying.
        return cls(engine=str(data["engine"]), backend=str(data["backend"]),
                   tile_rows=data.get("tile_rows"),
                   replication=data.get("replication"))


@dataclass(frozen=True)
class ParityCase:
    """A fully-specified differential run: scene + config + combos."""

    bands: int
    rows: int
    cols: int
    scene_seed: int
    vehicles: int = 1
    camouflaged: int = 1
    angle_threshold: float = 0.05
    max_unique: Optional[int] = 512
    workers: int = 2
    subcubes: int = 4
    compute_dtype: str = "float64"
    compute: str = "numpy"
    combos: Tuple[ComboSpec, ...] = ()

    # ------------------------------------------------------------- identity
    def case_id(self) -> str:
        """Stable short id derived from the canonical JSON form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    # ------------------------------------------------------- materialisation
    def cube(self) -> HyperspectralCube:
        config = HydiceConfig(bands=self.bands, rows=self.rows, cols=self.cols,
                              seed=self.scene_seed, vehicles=self.vehicles,
                              camouflaged_vehicles=self.camouflaged)
        return HydiceGenerator(config).generate()

    def config(self) -> FusionConfig:
        return FusionConfig(
            screening=ScreeningConfig(angle_threshold=self.angle_threshold,
                                      max_unique=self.max_unique),
            partition=PartitionConfig(workers=self.workers,
                                      subcubes=self.subcubes),
            compute_dtype=self.compute_dtype,
            compute=self.compute)

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CASE_SCHEMA,
            "scene": {"bands": self.bands, "rows": self.rows,
                      "cols": self.cols, "seed": self.scene_seed,
                      "vehicles": self.vehicles,
                      "camouflaged": self.camouflaged},
            "screening": {"angle_threshold": self.angle_threshold,
                          "max_unique": self.max_unique},
            "partition": {"workers": self.workers, "subcubes": self.subcubes},
            "compute_dtype": self.compute_dtype,
            "compute": self.compute,
            "combos": [combo.to_dict() for combo in self.combos],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ParityCase":
        schema = data.get("schema")
        if schema != CASE_SCHEMA:
            raise ValueError(f"unsupported parity-case schema {schema!r} "
                             f"(this build reads {CASE_SCHEMA!r})")
        scene = data["scene"]
        screening = data["screening"]
        partition = data["partition"]
        return cls(bands=int(scene["bands"]), rows=int(scene["rows"]),
                   cols=int(scene["cols"]), scene_seed=int(scene["seed"]),
                   vehicles=int(scene.get("vehicles", 1)),
                   camouflaged=int(scene.get("camouflaged", 1)),
                   angle_threshold=float(screening["angle_threshold"]),
                   max_unique=screening.get("max_unique"),
                   workers=int(partition["workers"]),
                   subcubes=int(partition["subcubes"]),
                   compute_dtype=str(data.get("compute_dtype", "float64")),
                   compute=str(data.get("compute", "numpy")),
                   combos=tuple(ComboSpec.from_dict(c)
                                for c in data.get("combos", [])))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sample_backend(rng: random.Random) -> str:
    """Weighted backend choice: threads dominate, real processes appear.

    The sim/local backends run a combo in milliseconds, so they carry the
    bulk of the sampling; the process backend is the expensive-but-real
    point and is sampled often enough that every fuzz run crosses it.
    """
    roll = rng.random()
    if roll < 0.40:
        return "sim"
    if roll < 0.85:
        return "local"
    return "process"


def sample_case(rng: random.Random) -> ParityCase:
    """Draw one case from the seeded generator.

    Every case covers all four engines: the sequential reference plus one
    sampled backend (and knob set) per non-sequential engine, so a fuzz
    session of N cases runs 4N engine executions.
    """
    workers = rng.choice([1, 2, 3])
    combos: List[ComboSpec] = []
    for engine in FUZZ_ENGINES:
        backend = _sample_backend(rng)
        tile_rows = None
        replication: Optional[int] = None
        if engine == "pipeline":
            tile_rows = rng.choice([None, 1, 2, 5, 9, 16])
        elif engine == "resilient":
            replication = rng.choice([None, 2])
        combos.append(ComboSpec(engine=engine, backend=backend,
                                tile_rows=tile_rows, replication=replication))
    rows = rng.choice([16, 24, 32, 40, 48])
    cols = rng.choice([16, 24, 32, 40, 48])
    # Any sampled size can host targets now -- the scene generator has a
    # deterministic placement fallback and a published capacity bound.
    capacity = target_capacity(rows, cols)
    vehicles = min(int(rng.choice([1, 2])), capacity)
    camouflaged = min(int(rng.choice([0, 1])), capacity - vehicles)
    return ParityCase(
        bands=rng.choice([8, 12, 16, 24, 32]),
        rows=rows,
        cols=cols,
        scene_seed=rng.randrange(1_000_000),
        vehicles=vehicles,
        camouflaged=camouflaged,
        angle_threshold=rng.choice([0.02, 0.05, 0.08, 0.12]),
        max_unique=rng.choice([128, 256, 512]),
        workers=workers,
        subcubes=workers * rng.choice([1, 2, 3]),
        compute_dtype="float64" if rng.random() < 0.7 else "float32",
        combos=tuple(combos))


# ---------------------------------------------------------------------------
# differential execution
# ---------------------------------------------------------------------------

@dataclass
class ParityViolation:
    """One observed divergence between a combo and the reference."""

    engine: str
    backend: str
    kind: str
    detail: str
    max_abs_diff: Optional[float] = None

    def describe(self) -> str:
        diff = (f" (max |diff| {self.max_abs_diff:.3e})"
                if self.max_abs_diff is not None else "")
        return f"[{self.engine}/{self.backend}] {self.kind}: {self.detail}{diff}"

    def to_dict(self) -> Dict[str, object]:
        return {"engine": self.engine, "backend": self.backend,
                "kind": self.kind, "detail": self.detail,
                "max_abs_diff": self.max_abs_diff}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ParityViolation":
        return cls(engine=str(data["engine"]), backend=str(data["backend"]),
                   kind=str(data["kind"]), detail=str(data["detail"]),
                   max_abs_diff=data.get("max_abs_diff"))


@dataclass
class CaseOutcome:
    """Everything one differential run of a case produced."""

    case: ParityCase
    violations: List[ParityViolation] = field(default_factory=list)
    combos_run: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _backend_spec(backend: str) -> str:
    """Pin bare ``process`` to the platform's cheap start method."""
    if backend == "process":
        return f"process:{default_start_method()}"
    return backend


def _check_invariants(report: FusionReport, case: ParityCase,
                      combo_label: Tuple[str, str]) -> List[ParityViolation]:
    """Metadata invariants every FusionReport must satisfy."""
    engine, backend = combo_label
    violations: List[ParityViolation] = []

    def bad(kind: str, detail: str, diff: Optional[float] = None) -> None:
        violations.append(ParityViolation(engine=engine, backend=backend,
                                          kind=kind, detail=detail,
                                          max_abs_diff=diff))

    composite = report.composite
    expected_shape = (case.rows, case.cols, 3)
    if composite.shape != expected_shape:
        bad("shape", f"composite shape {composite.shape} != {expected_shape}")
        return violations
    if not np.all(np.isfinite(composite)):
        bad("finite", "composite contains non-finite values")
    elif composite.min() < 0.0 or composite.max() > 1.0:
        bad("range", f"composite outside [0, 1]: "
                     f"[{composite.min():.4f}, {composite.max():.4f}]")
    if report.unique_set_size < 1:
        bad("unique-set", f"unique_set_size {report.unique_set_size} < 1")
    if report.engine != engine:
        bad("label", f"report.engine {report.engine!r} != requested {engine!r}")
    if report.elapsed_seconds < 0:
        bad("timing", f"negative elapsed_seconds {report.elapsed_seconds}")
    if any(t.seconds < 0 for t in report.stage_timings.values()):
        bad("timing", "negative stage timing recorded")
    return violations


def _diff_reports(reference: FusionReport, report: FusionReport,
                  case: ParityCase, combo: ComboSpec) -> List[ParityViolation]:
    """Diff a combo's report against the sequential reference report."""
    violations: List[ParityViolation] = []

    def bad(kind: str, detail: str, diff: Optional[float] = None) -> None:
        violations.append(ParityViolation(engine=combo.engine,
                                          backend=combo.backend, kind=kind,
                                          detail=detail, max_abs_diff=diff))

    if report.unique_set_size != reference.unique_set_size:
        bad("unique-set", f"unique_set_size {report.unique_set_size} != "
                          f"reference {reference.unique_set_size}")
    if report.composite.shape != reference.composite.shape:
        bad("shape", f"composite shape {report.composite.shape} != "
                     f"reference {reference.composite.shape}")
        return violations

    diff = np.abs(np.asarray(report.composite, dtype=np.float64)
                  - np.asarray(reference.composite, dtype=np.float64))
    max_diff = float(diff.max()) if diff.size else 0.0
    if case.compute_dtype == "float64":
        if not np.array_equal(report.composite, reference.composite):
            bad("composite", "float64 composite not bit-identical to the "
                             "sequential reference", max_diff)
        if not np.array_equal(report.result.basis.components,
                              reference.result.basis.components):
            bad("basis", "float64 PCT basis not bit-identical to the "
                         "sequential reference")
    else:
        if max_diff > FLOAT32_COMPOSITE_ATOL:
            bad("composite", f"float32 composite outside the tolerance tier "
                             f"(atol {FLOAT32_COMPOSITE_ATOL})", max_diff)
    return violations


def run_case(case: ParityCase) -> CaseOutcome:
    """Run the full differential: reference + every combo, diff everything.

    A combo that *raises* is recorded as an ``error`` violation rather than
    aborting the fuzz session -- a crash on a sampled configuration is
    exactly the kind of finding the harness exists to surface.
    """
    start = time.perf_counter()
    outcome = CaseOutcome(case=case)
    cube = case.cube()
    config = case.config()

    reference = fuse(cube, engine="sequential", config=config)
    outcome.combos_run += 1
    outcome.violations.extend(
        _check_invariants(reference, case, ("sequential", "inline")))

    for combo in case.combos:
        try:
            report = fuse(cube, engine=combo.engine,
                          backend=_backend_spec(combo.backend), config=config,
                          **combo.request_options())
        except Exception as exc:  # noqa: BLE001 - fuzz findings, not bugs here
            outcome.violations.append(ParityViolation(
                engine=combo.engine, backend=combo.backend, kind="error",
                detail=f"{type(exc).__name__}: {exc}"))
            continue
        outcome.combos_run += 1
        outcome.violations.extend(
            _check_invariants(report, case, (combo.engine, combo.backend)))
        outcome.violations.extend(_diff_reports(reference, report, case, combo))

    outcome.seconds = time.perf_counter() - start
    return outcome


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def _fit_targets(case: ParityCase) -> ParityCase:
    """Refit the target counts to a shrunken scene's placement capacity."""
    capacity = target_capacity(case.rows, case.cols)
    vehicles = min(case.vehicles, capacity)
    camouflaged = min(case.camouflaged, capacity - vehicles)
    if (vehicles, camouflaged) == (case.vehicles, case.camouflaged):
        return case
    return replace(case, vehicles=vehicles, camouflaged=camouflaged)


def _shrink_candidates(case: ParityCase) -> Iterator[ParityCase]:
    """Strictly-smaller variants of ``case``, most aggressive first."""
    if case.rows > MIN_ROWS:
        yield _fit_targets(
            replace(case, rows=max(MIN_ROWS, case.rows // 2)))
    if case.cols > MIN_COLS:
        yield _fit_targets(
            replace(case, cols=max(MIN_COLS, case.cols // 2)))
    if case.bands > MIN_BANDS:
        yield replace(case, bands=max(MIN_BANDS, case.bands // 2))
    if len(case.combos) > 1:
        for combo in case.combos:
            yield replace(case, combos=(combo,))
    if case.subcubes > case.workers:
        yield replace(case, subcubes=case.workers)
    if case.workers > 1:
        new_workers = max(1, case.workers // 2)
        yield replace(case, workers=new_workers,
                      subcubes=max(new_workers,
                                   min(case.subcubes, new_workers * 2)))
    if case.vehicles > 1 or case.camouflaged > 0:
        yield replace(case, vehicles=1, camouflaged=0)
    if case.vehicles > 0:
        yield replace(case, vehicles=0, camouflaged=0)
    # Knob simplification: a repro that fires without the optional knobs is
    # a strictly better repro.
    simplified = tuple(replace(combo, tile_rows=None, replication=None)
                       for combo in case.combos)
    if simplified != case.combos:
        yield replace(case, combos=simplified)


def shrink_case(case: ParityCase,
                is_failing: Optional[Callable[[ParityCase], bool]] = None,
                *, max_attempts: int = 64) -> Tuple[ParityCase, int]:
    """Greedy shrink: keep any smaller variant that still fails.

    ``is_failing`` defaults to re-running the case through the full
    differential; tests inject cheaper predicates.  Returns the minimal
    failing case and the number of candidate evaluations spent.
    """
    if is_failing is None:
        is_failing = lambda candidate: not run_case(candidate).ok  # noqa: E731
    attempts = 0
    current = case
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _shrink_candidates(current):
            if candidate == current:
                continue
            attempts += 1
            if is_failing(candidate):
                current = candidate
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return current, attempts


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def save_repro(outcome: CaseOutcome, directory: Path, *,
               original: Optional[ParityCase] = None,
               note: str = "") -> Path:
    """Serialise a (shrunk) failing case as a corpus repro file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": REPRO_SCHEMA,
        "case": outcome.case.to_dict(),
        "violations": [v.to_dict() for v in outcome.violations],
        "original_case": original.to_dict() if original is not None else None,
        "note": note,
    }
    path = directory / f"repro-{outcome.case.case_id()}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_repro(path: Path) -> Tuple[ParityCase, List[ParityViolation], str]:
    """Read one corpus repro: (case, recorded violations, note)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != REPRO_SCHEMA:
        raise ValueError(f"unsupported parity-repro schema {schema!r} in "
                         f"{path} (this build reads {REPRO_SCHEMA!r})")
    case = ParityCase.from_dict(data["case"])
    violations = [ParityViolation.from_dict(v)
                  for v in data.get("violations", [])]
    return case, violations, str(data.get("note", ""))


@dataclass
class ReplayEntry:
    """One corpus file replayed through the current build."""

    path: Path
    outcome: CaseOutcome
    note: str = ""


def replay_corpus(directory: Path) -> List[ReplayEntry]:
    """Re-run every committed repro; all of them must be green now.

    The corpus holds *fixed* failures (and sentinel coverage cases), so a
    replay that reproduces a violation means a regression re-opened it.
    """
    entries: List[ReplayEntry] = []
    for path in sorted(Path(directory).glob("repro-*.json")):
        case, _, note = load_repro(path)
        entries.append(ReplayEntry(path=path, outcome=run_case(case),
                                   note=note))
    return entries


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------

@dataclass
class FuzzResult:
    """Aggregate of one fuzz session."""

    seed: int
    cases_run: int = 0
    combos_run: int = 0
    engine_runs: Dict[str, int] = field(default_factory=dict)
    failures: List[CaseOutcome] = field(default_factory=list)
    repro_paths: List[Path] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        engines = ", ".join(f"{name} x{count}" for name, count
                            in sorted(self.engine_runs.items()))
        lines = [
            f"fuzz seed {self.seed}: {self.cases_run} sampled configs, "
            f"{self.combos_run} engine runs in {self.seconds:.1f}s",
            f"  engine coverage : {engines or 'none'}",
            f"  parity failures : {len(self.failures)}",
        ]
        for outcome in self.failures:
            lines.append(f"    case {outcome.case.case_id()}:")
            for violation in outcome.violations:
                lines.append(f"      {violation.describe()}")
        for path in self.repro_paths:
            lines.append(f"  wrote repro {path}")
        return "\n".join(lines)


def fuzz(*, seconds: float = 30.0, seed: int = 0,
         corpus_dir: Optional[Path] = None,
         max_cases: Optional[int] = None,
         shrink: bool = True,
         sampler: Callable[[random.Random], ParityCase] = sample_case,
         runner: Callable[[ParityCase], CaseOutcome] = run_case) -> FuzzResult:
    """Time-boxed fuzz session: sample, run, shrink and record failures.

    The time budget bounds *starting* new cases; an in-flight case always
    completes, so the wall clock can slightly overshoot ``seconds``.
    Failures are shrunk (when ``shrink``) and serialised into
    ``corpus_dir`` in the committed repro format.
    """
    rng = random.Random(seed)
    result = FuzzResult(seed=seed)
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        if max_cases is not None and result.cases_run >= max_cases:
            break
        case = sampler(rng)
        outcome = runner(case)
        result.cases_run += 1
        result.combos_run += outcome.combos_run
        result.engine_runs["sequential"] = (
            result.engine_runs.get("sequential", 0) + 1)
        for combo in case.combos:
            result.engine_runs[combo.engine] = (
                result.engine_runs.get(combo.engine, 0) + 1)
        if outcome.ok:
            continue
        original = case
        if shrink:
            minimal, _ = shrink_case(
                case, lambda candidate: not runner(candidate).ok)
            outcome = runner(minimal)
            if outcome.ok:  # flaky failure: keep the original evidence
                outcome = runner(original)
                minimal = original
            if outcome.ok:
                continue
        result.failures.append(outcome)
        if corpus_dir is not None:
            result.repro_paths.append(save_repro(
                outcome, Path(corpus_dir), original=original,
                note="recorded by repro-fusion fuzz"))
    result.seconds = time.perf_counter() - started
    return result


__all__ = [
    "CASE_SCHEMA",
    "REPRO_SCHEMA",
    "FLOAT32_COMPOSITE_ATOL",
    "ComboSpec",
    "ParityCase",
    "ParityViolation",
    "CaseOutcome",
    "ReplayEntry",
    "FuzzResult",
    "sample_case",
    "run_case",
    "shrink_case",
    "save_repro",
    "load_repro",
    "replay_corpus",
    "fuzz",
]
