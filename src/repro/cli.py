"""Command-line front end.

``repro-fusion`` (installed by the package) or ``python -m repro.cli`` exposes
the registered fusion engines and the synthetic data generator without
writing any Python::

    repro-fusion generate --bands 64 --rows 96 --cols 96 --out scene.npz
    repro-fusion fuse scene.npz --engine sequential --out composite.npz
    repro-fusion fuse scene.npz --engine resilient --workers 8 --attack worker.2
    repro-fusion fuse scene.npz --engine distributed --backend process:4
    repro-fusion sweep --workers 1 2 4 8 --scale 0.25

Every command is a thin layer over :func:`repro.fuse`: engine and backend
names come straight from their tables (:mod:`repro.api.engines`,
:mod:`repro.scp.registry`), so a new table entry is usable here without
touching this module.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .analysis.quality import enhancement_report
from .analysis.report import dict_table
from .api.engines import engine_names
from .api.facade import fuse as api_fuse
from .config import (COMPUTE_DTYPES, FusionConfig, PartitionConfig,
                     ResilienceConfig, ScreeningConfig)
from .core.kernels import compute_names
from .data.cube import HyperspectralCube
from .data.hydice import HydiceConfig, HydiceGenerator
from .logging_utils import configure_basic_logging
from .resilience.attack import AttackScenario
from .scp.registry import BackendSpec, backend_names


def _positive_int(text: str) -> int:
    """Argparse type for knobs that must be >= 1 (rejects ``--tile-rows 0``
    at parse time with a usage error instead of a traceback later)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for strictly-positive float knobs (thresholds, scales)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fusion",
        description="Resilient spectral-screening PCT image fusion (ICPP 2000 reproduction)")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("generate", help="generate a synthetic HYDICE-like cube")
    gen.add_argument("--bands", type=_positive_int, default=105)
    gen.add_argument("--rows", type=_positive_int, default=128)
    gen.add_argument("--cols", type=_positive_int, default=128)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--vehicles", type=int, default=3)
    gen.add_argument("--camouflaged", type=int, default=1)
    gen.add_argument("--out", required=True, help="output .npz path")

    fuse = subparsers.add_parser("fuse", help="fuse a cube into a colour composite")
    fuse.add_argument("cube", help="input .npz cube (from the generate command)")
    fuse.add_argument("--engine", choices=engine_names(), default="sequential",
                      help="fusion engine")
    fuse.add_argument("--backend", default=None, metavar="SPEC",
                      help="backend spec for backend-using engines (default: "
                           "the engine's own, sim for distributed and "
                           "resilient, process for pipeline), e.g. "
                           f"{', '.join(backend_names())}; parameterised forms "
                           "such as 'process:fork', 'sim:switched' or "
                           "'socket:4' (pipeline engine: workers behind a "
                           "TCP node agent) are accepted")
    fuse.add_argument("--workers", type=_positive_int, default=None,
                      help="worker threads (default 4; a spec hint like "
                           "'process:8' applies when this flag is omitted)")
    fuse.add_argument("--subcubes", type=_positive_int, default=None)
    fuse.add_argument("--tile-rows", type=_positive_int, default=None,
                      help="rows per streaming tile (pipeline engine only; "
                           "default ~2 tiles per worker)")
    fuse.add_argument("--angle-threshold", type=_positive_float, default=None,
                      help="spectral-angle screening threshold in radians "
                           "(default 0.05; must be in (0, pi/2))")
    fuse.add_argument("--replication", type=_positive_int, default=2)
    fuse.add_argument("--attack", default=None,
                      help="logical worker to attack mid-run (resilient engine only)")
    fuse.add_argument("--compute-dtype", choices=list(COMPUTE_DTYPES), default=None,
                      help="arithmetic precision of the projection kernel "
                           "(screening is float64-exact under both); float64 "
                           "(default) is bit-identical to the reference")
    fuse.add_argument("--compute", choices=compute_names(), default=None,
                      help="compute backend of the hot kernels; numpy "
                           "(default) is the reference and the one tier")
    fuse.add_argument("--profile", action="store_true",
                      help="print the per-stage profile (seconds, rows/s, "
                           "effective GFLOP/s) after the fusion summary")
    fuse.add_argument("--out", default=None, help="optional output .npz for the composite")

    sweep = subparsers.add_parser("sweep", help="run a small speed-up sweep (Figure 4 style)")
    sweep.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    sweep.add_argument("--backend", default="sim", metavar="SPEC",
                       help="'sim' sweeps virtual time on the modelled cluster; "
                            "'process' measures real wall-clock speed-up against "
                            "the sequential reference")
    sweep.add_argument("--scale", type=float, default=0.25,
                       help="spatial scale of the paper's 320x320 cube")
    sweep.add_argument("--bands", type=int, default=105)
    sweep.add_argument("--seed", type=int, default=0)

    figure4 = subparsers.add_parser(
        "figure4", help="regenerate the paper's Figure 4 (speed-up with/without resiliency)")
    figure4.add_argument("--scale", type=float, default=0.25,
                         help="spatial scale of the paper's 320x320 cube")
    figure4.add_argument("--bands", type=int, default=210)
    figure4.add_argument("--subcubes", type=int, default=32)
    figure4.add_argument("--processors", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    figure4.add_argument("--seed", type=int, default=0)

    figure5 = subparsers.add_parser(
        "figure5", help="regenerate the paper's Figure 5 (granularity control)")
    figure5.add_argument("--scale", type=float, default=0.25)
    figure5.add_argument("--bands", type=int, default=105)
    figure5.add_argument("--processors", type=int, nargs="+", default=[2, 4, 8, 16])
    figure5.add_argument("--multipliers", type=int, nargs="+", default=[1, 2, 3])
    figure5.add_argument("--no-tail-off", action="store_true",
                         help="skip the tail-off sweep at 16 workers")
    figure5.add_argument("--seed", type=int, default=0)

    fuzz = subparsers.add_parser(
        "fuzz", help="randomized differential-parity fuzzing of the "
                     "engine x backend matrix")
    fuzz.add_argument("--seconds", type=float, default=30.0,
                      help="time budget for sampling fresh cases (default 30)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="seed of the case generator (a failing seed is a "
                           "complete repro recipe)")
    fuzz.add_argument("--max-cases", type=int, default=None,
                      help="optional hard cap on sampled cases")
    fuzz.add_argument("--corpus", default="tests/parity_corpus",
                      help="parity corpus directory (replayed with --replay; "
                           "default tests/parity_corpus)")
    fuzz.add_argument("--failures-dir", default=".fuzz-failures",
                      help="where new failure repros are written (default "
                           ".fuzz-failures, git-ignored: a red fuzz never "
                           "dirties the tracked corpus; promote a repro "
                           "into --corpus by hand)")
    fuzz.add_argument("--replay", action="store_true",
                      help="replay the committed corpus instead of fuzzing "
                           "fresh cases")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="record failures without shrinking them first")

    lint = subparsers.add_parser(
        "lint", help="concurrency/shared-memory invariant checker "
                     "(AST rules RPL001-RPL006)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="finding output format (default text)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print findings silenced by "
                           "'# repro: allow[RPLxxx]' directives")
    lint.add_argument("--fail-dead-suppressions", action="store_true",
                      help="exit non-zero when a suppression no longer "
                           "silences anything (prune gate)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rule table and exit")

    simulate = subparsers.add_parser(
        "simulate", help="replay a named traffic/chaos scenario against an "
                         "engine x backend pair")
    simulate.add_argument("scenario", nargs="?", default=None,
                          help="registered scenario name "
                               "(--list shows the library)")
    simulate.add_argument("--list", action="store_true",
                          help="print the registered scenarios and exit")
    simulate.add_argument("--engine", default="pipeline",
                          choices=engine_names(),
                          help="fusion engine the trace is replayed against "
                               "(default pipeline; chaos profiles need it)")
    simulate.add_argument("--backend", default=None, metavar="SPEC",
                          help="backend spec (default: local threads, or "
                               "process:2 for kill-storm scenarios); e.g. "
                               f"{', '.join(backend_names())}")
    simulate.add_argument("--requests", type=_positive_int, default=None,
                          help="trace length (default: the scenario's)")
    simulate.add_argument("--workers", type=_positive_int, default=None)
    simulate.add_argument("--max-inflight", type=_positive_int, default=None,
                          help="concurrent in-flight fusions "
                               "(pipeline engine only)")
    simulate.add_argument("--seed", type=int, default=0,
                          help="trace and scene seed (default 0)")
    simulate.add_argument("--quick", action="store_true",
                          help="shrink the scenario to CI smoke size")
    simulate.add_argument("--no-verify", action="store_true",
                          help="skip the bit-identity check against the "
                               "sequential reference")
    simulate.add_argument("--json", default=None, metavar="PATH",
                          help="write the simulate report (JSON) to PATH")
    simulate.add_argument("--record-trace", default=None, metavar="PATH",
                          help="save the replayed arrival trace to PATH")
    simulate.add_argument("--replay-trace", default=None, metavar="PATH",
                          help="replay a previously saved trace instead of "
                               "drawing a fresh one")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = HydiceConfig(bands=args.bands, rows=args.rows, cols=args.cols, seed=args.seed,
                          vehicles=args.vehicles, camouflaged_vehicles=args.camouflaged)
    cube = HydiceGenerator(config).generate()
    cube.save_npz(args.out)
    print(f"wrote {cube.bands}x{cube.rows}x{cube.cols} cube to {args.out}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    cube = HyperspectralCube.load_npz(args.cube)
    options = {}
    if args.angle_threshold is not None:
        # ScreeningConfig validates the range (0, pi/2) and raises an
        # actionable ValueError for anything outside it.
        options["config"] = FusionConfig(
            screening=ScreeningConfig(angle_threshold=args.angle_threshold))
    if args.tile_rows is not None:
        options["tile_rows"] = args.tile_rows
    if args.compute_dtype is not None:
        options["compute_dtype"] = args.compute_dtype
    if args.compute is not None:
        options["compute"] = args.compute
    if args.engine == "resilient":
        options["replication"] = args.replication
        if args.attack:
            options["attack"] = AttackScenario.single_worker_kill(args.attack, at=1.0)
    # Without --backend the facade runs the engine's default backend.
    report = api_fuse(cube, engine=args.engine, backend=args.backend,
                      workers=args.workers, subcubes=args.subcubes, **options)
    result = report.result

    summary = {
        "mode": result.metadata.get("mode"),
        "backend": report.backend,
        "unique_set_size": result.unique_set_size,
        "composite_shape": str(result.composite.shape),
    }
    if report.engine != "sequential":
        # The pipeline engine measures wall clock on every spec (it degrades
        # "sim" to host threads); only the batch engines simulate time.
        label = ("virtual_seconds"
                 if report.engine != "pipeline"
                 and BackendSpec.parse(report.backend).name == "sim"
                 else "wall_seconds")
        summary[label] = f"{report.elapsed_seconds:.2f}"
    if args.compute_dtype is not None:
        summary["compute_dtype"] = args.compute_dtype
    if args.compute is not None:
        summary["compute"] = args.compute
    label_map = cube.metadata.get("target_mask")
    if label_map is not None:
        quality = enhancement_report(cube, result.composite, label_map)
        summary["fused_target_contrast"] = f"{quality['fused_contrast']:.2f}"
        summary["enhancement_factor"] = f"{quality['enhancement_factor']:.2f}"
    print(dict_table("fusion summary", summary))
    if args.profile:
        print()
        print(report.profile_table())

    if args.out:
        np.savez_compressed(args.out, composite=result.composite,
                            components=result.components)
        print(f"wrote composite to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.report import figure4_table
    from .analysis.speedup import SpeedupCurve

    cube = HydiceGenerator.paper_granularity_cube(scale=args.scale, seed=args.seed)
    if args.bands != cube.bands:
        cube = HydiceGenerator(HydiceConfig(bands=args.bands, rows=cube.rows,
                                            cols=cube.cols, seed=args.seed)).generate()
    if BackendSpec.parse(args.backend).name != "sim":
        from .experiments.measured import run_measured_speedup

        result = run_measured_speedup(cube, processors=tuple(args.workers),
                                      backend=args.backend)
        print(result.report())
        return 0
    plain = SpeedupCurve("no resiliency")
    resilient = SpeedupCurve("resiliency level 2")
    for workers in args.workers:
        config = FusionConfig(partition=PartitionConfig(workers=workers,
                                                        subcubes=workers * 2))
        plain.add(workers, api_fuse(cube, engine="distributed", backend=args.backend,
                                    config=config).elapsed_seconds)
        res_config = config.with_resilience(ResilienceConfig(execute_replicas=False))
        resilient.add(workers, api_fuse(cube, engine="resilient", backend=args.backend,
                                        config=res_config).elapsed_seconds)
    print(figure4_table(plain, resilient))
    return 0


def _figure_cube(bands: int, scale: float, seed: int):
    rows = cols = max(32, int(round(320 * scale)))
    return HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                        seed=seed)).generate()


def _cmd_figure4(args: argparse.Namespace) -> int:
    from .experiments import run_figure4

    cube = _figure_cube(args.bands, args.scale, args.seed)
    print(f"Running the Figure 4 sweep on a {cube.bands}x{cube.rows}x{cube.cols} cube ...")
    result = run_figure4(cube, processors=tuple(args.processors), subcubes=args.subcubes)
    print(result.report())
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from .experiments import run_figure5

    cube = _figure_cube(args.bands, args.scale, args.seed)
    print(f"Running the Figure 5 sweep on a {cube.bands}x{cube.rows}x{cube.cols} cube ...")
    tail_off = () if args.no_tail_off else (16, 32, 48, 96, 128)
    result = run_figure5(cube, processors=tuple(args.processors),
                         multipliers=tuple(args.multipliers),
                         tail_off_subcubes=tail_off)
    print(result.report())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .paritylab import harness

    if args.replay:
        entries = harness.replay_corpus(args.corpus)
        if not entries:
            print(f"parity corpus {args.corpus} holds no repro-*.json files")
            return 0
        failures = 0
        for entry in entries:
            verdict = "ok" if entry.outcome.ok else "PARITY VIOLATION"
            note = f" ({entry.note})" if entry.note else ""
            print(f"{entry.path.name}: {verdict}{note}")
            for violation in entry.outcome.violations:
                failures += 1
                print(f"  {violation.describe()}")
        if failures:
            print(f"corpus replay: {failures} violation(s) re-opened",
                  file=sys.stderr)
            return 1
        print(f"corpus replay: {len(entries)} repro(s) green")
        return 0

    result = harness.fuzz(seconds=args.seconds, seed=args.seed,
                          corpus_dir=args.failures_dir, max_cases=args.max_cases,
                          shrink=not args.no_shrink)
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lintlab import all_rules, lint_paths

    if args.list_rules:
        rows = {rule.code: f"{rule.name}: {rule.rationale}"
                for rule in all_rules()}
        print(dict_table("registered lint rules", rows))
        return 0
    report = lint_paths(args.paths)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    if not report.ok:
        return 1
    if args.fail_dead_suppressions and report.dead_suppressions:
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from .scenarios import Trace, describe_scenarios, run_simulation

    if args.list:
        print(dict_table("registered scenarios", describe_scenarios()))
        return 0
    if args.scenario is None:
        raise SystemExit("error: a scenario name is required "
                         "(repro-fusion simulate --list shows the library)")

    trace = Trace.load(args.replay_trace) if args.replay_trace else None
    # Fail before the replay, not after it: an unwritable destination would
    # otherwise discard the whole run (a minute on a kill-storm scenario).
    # Opening for append raises the OSError the final write would, and
    # main() turns it into exit 2.
    for destination in (args.json, args.record_trace):
        if destination:
            with open(destination, "a", encoding="utf-8"):
                pass
    result = run_simulation(args.scenario, engine=args.engine,
                            backend=args.backend, requests=args.requests,
                            seed=args.seed, quick=args.quick, trace=trace,
                            verify=not args.no_verify, workers=args.workers,
                            max_inflight=args.max_inflight)
    print(result.summary())
    if args.record_trace:
        path = result.trace.save(args.record_trace)
        print(f"recorded arrival trace to {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.record(), fh, indent=2)
            fh.write("\n")
        print(f"wrote simulate record to {args.json}")
    if not result.parity.get("ok", True):
        print("PARITY VIOLATION: composites diverged from the sequential "
              f"reference on request(s) {result.parity['mismatches']}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-fusion`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_basic_logging()
    commands = {"generate": _cmd_generate, "fuse": _cmd_fuse, "sweep": _cmd_sweep,
                "figure4": _cmd_figure4, "figure5": _cmd_figure5,
                "fuzz": _cmd_fuzz, "lint": _cmd_lint,
                "simulate": _cmd_simulate}
    handler = commands.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except ValueError as exc:
        # Name lookups raise actionable ValueErrors (they list the valid
        # engine/backend names); show them without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Missing or unreadable cube/trace/artifact paths are user input
        # errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
