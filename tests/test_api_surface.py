"""Snapshot of the public API surface: the next knob is a decision.

Every request field, session/facade parameter and CLI flag is a
configuration the parity fuzz, the crash matrix and the benchmark have to
cover.  The literals below are the whole surface; a change that adds,
removes, renames or re-defaults one of them must edit this file in the same
diff, which is the point -- it cannot happen by accident.
"""

import argparse
import dataclasses
import inspect

import repro
from repro.api.request import FusionRequest
from repro.api.session import FusionSession
from repro.cli import _build_parser

#: ``(name, default)`` of every FusionRequest field, in declaration order
#: (``cube`` is required and has no default).
REQUEST_FIELDS = [
    ("cube", dataclasses.MISSING),
    ("engine", "sequential"),
    ("backend", None),
    ("workers", None),
    ("subcubes", None),
    ("config", None),
    ("n_components", 3),
    ("prefetch", 2),
    ("reassign_timeout", None),
    ("cluster", None),
    ("replication", None),
    ("attack", None),
    ("camouflage_period", None),
    ("tile_rows", None),
    ("max_inflight", None),
    ("compute_dtype", None),
    ("compute", None),
]

SESSION_PARAMETERS = ["self", "engine", "backend", "workers", "subcubes",
                      "start_method", "warm", "max_placements", "options"]

FUSE_PARAMETERS = ["cube", "engine", "backend", "workers", "subcubes",
                   "config", "options"]

#: Sorted option strings of every ``repro-fusion`` subcommand.
CLI_OPTIONS = {
    "generate": ["--bands", "--camouflaged", "--cols", "--help", "--out",
                 "--rows", "--seed", "--vehicles", "-h"],
    "fuse": ["--angle-threshold", "--attack", "--backend", "--compute",
             "--compute-dtype", "--engine", "--help", "--out",
             "--profile", "--replication", "--subcubes", "--tile-rows",
             "--workers", "-h"],
    "sweep": ["--backend", "--bands", "--help", "--scale", "--seed",
              "--workers", "-h"],
    "figure4": ["--bands", "--help", "--processors", "--scale", "--seed",
                "--subcubes", "-h"],
    "figure5": ["--bands", "--help", "--multipliers", "--no-tail-off",
                "--processors", "--scale", "--seed", "-h"],
    "fuzz": ["--corpus", "--failures-dir", "--help", "--max-cases",
             "--no-shrink", "--replay", "--seconds", "--seed", "-h"],
    "lint": ["--fail-dead-suppressions", "--format", "--help",
             "--list-rules", "--show-suppressed", "-h"],
    "simulate": ["--backend", "--engine", "--help", "--json", "--list",
                 "--max-inflight", "--no-verify", "--quick",
                 "--record-trace", "--replay-trace", "--requests", "--seed",
                 "--workers", "-h"],
}


def test_fusion_request_fields_are_the_snapshot():
    fields = [(f.name, f.default) for f in dataclasses.fields(FusionRequest)]
    assert fields == REQUEST_FIELDS


def test_session_and_facade_parameters_are_the_snapshot():
    assert list(inspect.signature(
        FusionSession.__init__).parameters) == SESSION_PARAMETERS
    assert list(inspect.signature(repro.fuse).parameters) == FUSE_PARAMETERS


def test_cli_options_are_the_snapshot():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: sorted(flag for action in parser._actions
                            for flag in action.option_strings)
               for name, parser in subparsers.choices.items()}
    assert options == CLI_OPTIONS
