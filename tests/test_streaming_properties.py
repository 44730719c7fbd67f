"""Property-based tests for backend-spec parsing and tile-split invariants.

Two generative layers: hand-rolled seeded-RNG sweeps that run everywhere
(no third-party dependency), plus a ``hypothesis`` layer with shrinking
when the package is installed (it is in the ``dev`` extra the CI jobs use).
Every property is checked over a randomised family of inputs large enough
to hit the edge cases -- one-row cubes, tiles larger than the cube, worker
counts exceeding rows -- rather than a couple of hand-picked examples.

The two property families mirror the streaming engine's two trust anchors:

* ``BackendSpec.parse`` round-trips: what a spec prints is what it parses
  back to, token order never matters, and malformed specs fail loudly;
* tiling is output-invariant: any tiling of any cube shape reassembles to
  the untiled sequential composite *bit-identically* -- the property that
  makes ``tile_rows`` a pure performance knob.
"""

import numpy as np
import pytest

from _process_utils import run_pipeline_copied
from repro import fuse
from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
from repro.core.partition import reassemble_composite
from repro.core.streaming import default_tile_rows, plan_tiles
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.scp.registry import BackendSpec
from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import InProcessTransport

#: Cases per property; chosen so the whole module stays in tier-1 time.
CASES = 50


# ---------------------------------------------------------------------------
# BackendSpec.parse round-tripping
# ---------------------------------------------------------------------------

_VARIANTS = {
    "sim": ["sun-ultra", "switched", "smp"],
    "local": [],
    "process": ["spawn", "fork", "forkserver"],
}


def _random_spec(rng: np.random.Generator) -> BackendSpec:
    name = str(rng.choice(sorted(_VARIANTS)))
    variants = _VARIANTS[name]
    variant = (str(rng.choice(variants))
               if variants and rng.random() < 0.5 else None)
    workers = int(rng.integers(1, 65)) if rng.random() < 0.5 else None
    return BackendSpec(name=name, variant=variant, workers=workers)


class TestBackendSpecProperties:
    def test_str_parse_round_trip(self):
        rng = np.random.default_rng(2026)
        for _ in range(CASES):
            spec = _random_spec(rng)
            assert BackendSpec.parse(str(spec)) == spec

    def test_token_order_is_irrelevant(self):
        rng = np.random.default_rng(7)
        for _ in range(CASES):
            spec = _random_spec(rng)
            tokens = [token for token in
                      ([spec.variant] if spec.variant else [])
                      + ([str(spec.workers)] if spec.workers else [])]
            rng.shuffle(tokens)
            shuffled = ":".join([spec.name] + tokens)
            assert BackendSpec.parse(shuffled) == spec

    def test_parse_is_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(CASES):
            spec = _random_spec(rng)
            assert BackendSpec.parse(spec) is spec
            assert BackendSpec.parse(str(BackendSpec.parse(str(spec)))) == spec

    def test_surrounding_whitespace_is_tolerated(self):
        assert BackendSpec.parse(" sim : smp ") == BackendSpec("sim", "smp", None)

    def test_empty_tokens_are_rejected_naming_the_spec(self):
        # Regression: "process::8" used to silently skip the empty token;
        # it is most likely a typo'd variant and must fail loudly.
        for bad in ("process::8", "process: :4", "process:", "sim:smp:"):
            with pytest.raises(ValueError, match="empty token") as err:
                BackendSpec.parse(bad)
            assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", [
        "process:8:4",            # two worker counts
        "process:4:4",            # duplicate worker counts
        "sim:smp:switched",       # two variants
        "process:fork:fork",      # duplicate variants
        "process:0",              # worker count below 1
        "sim:warp-drive",         # unknown variant
        "quantum",                # unknown backend
        "",                       # empty spec
    ])
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError):
            BackendSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["process:8:4", "process:4:4",
                                     "sim:smp:switched", "process::8"])
    def test_malformed_spec_errors_name_the_spec(self, bad):
        with pytest.raises(ValueError) as err:
            BackendSpec.parse(bad)
        assert repr(bad) in str(err.value)


# ---------------------------------------------------------------------------
# Tile-split / merge invariants
# ---------------------------------------------------------------------------

class TestTilePlanProperties:
    def test_tiles_partition_the_rows_exactly(self):
        rng = np.random.default_rng(2027)
        for _ in range(CASES):
            rows = int(rng.integers(1, 400))
            tile_rows = int(rng.integers(1, 64))
            tiles = plan_tiles(rows, tile_rows)
            # Contiguous, exhaustive, in order, no overlap.
            assert tiles[0].row_start == 0 and tiles[-1].row_stop == rows
            for a, b in zip(tiles, tiles[1:]):
                assert a.row_stop == b.row_start
            # Balanced: sizes differ by at most one row.
            sizes = [tile.rows for tile in tiles]
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= max(tile_rows, 1 + rows // max(len(tiles), 1))

    def test_default_tile_rows_yields_one_tile_per_worker(self):
        rng = np.random.default_rng(5)
        for _ in range(CASES):
            rows = int(rng.integers(1, 400))
            workers = int(rng.integers(1, 17))
            tiles = plan_tiles(rows, default_tile_rows(rows, workers))
            # No worker gets a second tile, and no tile is larger than an
            # even share of the rows.
            assert 1 <= len(tiles) <= min(rows, workers)
            assert max(tile.rows for tile in tiles) <= -(-rows // workers)
            if rows % workers == 0:
                assert len(tiles) == workers

    def test_any_tiling_reassembles_any_array(self):
        rng = np.random.default_rng(99)
        for _ in range(CASES):
            rows = int(rng.integers(1, 64))
            cols = int(rng.integers(1, 8))
            channels = int(rng.integers(1, 5))
            tile_rows = int(rng.integers(1, 16))
            data = rng.normal(size=(rows, cols, channels))
            tiles = plan_tiles(rows, tile_rows)
            blocks = [(spec, data[spec.row_start:spec.row_stop]) for spec in tiles]
            np.testing.assert_array_equal(
                reassemble_composite(blocks, rows, cols, channels=channels), data)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestHypothesisLayer:
    """The same invariants under hypothesis's adversarial generation."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(_VARIANTS)),
           pick_variant=st.booleans(),
           variant_index=st.integers(min_value=0, max_value=2),
           workers=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)))
    def test_spec_round_trip(self, name, pick_variant, variant_index, workers):
        variants = _VARIANTS[name]
        variant = (variants[variant_index % len(variants)]
                   if pick_variant and variants else None)
        spec = BackendSpec(name=name, variant=variant, workers=workers)
        assert BackendSpec.parse(str(spec)) == spec

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(min_value=1, max_value=10_000),
           tile_rows=st.integers(min_value=1, max_value=512))
    def test_tiles_partition_rows(self, rows, tile_rows):
        tiles = plan_tiles(rows, tile_rows)
        assert tiles[0].row_start == 0 and tiles[-1].row_stop == rows
        for a, b in zip(tiles, tiles[1:]):
            assert a.row_stop == b.row_start
        assert max(tile.rows for tile in tiles) <= tile_rows


class TestTilingIsOutputInvariant:
    """Any tiling of any cube shape fuses to the untiled composite exactly."""

    #: A spread of odd cube shapes (the generator needs >= 16x16 scenes);
    #: rows deliberately prime so the interesting tiling remainders occur.
    SHAPES = [(8, 17, 19), (12, 31, 21), (16, 23, 17)]

    @pytest.fixture(scope="class")
    def executor(self):
        with TransportStageExecutor(InProcessTransport(workers=2),
                                    workers=2) as executor:
            yield executor

    @pytest.mark.parametrize("bands,rows,cols", SHAPES)
    def test_pipeline_matches_sequential_for_random_tilings(
            self, executor, bands, rows, cols):
        cube = HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                            seed=rows, vehicles=1,
                                            camouflaged_vehicles=0)).generate()
        config = FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.05, max_unique=256),
            partition=PartitionConfig(workers=2, subcubes=2))
        reference = fuse(cube, engine="sequential", config=config)
        rng = np.random.default_rng(rows * 31 + cols)
        tilings = {1, rows, *(int(rng.integers(1, rows + 1)) for _ in range(6))}
        for tile_rows in sorted(tilings):
            result = run_pipeline_copied(cube, config, executor,
                                         tile_rows=tile_rows)
            np.testing.assert_array_equal(result.composite, reference.composite)
            np.testing.assert_array_equal(result.components,
                                          reference.result.components)
            assert result.unique_set_size == reference.unique_set_size
