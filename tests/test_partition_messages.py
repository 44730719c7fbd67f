"""Unit tests for sub-cube decomposition and messages."""

import numpy as np
import pytest

from repro.core.messages import (PHASE_SCREEN, StopWork, TaskAssignment,
                                 TaskResult, WorkerHello)
from repro.core.partition import (SubcubeSpec, decompose, extract_subcube,
                                  reassemble_composite, subcube_pixel_matrix)


class TestDecompose:
    def test_blocks_cover_all_rows_once(self):
        specs = decompose(100, 7)
        assert specs[0].row_start == 0
        assert specs[-1].row_stop == 100
        total = sum(s.rows for s in specs)
        assert total == 100
        for earlier, later in zip(specs, specs[1:]):
            assert earlier.row_stop == later.row_start

    def test_block_sizes_balanced(self):
        specs = decompose(100, 7)
        sizes = [s.rows for s in specs]
        assert max(sizes) - min(sizes) <= 1

    def test_task_ids_dense(self):
        specs = decompose(64, 4)
        assert [s.task_id for s in specs] == [0, 1, 2, 3]

    def test_single_block(self):
        specs = decompose(10, 1)
        assert len(specs) == 1
        assert specs[0].rows == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose(10, 0)
        with pytest.raises(ValueError):
            decompose(4, 8)


class TestExtractAndReassemble:
    def test_extract_matches_slice(self, tiny_cube):
        spec = decompose(tiny_cube.rows, 4)[1]
        block = extract_subcube(tiny_cube, spec)
        np.testing.assert_array_equal(
            block, tiny_cube.data[:, spec.row_start:spec.row_stop, :])
        assert block.flags["C_CONTIGUOUS"]

    def test_extract_is_a_copy(self, tiny_cube):
        spec = decompose(tiny_cube.rows, 2)[0]
        block = extract_subcube(tiny_cube, spec)
        assert not np.shares_memory(block, tiny_cube.data)

    def test_extract_out_of_range_rejected(self, tiny_cube):
        with pytest.raises(ValueError):
            extract_subcube(tiny_cube, SubcubeSpec(0, 0, tiny_cube.rows + 5))

    def test_pixel_matrix_shape(self, tiny_cube):
        spec = decompose(tiny_cube.rows, 4)[0]
        block = extract_subcube(tiny_cube, spec)
        matrix = subcube_pixel_matrix(block)
        assert matrix.shape == (spec.rows * tiny_cube.cols, tiny_cube.bands)

    def test_reassemble_round_trip(self, tiny_cube):
        specs = decompose(tiny_cube.rows, 3)
        blocks = []
        for spec in specs:
            block = extract_subcube(tiny_cube, spec)
            rgb = np.stack([block[0]] * 3, axis=-1)
            blocks.append((spec, rgb))
        composite = reassemble_composite(blocks, tiny_cube.rows, tiny_cube.cols)
        assert composite.shape == (tiny_cube.rows, tiny_cube.cols, 3)
        np.testing.assert_allclose(composite[..., 0], tiny_cube.data[0])

    def test_reassemble_missing_rows_rejected(self):
        specs = decompose(10, 2)
        blocks = [(specs[0], np.zeros((specs[0].rows, 4, 3)))]
        with pytest.raises(ValueError):
            reassemble_composite(blocks, 10, 4)

    def test_reassemble_overlap_rejected(self):
        spec = SubcubeSpec(0, 0, 5)
        blocks = [(spec, np.zeros((5, 4, 3))), (spec, np.zeros((5, 4, 3)))]
        with pytest.raises(ValueError):
            reassemble_composite(blocks, 5, 4)

    def test_reassemble_wrong_shape_rejected(self):
        spec = SubcubeSpec(0, 0, 5)
        with pytest.raises(ValueError):
            reassemble_composite([(spec, np.zeros((4, 4, 3)))], 5, 4)


class TestMessages:
    def test_task_dedup_key_stable(self):
        task = TaskAssignment(phase=PHASE_SCREEN, task_id=4)
        assert task.dedup_key() == ("task", PHASE_SCREEN, 4)

    def test_result_dedup_key_ignores_worker(self):
        a = TaskResult(phase=PHASE_SCREEN, task_id=4, worker="worker.0")
        b = TaskResult(phase=PHASE_SCREEN, task_id=4, worker="worker.3")
        assert a.dedup_key() == b.dedup_key()

    def test_hello_dedup_includes_incarnation(self):
        first = WorkerHello(worker="worker.1", incarnation=0)
        reborn = WorkerHello(worker="worker.1", incarnation=1)
        assert first.dedup_key() != reborn.dedup_key()

    def test_stop_key(self):
        assert StopWork().dedup_key() == ("stop", "complete")

    def test_task_nbytes_counts_arrays(self, tiny_cube):
        # A sub-cube task names its block by reference; the estimate still
        # charges the block's bytes, not the whole cube's.
        spec = decompose(tiny_cube.rows, 4)[1]
        block = extract_subcube(tiny_cube, spec)
        task = TaskAssignment(phase=PHASE_SCREEN, task_id=1,
                              data={"cube": tiny_cube}, spec=spec)
        assert task.nbytes_estimate() >= block.nbytes
        assert task.nbytes_estimate() < tiny_cube.data.nbytes

    def test_result_nbytes_counts_arrays(self):
        result = TaskResult(phase=PHASE_SCREEN, task_id=0, worker="w",
                            data={"unique": np.zeros((5, 8))})
        assert result.nbytes_estimate() >= 320
