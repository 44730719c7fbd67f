"""Span self-time arithmetic and the recorder's on/off contract."""

import json

import pytest

from e2e.trace import TRACE_SCHEMA, Span, TraceRecorder, covered, self_time_by_name, self_times


def _span(span_id, parent, t0, t1, name="s", layer="l"):
    return Span(id=span_id, parent=parent, request=None, name=name, layer=layer, t0=t0, t1=t1)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),    # overlaps span 2: the union 1..5 counts once
        _span(4, 1, 8.0, 12.0),   # sticks out of the parent: only 8..10 counts
        _span(5, 3, 2.5, 3.5),    # a grandchild is not subtracted from span 1
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_covered_merges_and_clips():
    assert covered([(0.0, 1.0), (0.5, 2.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 20.0)], 0.0, 10.0) == pytest.approx(10.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_by_name_groups_layer_and_name():
    spans = [_span(1, None, 0.0, 4.0, "request", "workload"),
             _span(2, 1, 0.0, 1.0, "screening", "core.pipeline"),
             _span(3, None, 4.0, 6.0, "request", "workload")]
    grouped = self_time_by_name(spans)
    assert grouped["workload/request"] == [pytest.approx(3.0), pytest.approx(2.0)]
    assert grouped["core.pipeline/screening"] == [pytest.approx(1.0)]


def test_disabled_recorder_records_nothing():
    recorder = TraceRecorder(enabled=False)
    assert recorder.add("request", "workload", 0.0, 1.0) is None
    recorder.add_stage_children(None, 0, 0.0, [("screening", 0.5)], layer="core.pipeline")
    assert recorder.spans == []


def test_stage_children_are_laid_back_to_back_and_marked_derived():
    recorder = TraceRecorder()
    root = recorder.add("request", "workload", 10.0, 11.0, request=7)
    recorder.add_stage_children(root, 7, 10.0, [("screening", 0.25), ("projection", 0.5)],
                                layer="core.pipeline")
    screening, projection = recorder.spans[1:]
    assert (screening.t0, screening.t1) == (10.0, 10.25)
    assert (projection.t0, projection.t1) == (10.25, 10.75)
    assert all(span.parent == root and span.request == 7 and span.attrs["derived"]
               for span in (screening, projection))
    assert self_times(recorder.spans)[root] == pytest.approx(0.25)


def test_trace_file_is_json_lines_with_a_schema_header(tmp_path):
    recorder = TraceRecorder()
    recorder.add("ensure", "scp.pool", 1.0, 1.5, workers=2)
    path = tmp_path / "trace.jsonl"
    recorder.write(str(path), {"workload": "w"})
    header, span = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"schema": TRACE_SCHEMA, "workload": "w"}
    assert set(span) == {"id", "parent", "request", "name", "layer", "t0", "t1", "attrs"}
    assert span["attrs"] == {"workers": 2} and span["t1"] >= span["t0"]
