"""Tests for the benchmark's own code (no program run needed).

Run with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------

def test_sweep_op_list_is_fixed_set_in_seeded_order():
    union = list(common.load_points())
    assert len(union) == 100
    chosen = common.sweep_point_names(union, 40)
    one = common.seeded_order(chosen, 1)
    assert one == common.seeded_order(chosen, 1)
    other = common.seeded_order(chosen, 2)
    assert other != one
    assert sorted(other) == sorted(one) == chosen
    # The subset does not depend on the order the union is listed in.
    assert common.sweep_point_names(list(reversed(union)), 40) == chosen


def _shape(request):
    return request["design"], request["engine"], len(request["blocks"])


def test_serve_request_list_is_fixed_multiset_in_seeded_order():
    one = common.serve_requests(1, 1)
    assert one == common.serve_requests(1, 1)
    other = common.serve_requests(2, 1)
    assert [_shape(r) for r in other] != [_shape(r) for r in one]
    assert Counter(map(_shape, other)) == Counter(map(_shape, one))
    sizes = {len(r["blocks"]) for r in one}
    assert min(sizes) >= 1 and max(sizes) <= common.SERVE_MAX_BLOCKS
    pairs = Counter((r["design"], r["engine"]) for r in one)
    assert set(pairs.values()) == {common.SERVE_SIZES_PER_PAIR}
    for request in one:
        for block in request["blocks"]:
            assert all(common.BLOCK_LOW <= v <= common.BLOCK_HIGH
                       for row in block for v in row)
    assert len(common.serve_requests(1, 2)) == 2 * len(one)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def test_percentile_requires_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert common.percentile(values, 90) is not None   # 10 beyond
    assert common.percentile(values, 91) is None       # only 9 beyond
    assert common.percentile(values[:19], 50) is None
    assert common.percentile(values[:20], 50) is not None
    assert common.percentile([], 50) is None


def test_harrell_davis_estimates_quantiles():
    values = [float(v) for v in range(1, 102)]
    assert common.harrell_davis(values, 0.5) == pytest.approx(51.0, abs=1e-6)
    assert common.harrell_davis(values, 0.9) == pytest.approx(91.0, abs=0.5)
    assert common.harrell_davis([7.0] * 30, 0.75) == pytest.approx(7.0)
    # One outlier at the nearest rank barely moves the estimate.
    spiky = sorted(values)
    spiky[90] = 1000.0
    assert common.harrell_davis(sorted(spiky), 0.9) < 200.0


def test_tail_percentile_picks_highest_allowed():
    assert common.tail_percentile([float(v) for v in range(100)])[0] == 90
    assert common.tail_percentile([float(v) for v in range(72)])[0] == 80
    assert common.tail_percentile([float(v) for v in range(40)])[0] == 75
    assert common.tail_percentile([float(v) for v in range(20)])[0] == 50
    assert common.tail_percentile([1.0] * 19) is None


def test_median():
    assert common.median([3.0, 1.0, 2.0]) == 2.0
    assert common.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ----------------------------------------------------------------------
# rescaling to the reference host speed
# ----------------------------------------------------------------------

def test_at_reference_speed_uses_the_probes_around_each_duration():
    ref = common.PROBE_REF_S
    # Host at reference speed, then twice as slow, then back halfway.
    probes = [ref, ref, 2 * ref, ref]
    scaled = common.at_reference_speed([1.0, 3.0, 1.5], probes)
    assert scaled == pytest.approx([1.0, 2.0, 1.0])
    assert common.reference_scales(probes) == pytest.approx([1.0, 2 / 3, 2 / 3])
    with pytest.raises(ValueError):
        common.at_reference_speed([1.0, 2.0], [ref, ref])


def test_host_probe_is_positive_and_short():
    probe = common.host_probe_s()
    assert 0.0 < probe < 5.0


def test_serve_load_rescaled_per_segment():
    import idct_serve

    count = idct_serve.SEGMENT_REQUESTS + 2
    segments = idct_serve.segments(count)
    assert [len(seg) for seg in segments] == [idct_serve.SEGMENT_REQUESTS, 2]
    assert [i for seg in segments for i in seg] == list(range(count))
    ref = common.PROBE_REF_S
    load = {"walls": [4.0, 1.0], "probes": [ref, ref, 3 * ref],
            "latencies": [0.5] * count}
    wall, latencies = idct_serve.at_reference_speed(load)
    assert wall == pytest.approx(4.0 + 0.5)
    assert latencies[:idct_serve.SEGMENT_REQUESTS] == pytest.approx(
        [0.5] * idct_serve.SEGMENT_REQUESTS)
    assert latencies[-2:] == pytest.approx([0.25, 0.25])


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        # id, parent, name, start, end
        [1, None, "a", 0.0, 10.0],
        [2, 1, "b", 1.0, 4.0],
        [3, 1, "b", 3.0, 5.0],      # overlaps 2: union 1..5 = 4
        [4, 1, "c", 9.0, 12.0],     # runs past the parent: clipped to 1
        [5, 2, "d", 1.5, 2.0],
        [6, None, "a", 20.0, 21.0],
    ]
    st = layers.self_times(spans)
    assert st["a"] == pytest.approx((10 - 5) + 1)
    assert st["b"] == pytest.approx((3 - 0.5) + 2)
    assert st["c"] == pytest.approx(3)
    assert st["d"] == pytest.approx(0.5)


def test_op_coverage_counts_layers_inside_ops_only():
    spans = [
        [1, None, "bench.op", 0.0, 10.0],
        [2, 1, "eval.measure", 0.0, 9.0],
        [3, 2, "rtl.elaborate", 1.0, 3.0],
        [4, 2, "bench.walk", 3.0, 4.0],
        [5, None, "rtl.elaborate", 20.0, 30.0],   # outside any op
    ]
    # op time 10 - walk 1 = 9; layer self: measure 9-3=6, elaborate 2.
    assert layers.op_coverage(spans) == pytest.approx(8 / 9)
    assert layers.op_coverage(spans[4:]) == 0.0


def test_recorder_nests_counts_and_ingests():
    rec = layers.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    rec.count("x", 2)
    shipped = rec.export()
    (inner, outer) = shipped["spans"]
    assert inner[2] == "inner" and inner[1] == outer[0]
    other = layers.Recorder()
    with other.span("mine"):
        pass
    other.ingest(shipped)
    other.ingest(shipped)
    ids = [s[0] for s in other.spans]
    assert len(ids) == len(set(ids)) == 5
    parents = {s[1] for s in other.spans if s[2] == "inner"}
    names = {s[0]: s[2] for s in other.spans}
    assert {names[p] for p in parents} == {"outer"} and len(parents) == 2
    assert other.counts["x"] == 4


# ----------------------------------------------------------------------
# /metrics deltas
# ----------------------------------------------------------------------

METRICS_BEFORE = """\
# HELP repro_serve_blocks_total 8x8 blocks evaluated across all batches.
# TYPE repro_serve_blocks_total counter
repro_serve_blocks_total 12
repro_serve_blocks_total{design="bsv-opt",engine="sim"} 2
repro_serve_request_us_sum 1500.5
repro_serve_queue_depth 0
"""

METRICS_AFTER = """\
# TYPE repro_serve_blocks_total counter
repro_serve_blocks_total 40
repro_serve_blocks_total{design="bsv-opt",engine="sim"} 9
repro_serve_blocks_total{design="xls-s8",engine="model"} 3
repro_serve_request_us_sum 2e+06
repro_serve_queue_depth 1
garbage line without value
"""


def test_prometheus_delta_parser():
    before = common.parse_prometheus(METRICS_BEFORE)
    after = common.parse_prometheus(METRICS_AFTER)
    assert before["repro_serve_blocks_total"] == 12.0
    delta = common.metrics_delta(before, after)
    assert delta["repro_serve_blocks_total"] == 28.0
    assert delta['repro_serve_blocks_total{design="bsv-opt",engine="sim"}'] == 7.0
    assert delta['repro_serve_blocks_total{design="xls-s8",engine="model"}'] == 3.0
    assert delta["repro_serve_request_us_sum"] == pytest.approx(2e6 - 1500.5)
    assert "garbage line without" not in delta
