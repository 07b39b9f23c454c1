"""Tests of the benchmark itself: seeded inputs, span arithmetic, metric names."""

import json
import re
import sys

import numpy as np
import pytest

import run

if str(run.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(run.ROOT / "src"))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(name, seed, work):
    wl = workloads.make(name, workloads.pwseg_modules())
    work.mkdir()
    wl.prepare(seed, work)
    if name == "analysis":
        arrays = []
        for c in wl.cases:
            arrays += [c.seg, c.mad_input.weights] + [t for t, _ in c.teachers]
        return wl.orders, arrays
    return wl.orders, [p.read_bytes() for p in sorted(work.iterdir())]


def _same(a, b):
    return a[0] == b[0] and len(a[1]) == len(b[1]) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a[1], b[1])
    )


@pytest.mark.parametrize("name", ["seg64_m4", "analysis"])
def test_seed_determines_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "first")
    again = _inputs(name, 7, tmp_path / "again")
    other = _inputs(name, 8, tmp_path / "other")
    assert _same(first, again)
    assert not _same(first, other)


def _span(tracer_spans, sid, name, start, end, parent=None, kind="call", op="a"):
    s = tracing.Span(sid, name, "", kind, start, parent, op, 0)
    s.end = end
    tracer_spans.append(s)
    return s


def test_self_time_on_hand_built_tree():
    spans = []
    _span(spans, 0, "op", 0.0, 10.0, kind="op")
    _span(spans, 1, "a", 1.0, 5.0, parent=0)
    _span(spans, 2, "a1", 2.0, 3.0, parent=1)
    _span(spans, 3, "b", 6.0, 9.0, parent=0)
    _span(spans, 4, "b1", 6.0, 7.0, parent=3)
    _span(spans, 5, "b2", 6.5, 8.0, parent=3)  # overlaps b1; the union counts once
    got = tracing.self_times(spans)
    assert got == pytest.approx({0: 3.0, 1: 3.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.5})

    layers = tracing.per_op_layers(spans)["a"]
    assert layers.self_s["b"] == pytest.approx(1.0)
    assert layers.coverage == pytest.approx(0.7)  # a and b cover 7 of 10
    assert layers.kernel_coverage == pytest.approx((1.0 + 1.0 + 1.5) / 10.0)


def test_tracer_closes_open_children():
    t = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(t)))
    with tracer.op("x"):
        outer = tracer.open("outer")
        tracer.open("inner")
        tracer.close(outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].end == by_name["outer"].end
    assert all(s.op == "x" for s in tracer.spans)
    assert by_name["inner"].parent == by_name["outer"].sid


def test_traced_forward_is_bit_identical_and_counts_repeat():
    pw = workloads.pwseg_modules()
    network = pw["network"]
    cfg = network.NetworkConfig(modalities=2, input_extent=(32, 32, 32))
    net = network.build(cfg, 0)
    rng = np.random.default_rng(0)
    vols = [rng.standard_normal((1, 32, 32, 32)).astype(np.float32) for _ in range(2)]
    plain = network.forward(net, vols)
    tracer = tracing.Tracer()
    original = network.forward
    with tracing.Instrument(tracer, pw, net):
        outs = []
        for i in range(2):
            with tracer.op(i):
                outs.append(network.forward(net, vols))
    assert network.forward is original
    assert all(np.array_equal(plain, o) for o in outs)
    ops = list(tracing.per_op_layers(tracer.spans).values())
    assert len(ops) == 2 and tracing.counts_repeat(ops)
    assert set(ops[0].group_s) == set(metrics.GROUP_TIMES)
    assert set(ops[0].group_mults) == set(tracing.FLOP_GROUPS)
    model = network.flop_breakdown(net)
    pwa_model = dict(enumerate(network.attention_stage_flops(cfg), start=1))
    values = metrics.per_layer_values(ops, model, pwa_model, 0.0)
    assert list(values) == metrics.per_layer_names()
    assert values["tensor.gelu.full.calls"] == 1
    assert values["pwa.s1.exec_over_model"] > 0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = metrics.tail([float(i) for i in range(30)])
    assert (value, pct, beyond) == (19.0, pytest.approx(100 * 20 / 30), 10)
    value, _, beyond = metrics.tail([1.0, 2.0, 3.0])
    assert value == 2.0 and beyond == 1  # too few samples: upper median


def test_metric_names_are_valid_and_listed_in_benchmark_json():
    for section, spec in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.per_layer_spec())):
        names = [n for n, _, _ in spec]
        assert len(names) == len(set(names))
        for n in names:
            assert NAME_RE.fullmatch(n) and len(n) <= 64, n
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert listed == list(spec)
    assert len(BENCHMARK["per_layer"]) <= 128
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        workloads.make(name, workloads.pwseg_modules())
