"""Metric names, units and how each value is derived.

``END_TO_END`` and ``per_layer_spec()`` are the single list of names the
benchmark prints; ``BENCHMARK.json`` must list the same names (a test
checks it).  Per-layer values are medians over the traced ops of per-op
totals; counts (calls, multiplies, bytes) are the same for every op.
"""

from __future__ import annotations

import statistics

from tracing import FLOP_GROUPS, OpLayers, median_of

# (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

STAGES = (1, 2, 3, 4)
GROUP_TIMES = (
    ("network.stem",)
    + tuple(f"network.conv.s{k}" for k in STAGES)
    + tuple(f"network.attn.s{k}" for k in STAGES)
    + ("network.fuse", "network.down")
    + tuple(f"network.dec.l{k}" for k in (3, 2, 1))
    + ("network.head",)
)
STEM_LAYERS = ("tensor.gelu.full", "tensor.pointwise_conv.full", "network.downsample_conv.full")

# suffix -> (unit, better)
_SUFFIX = {
    "time_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "mults": ("count", "lower"),
    "model_flops": ("count", "lower"),
    "bytes": ("bytes", "lower"),
    "gflop_s": ("GFLOP/s", "higher"),
    "exec_over_model": ("ratio", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "overhead_frac": ("ratio", "lower"),
    "coverage": ("ratio", "higher"),
    "kernel_coverage": ("ratio", "higher"),
}


def per_layer_names() -> list[str]:
    names = [f"{g}.time_s" for g in GROUP_TIMES]
    for g in FLOP_GROUPS:
        names += [f"{g}.mults", f"{g}.model_flops"]
    for layer in STEM_LAYERS:
        names += [f"{layer}.{s}" for s in ("self_s", "calls", "mults", "bytes", "gflop_s")]
    for k in STAGES:
        names += [f"pwa.gather.s{k}.self_s", f"pwa.gather.s{k}.bytes"]
        names += [f"pwa.scatter.s{k}.self_s", f"pwa.scatter.s{k}.bytes"]
        for fn in ("grouped_attention", "proj"):
            names += [f"pwa.{fn}.s{k}.{s}" for s in ("self_s", "mults", "gflop_s")]
        names.append(f"pwa.s{k}.exec_over_model")
    for k in STAGES:
        names += [
            f"jlc.jlc_forward.s{k}.self_s",
            f"tensor.conv3d.s{k}.self_s",
            f"tensor.conv3d.s{k}.mults",
            f"tensor.instance_norm.s{k}.self_s",
        ]
    names += ["sdkt.gram.self_s", "sdkt.gram.calls", "sdkt.gram.useful_ratio"]
    names += ["analysis.mad.self_s", "analysis.mad.bytes"]
    names += ["volume_io.read.self_s", "volume_io.write.self_s"]
    names += ["trace.overhead_frac", "trace.coverage", "trace.kernel_coverage"]
    return names


def per_layer_spec() -> list[tuple[str, str, str]]:
    return [(n, *_SUFFIX[n.rsplit(".", 1)[1]]) for n in per_layer_names()]


def gflop_s(mults: int, seconds: float) -> float:
    """Each executed multiply counted as a multiply-add (2 flops)."""
    return 2.0 * mults / seconds / 1e9 if seconds > 0 else 0.0


def per_layer_values(ops: list[OpLayers], model_flops: dict, pwa_model: dict, overhead_frac: float) -> dict:
    """Every per-layer metric, from the per-op layer totals of a traced pass.

    ``model_flops`` is ``flop_breakdown`` of the traced network (empty when
    no network runs); ``pwa_model`` maps stage k to the closed-form
    attention multiplies of that stage.
    """
    first = ops[0]

    def self_s(key):
        return median_of(ops, "self_s", key)

    out = {}
    for name in per_layer_names():
        base, suffix = name.rsplit(".", 1)
        if suffix == "time_s":
            value = median_of(ops, "group_s", base)
        elif base in FLOP_GROUPS and suffix == "mults":
            value = first.group_mults.get(base, 0)
        elif suffix == "model_flops":
            value = model_flops.get(FLOP_GROUPS[base], 0)
        elif suffix == "self_s":
            value = self_s(base)
        elif suffix in ("calls", "mults"):
            value = getattr(first, suffix).get(base, 0)
        elif suffix == "bytes":
            value = first.nbytes.get(base, 0)
        elif suffix == "gflop_s":
            value = gflop_s(first.mults.get(base, 0), self_s(base))
        elif suffix == "exec_over_model":
            k = int(base.rsplit(".s", 1)[1])
            executed = sum(first.mults.get(f"pwa.{fn}.s{k}", 0) for fn in ("proj", "grouped_attention"))
            model = pwa_model.get(k, 0)
            value = executed / model if model else 0.0
        elif name == "sdkt.gram.useful_ratio":
            calls = first.calls.get("sdkt.gram", 0)
            value = first.distinct_gram_inputs / calls if calls else 0.0
        elif name == "trace.overhead_frac":
            value = overhead_frac
        elif suffix in ("coverage", "kernel_coverage"):
            value = statistics.median(getattr(o, suffix) for o in ops)
        else:
            raise KeyError(name)
        out[name] = value
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 22
    samples that percentile would fall at or below the median; the upper
    median is reported instead, and the caller prints the percentile it got.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)  # 1-based
    return xs[rank - 1], 100.0 * rank / n, n - rank
