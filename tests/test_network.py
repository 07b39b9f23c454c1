"""Network assembly tests: build, forward, counting, config plumbing."""

import json
import re
import tracemalloc
from dataclasses import asdict, fields, is_dataclass, replace
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from pwseg import jlc, network, pwa, tensor
from pwseg.analysis import config_digest
from pwseg.errors import ConfigError, DomainError, NonFiniteError, ScheduleError, ShapeError
from pwseg.network import (
    NetworkConfig,
    attention_stage_flops,
    build,
    config_from_dict,
    conv_only,
    downsample_conv,
    flop_breakdown,
    forward,
    param_count,
    total_flops,
)
from pwseg.pwa import pwa_flops
from pwseg.tensor import ConvParams, conv3d, param_arrays, pointwise_conv, voxel_shuffle
from test_tensor import per_group_conv3d

SMALL = NetworkConfig(input_extent=(32, 32, 32), conv_depth=(1, 1, 1, 1))


def symbolic_param_count(cfg: NetworkConfig) -> int:
    """Closed-form parameter count recomputed from the config alone."""

    def split(c, gs):
        units = c // gs
        base, rem = divmod(units, len(cfg.kernels))
        return [(base + (1 if i < rem else 0)) * gs for i in range(len(cfg.kernels))]

    def conv(c_out, c_in, k=1, groups=1, bias=True):
        return c_out * (c_in // groups) * k**3 + (c_out if bias else 0)

    def jlc(c, gs, e):
        widths = split(c, gs)
        n = sum(conv(w, w, k, groups=w // gs) for w, k in zip(widths, cfg.kernels))
        n += 4 * c  # two norms, scale + shift each
        n += conv(e * c, c) + conv(c, e * c)
        return n

    def pwa(c, n_win, seq, e, n_head):
        c_hat = cfg.c_min * ceil(c / (cfg.c_min * n_win * n_head))
        proj = n_win * n_head * c_hat
        n = 2 * c  # attention layer norm
        n += 3 * proj * c  # q/k/v, no bias
        n += conv(c, proj)  # mixer with bias
        n += n_win * seq * seq  # position tables
        n += 2 * c + conv(e * c, c) + conv(c, e * c)  # FFN norm + convs
        return n

    m_att = 1 if cfg.early_fusion else cfg.modalities
    widths = cfg.stage_widths
    s = cfg.patch_stride
    total = conv(widths[0], cfg.modalities)  # modal mixer
    total += conv(widths[0], widths[0], s) + conv(widths[0], widths[0] if cfg.early_fusion else 1, s)
    for k in range(4):
        c = widths[k]
        sched = cfg.stage_schedules[k]
        seq = m_att * sched.seq_len
        total += cfg.conv_depth[k] * jlc(c, cfg.group_sizes[k], cfg.expansion_ratios[k])
        total += cfg.attention_depth[k] * pwa(c, sched.n_win, seq, cfg.expansion_ratios[k], cfg.n_head[k])
        total += conv(c, c)  # fuse projection
        if k < 3:
            total += 2 * conv(widths[k + 1], c, 2)  # both stream downsamplers
    for k in (2, 1, 0):
        c_src, c = widths[k + 1], widths[k]
        total += conv(8 * c_src, c_src)
        total += conv(c, c_src + c)  # concat projection
        total += cfg.decoder_depth * jlc(c, cfg.group_sizes[k], cfg.expansion_ratios[k])
    total += conv(s**3 * cfg.head_width, widths[0])
    total += conv(cfg.num_classes, cfg.head_width)
    return total


# (field, invalid value, what the ConfigError message must contain) for each NetworkConfig range rule.
INVALID_FIELDS = [
    ("modalities", 0, "modalities must be an integer >= 1, got 0"),
    ("num_classes", 0, "num_classes must be an integer >= 1, got 0"),
    ("c_min", 0, "c_min must be an integer >= 1, got 0"),
    ("head_width", 0, "head_width must be an integer >= 1, got 0"),
    ("decoder_depth", 0, "decoder_depth must be an integer >= 1, got 0"),
    ("patch_stride", 1, "patch_stride must be an integer >= 2, got 1"),
    ("stage_widths", (16, 32, 64), "stage_widths must have 4 entries, got 3"),
    ("stage_widths", (16, 32), "stage_widths must have 4 entries, got 2"),
    ("group_sizes", (4, 8, 7, 16), "stage 3: group size 7 does not divide 64 channels"),
    ("kernels", (1, 2, 3), r"kernels must be odd positive sizes, got \(1, 2, 3\)"),
    ("kernels", (-1, 3), r"kernels must be odd positive sizes, got \(-1, 3\)"),
    ("expansion_ratios", (3, 0, 2, 2), "stage 2: expansion_ratios entry must be an integer >= 1, got 0"),
    ("n_head", (1, 1, 0, 1), "stage 3: n_head entry must be an integer >= 1, got 0"),
    ("attention_depth", (1, -1, 1, 1), "stage 2: attention_depth entry must be an integer >= 0, got -1"),
    ("conv_depth", (1, 1, 1, -2), "stage 4: conv_depth entry must be an integer >= 0, got -2"),
]


class TestBuild:
    def test_deterministic(self):
        a = build(SMALL, seed=42)
        b = build(SMALL, seed=42)
        for pa, pb in zip(param_arrays(a), param_arrays(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_seed_changes_weights(self):
        a = build(SMALL, seed=1)
        b = build(SMALL, seed=2)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(param_arrays(a), param_arrays(b))
        )

    def test_default_config_param_envelope(self):
        net = build(NetworkConfig(), seed=0)
        assert 1_330_000 <= param_count(net) <= 2_000_000

    def test_conv_only_param_envelope(self):
        net = build(conv_only(NetworkConfig()), seed=0)
        assert 940_000 <= param_count(net) <= 1_420_000

    def test_early_fusion_variant_builds(self):
        cfg = NetworkConfig(modalities=4, early_fusion=True)
        net = build(cfg, seed=0)
        assert param_count(net) > 0

    @pytest.mark.parametrize("cfg", [{"modalities": 2}, None, "config.json"])
    def test_not_a_config_rejected(self, cfg):
        """Parsed JSON or anything else that is not a NetworkConfig is refused with its type named."""
        with pytest.raises(ConfigError, match=f"build needs a NetworkConfig, got {type(cfg).__name__}"):
            build(cfg, seed=0)

    # entry -> (call on the wrong first argument, the kind the error names, the entry the error names)
    WRONG_KIND = {
        "forward": (lambda x: forward(x, []), "Network", "forward"),
        "flop_breakdown": (flop_breakdown, "Network", "flop_breakdown"),
        "total_flops": (total_flops, "Network", "flop_breakdown"),
        "attention_stage_flops": (attention_stage_flops, "NetworkConfig", "attention_stage_flops"),
    }

    @pytest.mark.parametrize("given", [{"modalities": 2}, None, "net", SMALL], ids=["dict", "None", "str", "config"])
    @pytest.mark.parametrize("entry", list(WRONG_KIND))
    def test_first_argument_of_wrong_kind_named(self, entry, given):
        """A config where a network belongs, or the reverse, is a ConfigError naming both kinds."""
        call, kind, named = self.WRONG_KIND[entry]
        if kind == "NetworkConfig" and given is SMALL:
            given = build(SMALL, seed=0)
        with pytest.raises(ConfigError, match=f"^{named} needs a {kind}, got {type(given).__name__}$"):
            call(given)

    @pytest.mark.parametrize("volumes", [5, None, (v for v in ()), np.array(1.0)], ids=["int", "None", "gen", "0d"])
    def test_volumes_without_length_rejected(self, volumes):
        with pytest.raises(ShapeError, match=f"volumes must be a sequence of 2 arrays, got {type(volumes).__name__}"):
            forward(build(SMALL, seed=0), volumes)

    def test_group_divisibility_error_names_stage(self):
        with pytest.raises(ConfigError, match="stage 3"):
            replace(SMALL, group_sizes=(4, 8, 7, 16))

    def test_branch_feasibility_error(self):
        with pytest.raises(ConfigError, match="stage 1"):
            replace(SMALL, stage_widths=(8, 32, 64, 128), group_sizes=(4, 8, 8, 16))

    def test_rate_error_names_stage(self):
        """The rate rule comes from ``window_schedule``, wrapped as a ConfigError."""
        with pytest.raises(ConfigError, match="stage 1: .*expansion rate r must be an integer >= 2, got 1"):
            build(replace(SMALL, r=1), seed=0)

    def test_bad_extent_rejected(self):
        with pytest.raises((ConfigError, ShapeError)):
            build(replace(SMALL, input_extent=(48, 48, 48)), seed=0)

    @pytest.mark.parametrize(
        "field, value, message", INVALID_FIELDS, ids=[f"{field}={value}" for field, value, _ in INVALID_FIELDS]
    )
    def test_invalid_field_rejected(self, field, value, message):
        """Each rule raises a ConfigError naming the field or value when the config is made, by either path.

        So ``attention_stage_flops`` and the schedule never meet a config that ``build`` would reject.
        """
        with pytest.raises(ConfigError, match=message):
            NetworkConfig(**{**asdict(SMALL), field: value})
        with pytest.raises(ConfigError, match=message):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "0", None, np.nan])
    def test_bad_seed_named(self, seed):
        with pytest.raises(DomainError, match=f"seed must be an integer >= 0, got {re.escape(repr(seed))}"):
            build(SMALL, seed=seed)

    def test_integral_seed_accepted(self):
        """3.0 and np.int64(3) build the network seed 3 builds."""
        want = param_arrays(build(SMALL, seed=3))
        for seed in (3.0, np.int64(3)):
            for got, ref in zip(param_arrays(build(SMALL, seed=seed)), want):
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("cfg", [SMALL, replace(SMALL, decoder_depth=2)], ids=["depth1", "depth2"])
    def test_decoder_fuse_projects_concat_to_level_width(self, cfg):
        """Each level's fuse maps [upsampled, skip] channels to the width its blocks take."""
        net = build(cfg, seed=0)
        for dec, k in zip(net.decoder, (2, 1, 0)):
            c_src, c = cfg.stage_widths[k + 1], cfg.stage_widths[k]
            assert (dec.fuse.c_out, dec.fuse.c_in, dec.fuse.kernel) == (c, c_src + c, 1)
            assert [blk.channels for blk in dec.blocks] == [c] * cfg.decoder_depth

    def test_stage_extents(self):
        cfg = NetworkConfig()
        assert cfg.stage_extents() == ((24, 24, 24), (12, 12, 12), (6, 6, 6), (3, 3, 3))


class TestForward:
    def test_shape_and_finiteness(self):
        net = build(SMALL, seed=0)
        rng = np.random.default_rng(0)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        logits = forward(net, vols)
        assert logits.shape == (2, 32, 32, 32)
        assert np.all(np.isfinite(logits))

    def test_zero_input_constant_logits(self):
        """Zero volumes with zero-initialized biases propagate to constant maps."""
        net = build(SMALL, seed=3)
        vols = [np.zeros((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        logits = forward(net, vols)
        for c in range(2):
            assert np.all(logits[c] == logits[c].flat[0])

    def test_deterministic_bit_exact(self):
        net = build(SMALL, seed=1)
        rng = np.random.default_rng(5)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        np.testing.assert_array_equal(forward(net, vols), forward(net, vols))

    def test_modality_order_matters(self):
        net = build(SMALL, seed=2)
        rng = np.random.default_rng(6)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        assert not np.allclose(forward(net, vols), forward(net, vols[::-1]))

    def test_extent_checked_before_compute(self):
        net = build(SMALL, seed=0)
        bad = [np.zeros((1, 48, 32, 32), dtype=np.float32) for _ in range(2)]
        with pytest.raises(ShapeError, match="built for extent"):
            forward(net, bad)

    def test_modality_count_checked(self):
        net = build(SMALL, seed=0)
        with pytest.raises(ShapeError):
            forward(net, [np.zeros((1, 32, 32, 32), dtype=np.float32)])

    def test_conv_only_runs(self):
        net = build(conv_only(SMALL), seed=0)
        rng = np.random.default_rng(7)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        assert forward(net, vols).shape == (2, 32, 32, 32)

    def test_default_config_64_cube(self):
        cfg = NetworkConfig(input_extent=(64, 64, 64))
        net = build(cfg, seed=0)
        rng = np.random.default_rng(8)
        vols = [rng.standard_normal((1, 64, 64, 64), dtype=np.float32) for _ in range(2)]
        logits = forward(net, vols)
        assert logits.shape == (2, 64, 64, 64)
        assert np.all(np.isfinite(logits))

    def test_early_fusion_forward(self):
        cfg = replace(SMALL, modalities=4, early_fusion=True)
        net = build(cfg, seed=0)
        rng = np.random.default_rng(9)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(4)]
        assert forward(net, vols).shape == (2, 32, 32, 32)

    def test_peak_memory_below_stem_buffers(self):
        """At its peak one forward holds the mixed tensor and the concatenated
        volumes, and at most 4 MiB besides; the stem buffers are gone by then."""
        cfg = NetworkConfig(modalities=4, input_extent=(64, 64, 64))
        net = build(cfg, seed=0)
        rng = np.random.default_rng(12)
        vols = [rng.standard_normal((1, *cfg.input_extent), dtype=np.float32) for _ in range(cfg.modalities)]
        voxel_bytes = 64**3 * np.dtype(np.float32).itemsize
        bound = (cfg.stage_widths[0] + cfg.modalities) * voxel_bytes + 4 * 2**20
        tracemalloc.start()
        try:
            forward(net, vols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB >= {bound / 2**20:.1f} MiB"

    @pytest.mark.parametrize("modalities", [1, 2])
    def test_inputs_untouched(self, modalities):
        net = build(replace(SMALL, modalities=modalities), seed=0)
        rng = np.random.default_rng(13)
        vols = [rng.standard_normal((1, 32, 32, 32), dtype=np.float32) for _ in range(modalities)]
        before = [v.copy() for v in vols]
        forward(net, vols)
        for v, b in zip(vols, before):
            np.testing.assert_array_equal(v, b)

    def test_non_finite_volume_rejected(self):
        net = build(SMALL, seed=0)
        vols = [np.zeros((1, 32, 32, 32), dtype=np.float32) for _ in range(2)]
        vols[1][0, 3, 4, 5] = np.nan
        with pytest.raises(NonFiniteError, match="modality 1"):
            forward(net, vols)


def row_major_downsample(x, p):
    """The patchify conv as [P, C_in*s^3] columns times the transposed weight."""
    c_in, d, h, w = x.shape
    s = p.stride
    x7 = x.reshape(c_in, d // s, s, h // s, s, w // s, s)
    cols = np.ascontiguousarray(x7.transpose(1, 3, 5, 0, 2, 4, 6)).reshape(-1, c_in * s**3)
    out = cols @ p.weight.reshape(p.c_out, -1).T + p.bias
    return np.ascontiguousarray(out.T).reshape(p.c_out, d // s, h // s, w // s)


# The 32 x 16 x 24 shapes run as one product.  The stride-4 stem shapes at
# 96 x 96 x 96 and 40 x 96 x 96, and 16 channels at 64^3, build their patch
# columns in several slabs; at 40 x 96 x 96 with two channels the last slab
# holds fewer planes than the others.
DOWNSAMPLE_CASES = [(c_in, stride, (32, 16, 24)) for c_in in (1, 16, 32) for stride in (2, 4)] + [
    (c_in, 4, extent) for c_in in (1, 2, 16) for extent in ((96, 96, 96), (64, 64, 64), (40, 96, 96))
]

DOWNSAMPLE_IDS = [
    f"{c_in}-{stride}" + ("" if extent == (32, 16, 24) else "-" + "x".join(map(str, extent)))
    for c_in, stride, extent in DOWNSAMPLE_CASES
]


def shuffle_then_head(net, x):
    """Expansion, shuffle to full resolution, then the head at full resolution."""
    x = voxel_shuffle(pointwise_conv(x, net.final_expand), net.config.patch_stride)
    return pointwise_conv(x, net.head)


class TestFastPaths:
    """The column-major patchify and the head-before-shuffle order only move
    data or permute independent dot products, so they are bit-exact."""

    @pytest.mark.parametrize("c_in, stride, extent", DOWNSAMPLE_CASES, ids=DOWNSAMPLE_IDS)
    def test_downsample_matches_row_major(self, c_in, stride, extent):
        rng = np.random.default_rng(10 * stride + c_in)
        p = ConvParams(
            weight=rng.standard_normal((24, c_in, stride, stride, stride)).astype(np.float32),
            bias=rng.standard_normal(24).astype(np.float32),
            stride=stride,
        )
        x = rng.standard_normal((c_in, *extent)).astype(np.float32)
        got = downsample_conv(x, p)
        assert got.shape == (24, *(e // stride for e in extent))
        np.testing.assert_array_equal(got, row_major_downsample(x, p))

    @pytest.mark.parametrize(
        "cfg",
        [
            NetworkConfig(),
            replace(SMALL, head_width=3, num_classes=5, patch_stride=2),
        ],
        ids=["default", "head3_classes5_stride2"],
    )
    def test_head_before_shuffle(self, cfg, monkeypatch):
        net = build(cfg, seed=4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((cfg.stage_widths[0], *cfg.stage_extents()[0])).astype(np.float32)
        np.testing.assert_array_equal(network._head_forward(net, x), shuffle_then_head(net, x))

        vols = [rng.standard_normal((1, *cfg.input_extent), dtype=np.float32) for _ in range(cfg.modalities)]
        fast = forward(net, vols)
        assert fast.shape == (cfg.num_classes, *cfg.input_extent)
        monkeypatch.setattr(network, "_head_forward", shuffle_then_head)
        np.testing.assert_array_equal(fast, forward(net, vols))


    @pytest.mark.parametrize(
        "p",
        [
            ConvParams(weight=np.ones((4, 1, 1, 1, 1), dtype=np.float32), groups=4),
            ConvParams(weight=np.ones((4, 4, 3, 3, 3), dtype=np.float32)),
        ],
        ids=["grouped", "stride1_kernel3"],
    )
    def test_downsample_rejects_non_patchify_conv(self, p):
        with pytest.raises(ConfigError, match="kernel == stride"):
            downsample_conv(np.zeros((4, 8, 8, 8), dtype=np.float32), p)

    @pytest.mark.parametrize("shape", [(2, 8, 8), (1, 2, 8, 8, 8)], ids=["rank3", "rank5"])
    def test_downsample_rejects_wrong_rank(self, shape):
        p = ConvParams(weight=np.ones((4, 2, 2, 2, 2), dtype=np.float32), stride=2)
        with pytest.raises(ShapeError, match=f"rank {len(shape)}"):
            downsample_conv(np.zeros(shape, dtype=np.float32), p)


class TestConvDtype:
    """Both conv kernels compute and return DTYPE: a float64 input gives the call on its float32 rounding."""

    @pytest.mark.parametrize("kernel, stride", [(1, 1), (3, 1), (5, 1), (2, 2)],
                             ids=["k1", "k3", "k5", "patchify_s2"])
    def test_float64_input_equals_rounded_input(self, kernel, stride):
        rng = np.random.default_rng(kernel * 7 + stride)
        groups = 2 if stride == 1 else 1
        p = ConvParams(
            weight=rng.standard_normal((4, 6 // groups, kernel, kernel, kernel)).astype(np.float32),
            bias=rng.standard_normal(4).astype(np.float32),
            groups=groups,
            stride=stride,
        )
        x64 = rng.standard_normal((6, 6, 8, 4))
        conv = conv3d if stride == 1 else downsample_conv
        got = conv(x64, p)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, conv(x64.astype(np.float32), p))


class TestCounting:
    @pytest.mark.parametrize(
        "cfg",
        [NetworkConfig(), NetworkConfig(modalities=4, early_fusion=True)],
        ids=["default", "m4_early_fusion"],
    )
    def test_param_walk_yields_each_array_once(self, cfg):
        arrays = list(param_arrays(build(cfg, seed=0)))
        assert len({id(a) for a in arrays}) == len(arrays)

    def test_pointwise_conv_closed_form(self):
        """Single 16->16 pointwise conv over 24^3: the documented cost identity."""
        from pwseg.network import _conv_flops

        p = ConvParams(
            weight=np.zeros((16, 16, 1, 1, 1), dtype=np.float32),
            bias=np.zeros(16, dtype=np.float32),
        )
        assert param_count(p) == 16 * 16 + 16
        n = 24**3
        assert _conv_flops(n, p) == 2 * 16 * 16 * n + 16 * n

    def test_param_count_matches_symbolic_oracle(self):
        for cfg in (NetworkConfig(), conv_only(NetworkConfig()), SMALL,
                    NetworkConfig(modalities=4, early_fusion=True)):
            net = build(cfg, seed=0)
            assert param_count(net) == symbolic_param_count(cfg)

    def test_attention_stage_flops_uses_cost_model(self):
        cfg = NetworkConfig()
        per_stage = attention_stage_flops(cfg)
        for k, got in enumerate(per_stage):
            sched = cfg.stage_schedules[k]
            want = pwa_flops(cfg.stage_extents()[k], sched, cfg.stage_widths[k], cfg.modalities)
            assert got == want * cfg.attention_depth[k]

    def test_rate_below_two_fails_fast(self):
        """A config with r=1 cannot be made, so neither the cost model nor the schedule meets one."""
        with pytest.raises(ConfigError, match="stage 1: .*expansion rate r must be an integer >= 2, got 1") as caught:
            NetworkConfig(r=1)
        assert isinstance(caught.value.__cause__, ScheduleError)

    def test_conv_only_disables_attention_costs(self):
        cfg = conv_only(NetworkConfig())
        net = build(cfg, seed=0)
        assert flop_breakdown(net)["attention"] == 0
        assert total_flops(net) > 0

    def test_flops_scale_with_extent(self):
        net = build(conv_only(NetworkConfig(input_extent=(32, 32, 32))), seed=0)
        small = total_flops(net, (32, 32, 32))
        big = total_flops(net, (64, 64, 64))
        assert 6.0 <= big / small <= 8.5  # ~8x voxels, minus fixed per-voxel terms


# The five seed-3 configs of the walk tests, all built at 32^3.
WALK_BASE = NetworkConfig(input_extent=(32, 32, 32))
WALK_CONFIGS = {
    "default": WALK_BASE,
    "m4": replace(WALK_BASE, modalities=4),
    "m4_early_fusion": replace(WALK_BASE, modalities=4, early_fusion=True),
    "conv_only": conv_only(WALK_BASE),
    "narrow_head": replace(WALK_BASE, head_width=3, num_classes=5, patch_stride=2,
                           conv_depth=(1, 1, 1, 1), decoder_depth=2),
}
WALK_CALLEES = ("pointwise_conv", "gelu", "downsample_conv", "jlc_forward", "pwa_forward", "layer_norm",
                "voxel_shuffle")
FLOP_GROUPS = ("stem", "encoder_conv", "attention", "fusion", "downsample", "decoder", "head")
# config -> (forward calls, param_count, flop_breakdown at 32^3, flop_breakdown at 64^3), values
# in FLOP_GROUPS order, as computed by the hand-written per-group sums the walk replaced.
PINNED_COSTS = {
    "default": (78, 1266718,
                (22044672, 14662400, 13618176, 502400, 2760576, 10119680, 4915200),
                (176357376, 117299200, 170213376, 4019200, 22084608, 80957440, 39321600)),
    "m4": (118, 1414986,
           (26255360, 14662400, 38838272, 502400, 4600960, 10119680, 4915200),
           (210042880, 117299200, 555515904, 4019200, 36807680, 80957440, 39321600)),
    "m4_early_fusion": (58, 1245051,
                        (38813696, 14662400, 5358848, 502400, 1840384, 10119680, 4915200),
                        (310509568, 117299200, 58220544, 4019200, 14723072, 80957440, 39321600)),
    "conv_only": (42, 1038698,
                  (22044672, 14662400, 0, 502400, 2760576, 10119680, 4915200),
                  (176357376, 117299200, 0, 4019200, 22084608, 80957440, 39321600)),
    "narrow_head": (76, 2008892,
                    (22216704, 57436160, 170213376, 4019200, 22084608, 135966720, 4390912),
                    (177733632, 459489280, 1441529856, 32153600, 176676864, 1087733760, 35127296)),
}


def recorded_forward_calls(monkeypatch, net):
    """(callee, id(params) or None, input shape) per module-level call ``forward`` makes."""
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            first = args[0][0] if name == "pwa_forward" else args[0]
            params = None if name in ("gelu", "voxel_shuffle") else id(args[1])
            calls.append((name, params, first.shape))
            return fn(*args, **kwargs)

        return wrapper

    for name in WALK_CALLEES:
        monkeypatch.setattr(network, name, wrap(name, getattr(network, name)))
    rng = np.random.default_rng(11)
    cfg = net.config
    volumes = [rng.standard_normal((1, *cfg.input_extent)).astype(np.float32) for _ in range(cfg.modalities)]
    forward(net, volumes)
    return calls


class TestWalk:
    """``flop_breakdown`` sums ``_walk``, and ``_walk`` lists ``forward``'s calls."""

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_walk_equals_forward_calls(self, monkeypatch, name):
        net = build(WALK_CONFIGS[name], seed=3)
        walked = [
            (callee, None if params is None else id(params), shape)
            for _, callee, params, shape, _ in network._walk(net)
        ]
        recorded = recorded_forward_calls(monkeypatch, net)
        assert len(recorded) == PINNED_COSTS[name][0]
        assert walked == recorded

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_costs_pinned(self, name):
        net = build(WALK_CONFIGS[name], seed=3)
        _, params, at_build, at_64 = PINNED_COSTS[name]
        assert param_count(net) == params
        assert list(flop_breakdown(net).items()) == list(zip(FLOP_GROUPS, at_build))
        assert list(flop_breakdown(net, (64, 64, 64)).items()) == list(zip(FLOP_GROUPS, at_64))

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_extent_argument_equals_build_at_extent(self, name):
        """Costing a net at another extent equals costing the net built there."""
        cfg = WALK_CONFIGS[name]
        at_64 = replace(cfg, input_extent=(64, 64, 64))
        assert flop_breakdown(build(cfg, seed=3), (64, 64, 64)) == flop_breakdown(build(at_64, seed=3))

    def test_array_extent_equals_tuple(self):
        net = build(WALK_BASE, seed=3)
        extent = np.array([64, 64, 64])
        assert flop_breakdown(net, extent) == flop_breakdown(net, (64, 64, 64))

    def test_empty_extent_rejected(self):
        """An empty extent is not the build extent."""
        with pytest.raises(ShapeError, match="triple"):
            flop_breakdown(build(WALK_BASE, seed=3), ())


def as_float64(a):
    return a.astype(np.float64)


def float64_params(obj, cast=as_float64):
    """``obj`` with every parameter dataclass remade and every array ``cast`` to float64; configs untouched."""
    if isinstance(obj, np.ndarray):
        return cast(obj)
    if isinstance(obj, tuple):
        return tuple(float64_params(item, cast) for item in obj)
    if is_dataclass(obj) and not isinstance(obj, NetworkConfig):
        return replace(obj, **{f.name: float64_params(getattr(obj, f.name), cast) for f in fields(obj)})
    return obj


def off_grid(steps, seed=0):
    """A float64 cast that moves each element by a relative ``steps``·2⁻³⁰, with a seeded sign per element.

    The move is under a float32 half-ulp (2⁻²⁵), so it lives only in float64.  The same seed gives
    the same signs to the same sequence of arrays, so ``off_grid(2)`` moves each element twice as far
    as ``off_grid(1)``.
    """
    rng = np.random.default_rng(seed)
    return lambda a: a.astype(np.float64) * (1 + steps * 2.0**-30 * rng.choice((-1.0, 1.0), a.shape))


TWIN_MODULES = (tensor, network, jlc, pwa)
# Array kernels the forward calls through network, jlc and pwa; the twin checks each one's output.
TWIN_KERNELS = ("conv3d", "pointwise_conv", "downsample_conv", "layer_norm", "instance_norm", "gelu",
                "max_pool3", "softmax_rows", "voxel_shuffle", "gather", "grouped_attention", "scatter",
                "jlc_forward", "pwa_forward")


def float64_only(name, fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        for a in out if isinstance(out, list) else [out]:
            assert a.dtype == np.float64, f"{name} returned {a.dtype} in the float64 twin"
        return out

    return wrapper


def float64_twin_logits(net, vols, cast=as_float64):
    """Logits of ``net``'s float64 twin: ``DTYPE`` is float64 in every engine module while the
    twin is made and run, then restored.  Every kernel output must be float64: a kernel that
    bound ``DTYPE`` early would otherwise be hidden by the next conv, which rounds to ``DTYPE``.
    ``cast`` turns each parameter array, then each input volume, into the twin's float64 array."""
    with pytest.MonkeyPatch.context() as mp:
        for module in TWIN_MODULES:
            mp.setattr(module, "DTYPE", np.float64)
            for name in TWIN_KERNELS:
                if module is not tensor and hasattr(module, name):
                    mp.setattr(module, name, float64_only(name, getattr(module, name)))
        twin = float64_params(net, cast)
        assert all(a.dtype == np.float64 for a in param_arrays(twin))
        logits = forward(twin, [cast(v) for v in vols])
    assert logits.dtype == np.float64
    assert all(module.DTYPE is np.float32 for module in TWIN_MODULES)
    return logits


class TestFloat64Twin:
    """The float32 forward against its float64 twin: the rounding reference for paths that change rounding."""

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_float32_error_below_ceiling(self, name):
        """max|f32 - f64| / max|f64| stays below 2e-6.

        Read when the twin was added: default 4.9e-7, m4 4.5e-7, m4_early_fusion 4.8e-7,
        conv_only 6.7e-7, narrow_head 6.0e-7.
        """
        cfg = WALK_CONFIGS[name]
        net = build(cfg, seed=3)
        rng = np.random.default_rng(11)
        vols = [rng.standard_normal((1, *cfg.input_extent), dtype=np.float32) for _ in range(cfg.modalities)]
        before = forward(net, vols)
        ref = float64_twin_logits(net, vols)
        assert np.max(np.abs(before - ref)) / np.max(np.abs(ref)) < 2e-6
        after = forward(net, vols)
        assert after.dtype == np.float32
        np.testing.assert_array_equal(after, before)

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_twin_is_float64_throughout(self, name):
        """Operands moved off the float32 grid by a relative 2⁻³⁰ move the twin's logits by about
        that much, and twice the move doubles the change.

        A float32 step anywhere inside the twin would round the move to 0 or to a float32 ulp, and
        the network's rounding at 2⁻²⁴ stays under the 2e-6 ceiling above, so that test cannot see
        it.  Read when added: the change is 3.6-4.4 times 2⁻³⁰ of max|logits|, off linear by
        5e-7 to 7e-7 of itself; with ``conv3d``'s padded buffer held in float32 (a mutation) 44-66
        times and 1.4-1.7.
        """
        cfg = WALK_CONFIGS[name]
        net = build(cfg, seed=3)
        rng = np.random.default_rng(11)
        vols = [rng.standard_normal((1, *cfg.input_extent), dtype=np.float32) for _ in range(cfg.modalities)]
        base = float64_twin_logits(net, vols)
        once, twice = (float64_twin_logits(net, vols, off_grid(steps)) - base for steps in (1, 2))
        assert np.max(np.abs(once)) <= 16 * 2.0**-30 * np.max(np.abs(base))
        assert np.max(np.abs(twice - 2 * once)) <= 1e-4 * np.max(np.abs(once))


class TestConvFoldGate:
    """The network half of the two-precision gate for ``conv3d``'s x-tap fold: in float64 the
    forward through ``conv3d`` and through the per-group tap loop it replaced agree, so only
    rounding moved.  ``TestFloat64Twin`` bounds the float32 rounding itself."""

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_float64_logits_match_per_group_conv(self, name, monkeypatch):
        cfg = WALK_CONFIGS[name]
        net = build(cfg, seed=3)
        rng = np.random.default_rng(11)
        vols = [rng.standard_normal((1, *cfg.input_extent), dtype=np.float32) for _ in range(cfg.modalities)]
        folded = float64_twin_logits(net, vols)
        for module in (tensor, jlc):
            monkeypatch.setattr(module, "conv3d", per_group_conv3d)
        tap_loop = float64_twin_logits(net, vols)
        assert np.max(np.abs(folded - tap_loop)) <= 1e-12 * np.max(np.abs(tap_loop))


# One payload of the wrong JSON kind per NetworkConfig field.
WRONG_KIND = {
    "modalities": "2",
    "num_classes": 2.5,
    "input_extent": 96,
    "stage_widths": [16, 32, "64", 128],
    "group_sizes": [4, 8, 8, True],
    "kernels": [1, 3, 5.5],
    "attention_depth": [1, 1, None, 1],
    "conv_depth": "2,2,2,3",
    "decoder_depth": [1],
    "expansion_ratios": [3, 3, 2, [2]],
    "big_window_minima": [[3, 3, 3], [6, 6.5, 6], [3, 3, 3], [3, 3, 3]],
    "small_window_minima": [[1, 1, 1], 1, [1, 1, 1], [1, 1, 1]],
    "r": True,
    "c_min": None,
    "n_head": {"1": 1},
    "head_width": "4",
    "patch_stride": 4.5,
    "early_fusion": 1,
}

# The bad entry inside each list payload of WRONG_KIND; any other payload is bad as a whole.
WRONG_ENTRY = {
    "stage_widths": "64",
    "group_sizes": True,
    "kernels": 5.5,
    "attention_depth": None,
    "expansion_ratios": [2],
    "big_window_minima": 6.5,
    "small_window_minima": 1,
}

# One mistyped value per field for a config made in Python; each fails when the config is
# made, with a ConfigError naming the field rather than a bare TypeError or a callee's message.
PYTHON_PROBES = [
    ("modalities", True),
    ("stage_widths", "abcd"),
    ("decoder_depth", 1.5),
    ("head_width", "4"),
    ("r", 2.5),
    ("c_min", 8.5),
    ("early_fusion", 1),
    ("big_window_minima", ((3, 3, 3.5),) * 4),
    ("small_window_minima", ((1, 1, 1.5),) * 4),
]


def _tuples(value):
    """``value`` with every list, at any depth, made a tuple: the Python form of a JSON payload."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


class TestConfigJson:
    def test_roundtrip(self):
        cfg = NetworkConfig()
        payload = json.loads(json.dumps(asdict(cfg), default=list))
        assert config_from_dict(payload) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"stage_width": [16, 32, 64, 128]})

    def test_partial_config_uses_defaults(self):
        cfg = config_from_dict({"modalities": 1})
        assert cfg.modalities == 1
        assert cfg.stage_widths == (16, 32, 64, 128)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"early_fusion": "false"}, "early_fusion"),
            ({"early_fusion": 0}, "early_fusion"),
            ({"num_classes": 2.5}, "num_classes"),
            ({"num_classes": True}, "num_classes"),
            ({"modalities": "2"}, "modalities"),
            ({"stage_widths": [16, 32, "64", 128]}, "stage_widths"),
            ({"input_extent": 96}, "input_extent"),
            ({"big_window_minima": [[3, 3, 3], [6, 6.5, 6], [3, 3, 3], [3, 3, 3]]}, "big_window_minima"),
            ([1, 2], "JSON object"),
        ],
    )
    def test_mistyped_field_named(self, payload, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "field, entry", [("small_window_minima", [1, 1, 1, 1]), ("big_window_minima", [3, 3])]
    )
    def test_window_minima_entries_must_be_triples(self, field, entry):
        """Too long or too short an entry fails when the config is made, naming the stage and field."""
        minima = [list(t) for t in getattr(SMALL, field)]
        minima[2] = entry
        with pytest.raises(ConfigError, match=f"stage 3: {field}"):
            config_from_dict({"input_extent": [32, 32, 32], field: minima})
        with pytest.raises(ConfigError, match=f"stage 3: {field}"):
            replace(SMALL, **{field: _tuples(minima)})

    @pytest.mark.parametrize("field", sorted(NetworkConfig.__dataclass_fields__))
    def test_every_field_rejects_wrong_kind(self, field):
        """Each field's kind follows its default; a field missing from the table fails here.

        A config from JSON and one made in Python (lists given as tuples) fail
        alike: the error names the field and the bad entry and shows the value as given.
        """
        bad = WRONG_ENTRY.get(field, WRONG_KIND[field])
        for make, form in ((config_from_dict, lambda v: v), (lambda p: NetworkConfig(**p), _tuples)):
            value = form(WRONG_KIND[field])
            with pytest.raises(ConfigError) as caught:
                make({field: value})
            named = f" entry {form(bad)!r}" if field in WRONG_ENTRY else ""
            assert str(caught.value).startswith(f"config field '{field}'{named} must be ")
            assert str(caught.value).endswith(f"got {value!r}")

    @pytest.mark.parametrize("field, value", PYTHON_PROBES, ids=[field for field, _ in PYTHON_PROBES])
    def test_python_config_field_named(self, field, value):
        """A config made in Python fails when it is made, naming the field, not in ``build``."""
        with pytest.raises(ConfigError, match=f"config field '{field}'"):
            build(NetworkConfig(**{**asdict(SMALL), field: value}), seed=0)

    def test_integral_numbers_accepted(self):
        cfg = config_from_dict({"num_classes": 3.0, "early_fusion": False})
        assert cfg.num_classes == 3 and type(cfg.num_classes) is int
        assert cfg.early_fusion is False

    def test_python_numbers_normalised(self):
        """Integral floats and numpy ints from Python read as ints, numpy bools as bools, as from JSON."""
        cfg = NetworkConfig(modalities=2.0, stage_widths=(16.0, 32, 64, 128), r=np.int64(2), early_fusion=np.True_)
        assert (cfg.modalities, cfg.stage_widths, cfg.r, cfg.early_fusion) == (2, (16, 32, 64, 128), 2, True)
        assert all(type(v) is int for v in (cfg.modalities, *cfg.stage_widths, cfg.r))
        assert cfg.early_fusion is True
        payload = {"modalities": 2.0, "stage_widths": [16.0, 32, 64, 128], "r": 2, "early_fusion": True}
        assert cfg == config_from_dict(payload)

    def test_readme_config_examples(self):
        """Every ``json`` block of the README is a valid config, so the documented schema cannot drift."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            config_from_dict(json.loads(block))


class TestStageSchedules:
    """A config makes its four window schedules once, when it is made; nothing else makes them."""

    def test_schedules_made_once(self, monkeypatch):
        calls = []
        window_schedule = network.window_schedule
        monkeypatch.setattr(network, "window_schedule", lambda *a, **kw: calls.append(a) or window_schedule(*a, **kw))

        def counted(action):
            """``action()`` and how many schedules it made."""
            calls.clear()
            return action(), len(calls)

        cfg, made = counted(lambda: NetworkConfig(input_extent=(32, 32, 32)))
        assert made == 4
        net, made = counted(lambda: build(cfg, seed=0))
        assert made == 0
        vols = [np.zeros((1, 32, 32, 32), dtype=np.float32)] * cfg.modalities
        assert counted(lambda: forward(net, vols))[1] == 0
        assert counted(lambda: flop_breakdown(net))[1] == 0
        assert counted(lambda: attention_stage_flops(cfg))[1] == 0
        assert counted(lambda: attention_stage_flops(replace(cfg, input_extent=(64, 64, 64))))[1] == 4

    def test_replace_makes_its_own_schedules(self):
        cfg = NetworkConfig(input_extent=(32, 32, 32))
        assert cfg.stage_schedules[0].extent == (8, 8, 8)
        assert replace(cfg, input_extent=(64, 64, 64)).stage_schedules[0].extent == (16, 16, 16)

    def test_config_digest_pinned(self):
        """The cached schedules stay out of ``asdict``, so report provenance does not move."""
        assert config_digest(NetworkConfig(input_extent=(32, 32, 32))) == "95f630c7420ebb40"
        assert config_digest(NetworkConfig()) == "fda5b7af7b824c9d"
