"""Network assembly tests: build, forward, counting, config plumbing."""

import json
from dataclasses import replace
from math import ceil

import numpy as np
import pytest

from pwseg import network
from pwseg.errors import ConfigError, NonFiniteError, ShapeError
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
from pwseg.tensor import ConvParams, param_arrays, pointwise_conv, voxel_shuffle

SMALL = NetworkConfig(input_extent=(32, 32, 32), conv_depth=(1, 1, 1, 1))


def symbolic_param_count(cfg: NetworkConfig) -> int:
    """Closed-form parameter count recomputed from the config alone."""

    def split(c, gs):
        units = c // gs
        base, rem = divmod(units, len(cfg.kernels))
        return [(base + (1 if i < rem else 0)) * gs for i in range(len(cfg.kernels))]

    def conv(c_out, c_in, k=1, groups=1, bias=True):
        return c_out * (c_in // groups) * k**3 + (c_out if bias else 0)

    def jlc(c, gs, e, mixer_in=None):
        widths = split(c, gs)
        n = sum(conv(w, w, k, groups=w // gs) for w, k in zip(widths, cfg.kernels))
        n += 4 * c  # two norms, scale + shift each
        n += conv(e * c, c) + conv(c, e * c)
        if mixer_in is not None:
            n += conv(c, mixer_in)
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
        sched = cfg.stage_schedule(k)
        seq = m_att * sched.seq_len
        total += cfg.conv_depth[k] * jlc(c, cfg.group_sizes[k], cfg.expansion_ratios[k])
        total += cfg.attention_depth[k] * pwa(c, sched.n_win, seq, cfg.expansion_ratios[k], cfg.n_head[k])
        total += conv(c, c)  # fuse projection
        if k < 3:
            total += 2 * conv(widths[k + 1], c, 2)  # both stream downsamplers
    for k in (2, 1, 0):
        c_src, c = widths[k + 1], widths[k]
        total += conv(8 * c_src, c_src)
        total += jlc(c, cfg.group_sizes[k], cfg.expansion_ratios[k], mixer_in=c_src + c)
        total += (cfg.decoder_depth - 1) * jlc(c, cfg.group_sizes[k], cfg.expansion_ratios[k])
    total += conv(s**3 * cfg.head_width, widths[0])
    total += conv(cfg.num_classes, cfg.head_width)
    return total


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

    def test_group_divisibility_error_names_stage(self):
        cfg = replace(SMALL, group_sizes=(4, 8, 7, 16))
        with pytest.raises(ConfigError, match="stage 3"):
            build(cfg, seed=0)

    def test_branch_feasibility_error(self):
        cfg = replace(SMALL, stage_widths=(8, 32, 64, 128), group_sizes=(4, 8, 8, 16))
        with pytest.raises(ConfigError, match="stage 1"):
            build(cfg, seed=0)

    def test_bad_extent_rejected(self):
        with pytest.raises((ConfigError, ShapeError)):
            build(replace(SMALL, input_extent=(48, 48, 48)), seed=0)

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


def shuffle_then_head(net, x):
    """Expansion, shuffle to full resolution, then the head at full resolution."""
    x = voxel_shuffle(pointwise_conv(x, net.final_expand), net.config.patch_stride)
    return pointwise_conv(x, net.head)


class TestFastPaths:
    """The column-major patchify and the head-before-shuffle order only move
    data or permute independent dot products, so they are bit-exact."""

    @pytest.mark.parametrize("stride", [2, 4])
    @pytest.mark.parametrize("c_in", [1, 16, 32])
    def test_downsample_matches_row_major(self, stride, c_in):
        rng = np.random.default_rng(10 * stride + c_in)
        p = ConvParams(
            weight=rng.standard_normal((24, c_in, stride, stride, stride)).astype(np.float32),
            bias=rng.standard_normal(24).astype(np.float32),
            stride=stride,
        )
        x = rng.standard_normal((c_in, 32, 16, 24)).astype(np.float32)
        got = downsample_conv(x, p)
        assert got.shape == (24, 32 // stride, 16 // stride, 24 // stride)
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
            sched = cfg.stage_schedule(k)
            want = pwa_flops(cfg.stage_extents()[k], sched, cfg.stage_widths[k], cfg.modalities)
            assert got == want * cfg.attention_depth[k]

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


class TestConfigJson:
    def test_roundtrip(self):
        cfg = NetworkConfig()
        payload = json.loads(json.dumps(cfg.__dict__, default=list))
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
        ],
    )
    def test_mistyped_field_named(self, payload, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(payload)

    def test_integral_numbers_accepted(self):
        cfg = config_from_dict({"num_classes": 3.0, "early_fusion": False})
        assert cfg.num_classes == 3 and type(cfg.num_classes) is int
        assert cfg.early_fusion is False
