"""Paired-window attention tests: schedules, gather/scatter, attention, cost."""

from dataclasses import replace
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from pwseg.errors import ScheduleError, ShapeError
from pwseg.jl import head_channels
from pwseg.pwa import (
    CostMeter,
    build_pwa_params,
    fit_big_window,
    gather,
    grouped_attention,
    pwa_flops,
    pwa_forward,
    scatter,
    window_schedule,
)
from pwseg.tensor import ConvParams


def random_params(rng, channels, sched, modalities, n_head=1, c_min=4, scale=0.5):
    """Attention params with sizeable random weights and a random bias table."""
    params = build_pwa_params(rng, channels, sched, modalities, n_head=n_head, c_min=c_min)

    def rw(p):
        return ConvParams(
            weight=rng.normal(0, scale, p.weight.shape).astype(np.float32),
            bias=None if p.bias is None else rng.normal(0, scale, p.bias.shape).astype(np.float32),
            groups=p.groups,
        )

    seq = modalities * sched.seq_len
    tables = tuple(rng.normal(0, scale, (seq, seq)).astype(np.float32) for _ in range(sched.n_win))
    return replace(
        params,
        q_proj=rw(params.q_proj),
        k_proj=rw(params.k_proj),
        v_proj=rw(params.v_proj),
        mixer=rw(params.mixer),
        pos_bias=tables,
    )


def dense_attention_oracle(feats, params, extent):
    """Plain attention over all M*L tokens, no window machinery.

    Single-precision mirror of the attention pipeline for single-pair
    (global window, unit small window) schedules.
    """
    modalities = len(feats)
    channels = feats[0].shape[0]
    n_head, c_hat = params.n_head, params.c_hat
    seq = int(np.prod(extent))

    def ln(e):
        mu = e.mean(0)
        var = e.var(0)
        xn = (e - mu) / np.sqrt(var + np.float32(1e-5))
        return (
            xn * params.norm_scale[:, None, None, None] + params.norm_shift[:, None, None, None]
        ).astype(np.float32)

    w_q = params.q_proj.weight.reshape(-1, channels)
    w_k = params.k_proj.weight.reshape(-1, channels)
    w_v = params.v_proj.weight.reshape(-1, channels)
    w_m = params.mixer.weight.reshape(channels, -1)
    b_m = params.mixer.bias
    tokens = [ln(e).reshape(channels, seq) for e in feats]
    q = np.concatenate([w_q @ t for t in tokens], axis=1)
    k = np.concatenate([w_k @ t for t in tokens], axis=1)
    v = np.concatenate([w_v @ t for t in tokens], axis=1)
    pos = params.pos_bias[0]
    out = np.empty_like(q)
    for h in range(n_head):
        sl = slice(h * c_hat, (h + 1) * c_hat)
        logits = (q[sl].T @ k[sl]) * np.float32(1.0 / np.sqrt(c_hat)) + pos
        logits = logits - logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w = w / w.sum(axis=1, keepdims=True)
        out[sl] = v[sl] @ w.T
    results = []
    for m, e in enumerate(feats):
        mixed = w_m @ out[:, m * seq : (m + 1) * seq] + b_m[:, None]
        results.append(e + mixed.reshape(channels, *extent))
    return results


class TestWindowSchedule:
    def test_first_stage_list(self):
        s = window_schedule((24, 24, 24), (3, 3, 3))
        assert [p[0] for p in s.pairs] == [(3, 3, 3), (6, 6, 6), (12, 12, 12), (24, 24, 24)]
        assert s.n_win == 4

    def test_single_pair(self):
        s = window_schedule((3, 3, 3), (3, 3, 3))
        assert s.n_win == 1
        assert s.pairs[0][0] == (3, 3, 3)

    def test_anisotropic(self):
        s = window_schedule((32, 32, 16), (4, 4, 2))
        assert s.n_win == 4
        assert s.pairs[-1][0] == (32, 32, 16)

    def test_last_big_equals_extent(self):
        for extent, b1 in [((12, 12, 12), (3, 3, 3)), ((8, 8, 8), (2, 2, 2)), ((16, 8, 4), (4, 2, 1))]:
            s = window_schedule(extent, b1)
            assert s.pairs[-1][0] == extent

    def test_sequence_length_constant(self):
        s = window_schedule((24, 24, 24), (3, 3, 3))
        for big, small in s.pairs:
            assert prod(b // sm for b, sm in zip(big, small)) == s.seq_len

    def test_non_power_ratio_named_axis(self):
        with pytest.raises(ScheduleError, match="height"):
            window_schedule((8, 24, 8), (2, 4, 2))

    def test_non_divisible(self):
        with pytest.raises(ScheduleError, match="depth"):
            window_schedule((7, 8, 8), (2, 2, 2))

    def test_axis_disagreement(self):
        with pytest.raises(ScheduleError):
            window_schedule((8, 4, 2), (2, 2, 2))

    def test_small_must_divide_big(self):
        with pytest.raises(ScheduleError):
            window_schedule((8, 8, 8), (2, 2, 2), (3, 3, 3))

    def test_fit_big_window(self):
        assert fit_big_window((24, 24, 24), (3, 3, 3)) == (3, 3, 3)
        assert fit_big_window((12, 12, 12), (6, 6, 6)) == (6, 6, 6)
        assert fit_big_window((16, 16, 16), (3, 3, 3)) == (4, 4, 4)
        assert fit_big_window((8, 8, 8), (6, 6, 6)) == (8, 8, 8)
        assert fit_big_window((2, 2, 2), (3, 3, 3)) == (2, 2, 2)
        assert fit_big_window((32, 32, 16), (4, 4, 2)) == (4, 4, 2)


class TestGatherScatter:
    def test_gather_shape_example(self):
        rng = np.random.default_rng(0)
        sched = window_schedule((4, 4, 4), (2, 2, 2))
        assert [p for p in sched.pairs] == [((2, 2, 2), (1, 1, 1)), ((4, 4, 4), (2, 2, 2))]
        xs = [rng.standard_normal((16, 4, 4, 4)).astype(np.float32) for _ in range(2)]
        batch = gather(xs, sched, n_head=1, c_hat=8)
        assert batch.shape == (9, 1, 8, 16)

    def test_single_token_global_max(self):
        rng = np.random.default_rng(1)
        extent = (2, 2, 2)
        sched = window_schedule(extent, extent, extent)
        x = rng.standard_normal((6, *extent)).astype(np.float32)
        batch = gather([x], sched, n_head=2, c_hat=3)
        assert batch.shape == (1, 2, 3, 1)
        np.testing.assert_array_equal(batch[0].reshape(6), x.reshape(6, -1).max(axis=1))

    def test_scatter_gather_identity_unit_small(self):
        """With a single all-unit pair, scatter(gather(x)) == x bit-exactly."""
        rng = np.random.default_rng(2)
        extent = (3, 4, 2)
        sched = window_schedule(extent, extent)  # one pair, small == (1,1,1)
        xs = [rng.standard_normal((4, *extent)).astype(np.float32) for _ in range(3)]
        back = scatter(gather(xs, sched, 1, 4), sched, 1, 4, 3)
        for x, b in zip(xs, back):
            np.testing.assert_array_equal(b, x)

    def test_gather_scatter_identity_any_schedule(self):
        """gather(scatter(seq)) == seq bit-exactly even with pooled pairs."""
        rng = np.random.default_rng(3)
        sched = window_schedule((8, 8, 8), (2, 2, 2))
        n = sum(sched.window_counts())
        seq = rng.standard_normal((n, 2, 4, 2 * sched.seq_len)).astype(np.float32)
        rebuilt = gather(scatter(seq, sched, 2, 4, 2), sched, 2, 4)
        np.testing.assert_array_equal(rebuilt, seq)

    def test_broadcast_semantics(self):
        """Pooled pairs scatter their token value across each small window."""
        rng = np.random.default_rng(4)
        sched = window_schedule((4, 4, 4), (4, 4, 4), (2, 2, 2))  # one pair, s=2
        n = sum(sched.window_counts())
        seq = rng.standard_normal((n, 1, 2, sched.seq_len)).astype(np.float32)
        out = scatter(seq, sched, 1, 2, 1)[0]
        for c in range(2):
            for z in range(2):
                for y in range(2):
                    for x in range(2):
                        block = out[c, 2 * z : 2 * z + 2, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                        assert np.all(block == block.flat[0])

    def test_zero_in_zero_out(self):
        sched = window_schedule((4, 4, 4), (2, 2, 2))
        n = sum(sched.window_counts())
        out = scatter(np.zeros((n, 1, 2, 8), dtype=np.float32), sched, 1, 2, 1)
        assert np.all(out[0] == 0)

    def test_gather_channel_mismatch(self):
        sched = window_schedule((4, 4, 4), (2, 2, 2))
        with pytest.raises(ShapeError, match="projected channels"):
            gather([np.zeros((5, 4, 4, 4), dtype=np.float32)], sched, 1, 2)


class TestGroupedAttention:
    def test_uniform_weights_mean(self):
        """Constant similarity rows give uniform attention: output = token mean."""
        rng = np.random.default_rng(5)
        q = np.ones((3, 2, 4, 6), dtype=np.float32)
        k = np.ones_like(q)
        v = rng.standard_normal(q.shape).astype(np.float32)
        out = grouped_attention(q, k, v, np.zeros((6, 6), dtype=np.float32))
        want = np.broadcast_to(v.mean(axis=3, keepdims=True), v.shape)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_single_token_identity(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((4, 1, 3, 1)).astype(np.float32)
        v = rng.standard_normal(q.shape).astype(np.float32)
        out = grouped_attention(q, q, v, np.zeros((1, 1), dtype=np.float32))
        np.testing.assert_array_equal(out, v)

    def test_saturating_bias_selects_diagonal(self):
        rng = np.random.default_rng(7)
        t = 5
        q = rng.standard_normal((2, 1, 3, t)).astype(np.float32) * 0.1
        k = rng.standard_normal((2, 1, 3, t)).astype(np.float32) * 0.1
        v = rng.standard_normal((2, 1, 3, t)).astype(np.float32)
        bias = np.full((t, t), -50.0, dtype=np.float32)
        np.fill_diagonal(bias, 0.0)
        out = grouped_attention(q, k, v, bias)
        np.testing.assert_allclose(out, v, atol=1e-4)

    def test_weight_sink_capture(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((4, 2, 3, 5)).astype(np.float32)
        sink = []
        grouped_attention(q, q, q, np.zeros((5, 5), dtype=np.float32), weight_sink=sink)
        weights = np.concatenate(sink, axis=0)
        assert weights.shape == (4, 2, 5, 5)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-5)

    def test_shape_mismatch(self):
        q = np.zeros((1, 1, 2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            grouped_attention(q, q, np.zeros((1, 1, 2, 4), dtype=np.float32), np.zeros((3, 3)))


class TestPwaForward:
    def test_zero_weights_residual_identity(self):
        rng = np.random.default_rng(9)
        sched = window_schedule((4, 4, 4), (2, 2, 2))
        params = build_pwa_params(rng, 8, sched, modalities=2, c_min=4)

        def z(p):
            return ConvParams(
                weight=np.zeros_like(p.weight),
                bias=None if p.bias is None else np.zeros_like(p.bias),
                groups=p.groups,
            )

        params = replace(params, q_proj=z(params.q_proj), k_proj=z(params.k_proj),
                         v_proj=z(params.v_proj), mixer=z(params.mixer))
        feats = [rng.standard_normal((8, 4, 4, 4)).astype(np.float32) for _ in range(2)]
        outs = pwa_forward(feats, params, sched)
        for e, o in zip(feats, outs):
            np.testing.assert_array_equal(o, e)

    def test_single_modality_finite(self):
        rng = np.random.default_rng(10)
        sched = window_schedule((6, 6, 6), (3, 3, 3))
        params = random_params(rng, 16, sched, 1, c_min=8)
        out = pwa_forward([rng.standard_normal((16, 6, 6, 6)).astype(np.float32)], params, sched)
        assert len(out) == 1 and np.all(np.isfinite(out[0]))

    def test_matches_dense_oracle_global_window(self):
        """One global pair makes the pipeline equal plain dense attention."""
        rng = np.random.default_rng(11)
        extent = (3, 3, 3)
        sched = window_schedule(extent, extent)
        params = random_params(rng, 16, sched, 2, n_head=2, c_min=4)
        feats = [rng.standard_normal((16, *extent)).astype(np.float32) for _ in range(2)]
        got = pwa_forward(feats, params, sched)
        want = dense_attention_oracle(feats, params, extent)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-5)

    def test_matches_dense_oracle_bottleneck_width(self):
        """Bottleneck-stage shape (3^3 extent, 128 channels, one pair, M=2)."""
        rng = np.random.default_rng(17)
        extent = (3, 3, 3)
        sched = window_schedule(extent, extent)
        params = random_params(rng, 128, sched, 2, n_head=1, c_min=8, scale=0.1)
        feats = [rng.standard_normal((128, *extent)).astype(np.float32) for _ in range(2)]
        got = pwa_forward(feats, params, sched)
        want = dense_attention_oracle(feats, params, extent)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-5)

    def test_extent_mismatch(self):
        rng = np.random.default_rng(13)
        sched = window_schedule((4, 4, 4), (2, 2, 2))
        params = random_params(rng, 8, sched, 1)
        with pytest.raises(ShapeError):
            pwa_forward([np.zeros((8, 8, 8, 8), dtype=np.float32)], params, sched)


class TestCostModel:
    def test_single_pair_closed_form(self):
        """kappa == 1 for one pair: cost = (N/S)(4C^2 + 2(B/S)C)."""
        sched = window_schedule((4, 4, 4), (4, 4, 4), (2, 2, 2))
        n, b, s, c = 64, 64, 8, 8
        want = (n // s) * (4 * c * c + 2 * (b // s) * c)
        assert pwa_flops((4, 4, 4), sched, c) == want

    def test_worked_value(self):
        sched = window_schedule((24, 24, 24), (3, 3, 3))
        assert sched.n_win == 4
        kappa = (1 - Fraction(1, 2**12)) / (1 - Fraction(1, 2**3))
        assert kappa == Fraction(32760, 28672)
        assert pwa_flops((24, 24, 24), sched, 16) == 29_820_960

    def test_quadratic_term_dominates_asymptotically(self):
        """Doubling C with B/S fixed drives the cost ratio toward 4."""
        sched = window_schedule((8, 8, 8), (2, 2, 2))
        prev_ratio = None
        c = 64
        while c <= 1024:
            ratio = pwa_flops((8, 8, 8), sched, 2 * c) / pwa_flops((8, 8, 8), sched, c)
            if prev_ratio is not None:
                assert abs(ratio - 4) < abs(prev_ratio - 4)
            prev_ratio = ratio
            c *= 2
        assert abs(prev_ratio - 4) < 0.02

    def test_near_linear_growth(self):
        """Scaling the volume by t^3 scales cost by t^3 up to the kappa drift."""
        base = pwa_flops((24, 24, 24), window_schedule((24, 24, 24), (3, 3, 3)), 16)
        for t in (2, 4):
            extent = (24 * t,) * 3
            scaled = pwa_flops(extent, window_schedule(extent, (3, 3, 3)), 16)
            ratio = scaled / base
            kappa_max = 1 / (1 - 2**-3)
            assert t**3 * 0.95 <= ratio <= t**3 * kappa_max * 1.05

    def test_meter_matches_formula(self):
        rng = np.random.default_rng(14)
        configs = [
            ((8, 8, 8), (2, 2, 2), 8),
            ((12, 12, 12), (3, 3, 3), 16),
            ((16, 8, 8), (4, 2, 2), 24),
            ((6, 6, 6), (3, 3, 3), 8),
            ((4, 4, 4), (4, 4, 4), 16),
        ]
        for extent, b1, c in configs:
            sched = window_schedule(extent, b1)
            params = build_pwa_params(rng, c, sched, modalities=1, c_min=4)
            feats = [rng.standard_normal((c, *extent)).astype(np.float32)]
            meter = CostMeter()
            pwa_forward(feats, params, sched, meter=meter)
            assert meter.multiplies == pwa_flops(extent, sched, c, 1)

    def test_meter_matches_formula_multimodal(self):
        rng = np.random.default_rng(15)
        extent, b1, c, m = (8, 8, 8), (2, 2, 2), 8, 3
        sched = window_schedule(extent, b1)
        params = build_pwa_params(rng, c, sched, modalities=m, c_min=4)
        feats = [rng.standard_normal((c, *extent)).astype(np.float32) for _ in range(m)]
        meter = CostMeter()
        pwa_forward(feats, params, sched, meter=meter)
        assert meter.multiplies == pwa_flops(extent, sched, c, m)

    def test_head_channels_consistency(self):
        sched = window_schedule((24, 24, 24), (3, 3, 3))
        params = build_pwa_params(np.random.default_rng(16), 16, sched, 1, n_head=1, c_min=8)
        assert params.c_hat == head_channels(16, 8, sched.n_win, 1)
        assert params.q_proj.c_out == sched.n_win * params.c_hat
