"""Paired-window attention tests: schedules, gather/scatter, attention, cost."""

import copy
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest

from pwseg import pwa
from pwseg.errors import ConfigError, ScheduleError, ShapeError
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
from pwseg.tensor import ConvParams, max_pool3, softmax_rows

from test_tensor import NOT_OVERWRITABLE, window_merge, window_partition


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


def partition_then_pool_gather(xs, sched, n_head, c_hat):
    """The earlier gather: partition by the big window at full resolution, then pool."""
    per_pair = n_head * c_hat
    parts = []
    for i, (big, small) in enumerate(sched.pairs):
        per_mod = []
        for x in xs:
            pooled = max_pool3(window_partition(x[i * per_pair : (i + 1) * per_pair], big), small)
            per_mod.append(pooled.reshape(pooled.shape[0], n_head, c_hat, sched.seq_len))
        parts.append(np.concatenate(per_mod, axis=3))
    return np.concatenate(parts, axis=0)


def broadcast_then_merge_scatter(batch, sched, n_head, c_hat, modalities):
    """The earlier scatter: broadcast tokens to full-size windows, then merge them."""
    per_pair = n_head * c_hat
    seq_len = sched.seq_len
    outs = [np.empty((sched.n_win * per_pair, *sched.extent), dtype=batch.dtype) for _ in range(modalities)]
    offset = 0
    for i, ((big, small), n_i) in enumerate(zip(sched.pairs, sched.window_counts())):
        blk = batch[offset : offset + n_i]
        offset += n_i
        for m in range(modalities):
            tokens = np.ascontiguousarray(blk[..., m * seq_len : (m + 1) * seq_len])
            td, th, tw = sched.tokens_per_axis
            view = tokens.reshape(n_i, per_pair, td, th, tw)[:, :, :, None, :, None, :, None]
            full = np.broadcast_to(view, (n_i, per_pair, td, small[0], th, small[1], tw, small[2]))
            full = np.ascontiguousarray(full).reshape(n_i, per_pair, *big)
            outs[m][i * per_pair : (i + 1) * per_pair] = window_merge(full, sched.extent)
    return outs


# (extent, big1, small1): anisotropic small windows, one to three pairs
POOLED_SCHEDULES = [
    ((16, 8, 32), (4, 2, 8), (2, 1, 4)),
    ((12, 6, 6), (6, 3, 3), (3, 1, 3)),
    ((8, 8, 8), (2, 2, 2), (1, 1, 1)),
    ((4, 8, 2), (4, 8, 2), (1, 2, 2)),
]


class TestTokenResolutionPaths:
    """Pool-first gather and token-resolution scatter equal the full-resolution paths bit for bit."""

    @pytest.mark.parametrize("extent, big1, small1", POOLED_SCHEDULES)
    @pytest.mark.parametrize("modalities", [1, 2, 4])
    def test_gather_matches_partition_then_pool(self, extent, big1, small1, modalities):
        rng = np.random.default_rng(modalities * 31 + extent[0])
        sched = window_schedule(extent, big1, small1)
        n_head, c_hat = 2, 3
        xs = [
            rng.standard_normal((sched.n_win * n_head * c_hat, *extent)).astype(np.float32)
            for _ in range(modalities)
        ]
        np.testing.assert_array_equal(
            gather(xs, sched, n_head, c_hat), partition_then_pool_gather(xs, sched, n_head, c_hat)
        )

    @pytest.mark.parametrize("extent, big1, small1", POOLED_SCHEDULES)
    @pytest.mark.parametrize("modalities", [1, 2, 4])
    def test_scatter_matches_broadcast_then_merge(self, extent, big1, small1, modalities):
        rng = np.random.default_rng(modalities * 37 + extent[1])
        sched = window_schedule(extent, big1, small1)
        n_head, c_hat = 2, 3
        batch = rng.standard_normal(
            (sum(sched.window_counts()), n_head, c_hat, modalities * sched.seq_len)
        ).astype(np.float32)
        got = scatter(batch, sched, n_head, c_hat, modalities)
        want = broadcast_then_merge_scatter(batch, sched, n_head, c_hat, modalities)
        assert len(got) == modalities
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def three_copy_gather(xs, sched, n_head, c_hat):
    """The earlier gather (checks dropped): pool, window_partition's copy, then assign."""
    per_pair = n_head * c_hat
    seq_len = sched.seq_len
    counts = sched.window_counts()
    out = np.empty((sum(counts), n_head, c_hat, len(xs) * seq_len), dtype=xs[0].dtype)
    offset = 0
    for i, ((_, small), n_i) in enumerate(zip(sched.pairs, counts)):
        rows = out[offset : offset + n_i]
        offset += n_i
        for m, x in enumerate(xs):
            pooled = max_pool3(x[i * per_pair : (i + 1) * per_pair], small)
            tokens = window_partition(pooled, sched.tokens_per_axis)
            rows[..., m * seq_len : (m + 1) * seq_len] = tokens.reshape(n_i, n_head, c_hat, seq_len)
    return out


def merge_then_repeat_scatter(batch, sched, n_head, c_hat, modalities):
    """The earlier scatter (checks dropped): window_merge's copy, then a blocked repeat."""
    counts = sched.window_counts()
    seq_len = sched.seq_len
    per_pair = n_head * c_hat
    td, th, tw = sched.tokens_per_axis
    d, h, w = sched.extent
    outs = [np.empty((sched.n_win * per_pair, d, h, w), dtype=batch.dtype) for _ in range(modalities)]
    offset = 0
    for i, ((_, (sd, sh, sw)), n_i) in enumerate(zip(sched.pairs, counts)):
        blk = batch[offset : offset + n_i]
        offset += n_i
        for m in range(modalities):
            tokens = blk[..., m * seq_len : (m + 1) * seq_len].reshape(n_i, per_pair, td, th, tw)
            grid = window_merge(tokens, (d // sd, h // sh, w // sw))
            dst = outs[m][i * per_pair : (i + 1) * per_pair]
            dst = dst.reshape(per_pair, d // sd, sd, h // sh, sh, w // sw, sw)
            dst[...] = grid[:, :, None, :, None, :, None]
    return outs


class TestOneCopyPaths:
    """One-copy gather and scatter equal the three-copy paths they replaced, bit for bit."""

    @pytest.mark.parametrize("extent, big1, small1", POOLED_SCHEDULES)
    @pytest.mark.parametrize("modalities", [1, 2, 4])
    def test_gather_matches_three_copy_gather(self, extent, big1, small1, modalities):
        rng = np.random.default_rng(modalities * 41 + extent[2])
        sched = window_schedule(extent, big1, small1)
        xs = [
            rng.standard_normal((sched.n_win * 2 * 3, *extent)).astype(np.float32)
            for _ in range(modalities)
        ]
        np.testing.assert_array_equal(gather(xs, sched, 2, 3), three_copy_gather(xs, sched, 2, 3))

    @pytest.mark.parametrize("extent, big1, small1", POOLED_SCHEDULES)
    @pytest.mark.parametrize("modalities", [1, 2, 4])
    def test_scatter_matches_merge_then_repeat(self, extent, big1, small1, modalities):
        rng = np.random.default_rng(modalities * 43 + extent[0])
        sched = window_schedule(extent, big1, small1)
        batch = rng.standard_normal(
            (sum(sched.window_counts()), 2, 3, modalities * sched.seq_len)
        ).astype(np.float32)
        got = scatter(batch, sched, 2, 3, modalities)
        want = merge_then_repeat_scatter(batch, sched, 2, 3, modalities)
        assert len(got) == modalities
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


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

    @pytest.mark.parametrize("r", [1, 0])
    def test_fit_big_window_rejects_rate_below_two(self, r):
        """No window expands at r < 2; the search would loop forever at r=1."""
        with pytest.raises(ScheduleError, match=f"expansion rate must be >= 2, got {r}"):
            fit_big_window((24, 24, 24), (3, 3, 3), r)


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

    def test_shape_mismatch(self):
        q = np.zeros((1, 1, 2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            grouped_attention(q, q, np.zeros((1, 1, 2, 4), dtype=np.float32), np.zeros((3, 3)))


def fresh_softmax_attention(q, k, v, pos_bias):
    """The earlier grouped_attention in one chunk, with the earlier fresh-temporary softmax.

    Returns the output and the attention weights.
    """
    logits = np.swapaxes(q, 2, 3) @ k
    logits *= q.dtype.type(1.0 / np.sqrt(q.shape[2]))
    logits += pos_bias
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    return v @ np.swapaxes(weights, 2, 3), weights


class TestAttentionChunks:
    """A batch split over several chunks gives the single-chunk result bit for bit."""

    def test_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(19)
        n, n_head, c_hat, tokens = 11, 2, 3, 6
        q, k, v = (rng.standard_normal((n, n_head, c_hat, tokens)).astype(np.float32) * 2 for _ in range(3))
        bias = rng.standard_normal((tokens, tokens)).astype(np.float32)
        want, want_weights = fresh_softmax_attention(q, k, v, bias)

        sink = []

        def recording_softmax(logits):
            """softmax_rows, keeping each chunk's weights."""
            sink.append(softmax_rows(logits))
            return sink[-1]

        monkeypatch.setattr(pwa, "softmax_rows", recording_softmax)
        whole = grouped_attention(q.copy(), k, v, bias)
        assert len(sink) == 1
        # four windows per chunk: chunks of 4, 4 and a remainder of 3
        monkeypatch.setattr(pwa, "_CHUNK_BUDGET", 4 * n_head * tokens * tokens)
        sink.clear()
        chunked = grouped_attention(q.copy(), k, v, bias)

        np.testing.assert_array_equal(whole, want)
        np.testing.assert_array_equal(chunked, whole)
        assert [w.shape[0] for w in sink] == [4, 4, 3]
        for a, b in combinations(sink, 2):
            assert not np.shares_memory(a, b)
        for w, start in zip(sink, (0, 4, 8)):
            np.testing.assert_array_equal(w, want_weights[start : start + w.shape[0]])

    @pytest.mark.parametrize("bias_shape", [(11, 2, 6, 6), (1, 2, 6, 6), (2, 6, 6), (3, 6, 6), (6,), (6, 5)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("windows_per_chunk", [4, 11])
    def test_bias_shape_rejected_up_front(self, monkeypatch, bias_shape, windows_per_chunk):
        """Only a [T, T] bias is accepted, whatever the chunking."""
        n, n_head, c_hat, tokens = 11, 2, 3, 6
        q = np.zeros((n, n_head, c_hat, tokens), dtype=np.float32)
        monkeypatch.setattr(pwa, "_CHUNK_BUDGET", windows_per_chunk * n_head * tokens * tokens)
        with pytest.raises(ShapeError, match="position bias shape"):
            grouped_attention(q, q, q, np.zeros(bias_shape, dtype=np.float32))


class TestAttentionInPlace:
    """grouped_attention writes the fresh-softmax result over q and returns q."""

    @pytest.mark.parametrize("alias", ["none", "k_is_q", "v_is_q"])
    @pytest.mark.parametrize("windows_per_chunk", [4, 11])
    def test_matches_fresh_softmax_attention(self, monkeypatch, alias, windows_per_chunk):
        """Returns q, bit for bit the fresh result, also when k or v is q and over several chunks."""
        rng = np.random.default_rng(29)
        n, n_head, c_hat, tokens = 11, 2, 3, 6
        q, k, v = (rng.standard_normal((n, n_head, c_hat, tokens)).astype(np.float32) * 2 for _ in range(3))
        bias = rng.standard_normal((tokens, tokens)).astype(np.float32)
        if alias == "k_is_q":
            k = q
        elif alias == "v_is_q":
            v = q
        want, _ = fresh_softmax_attention(q.copy(), k.copy(), v.copy(), bias)
        monkeypatch.setattr(pwa, "_CHUNK_BUDGET", windows_per_chunk * n_head * tokens * tokens)
        got = grouped_attention(q, k, v, bias)
        assert got is q
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("make", ["int", "read_only", "none"])
    def test_refused_before_writing(self, make):
        q = NOT_OVERWRITABLE[make](np.arange(2 * 1 * 3 * 4, dtype=np.float32).reshape(2, 1, 3, 4))
        kv = np.ones((2, 1, 3, 4), dtype=np.float32)
        before = copy.copy(q)
        with pytest.raises(ShapeError, match="grouped_attention needs a writeable float q"):
            grouped_attention(q, kv, kv, np.zeros((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(q, before)


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

    @pytest.mark.parametrize("name", ["k_proj", "v_proj"])
    def test_unequal_projection_widths_rejected(self, name):
        sched = window_schedule((24, 24, 24), (3, 3, 3))
        params = build_pwa_params(np.random.default_rng(16), 16, sched, 1, n_head=1, c_min=8)
        wider = ConvParams(weight=np.zeros((params.q_proj.c_out * 2, 16, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ConfigError, match=f"{name[0]} projection emits"):
            replace(params, **{name: wider})

    @pytest.mark.parametrize("change", [{"n_head": 0}, {"pos_bias": ()}], ids=["no_head", "no_pair"])
    def test_empty_head_grid_rejected(self, change):
        sched = window_schedule((24, 24, 24), (3, 3, 3))
        params = build_pwa_params(np.random.default_rng(16), 16, sched, 1, n_head=1, c_min=8)
        with pytest.raises(ConfigError, match=r"n_win\*n_head = 0"):
            replace(params, **change)
