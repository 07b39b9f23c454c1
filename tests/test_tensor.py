"""Substrate tests: windowing, pooling, convolution, softmax, norms, shuffle."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwseg import tensor
from pwseg.errors import ConfigError, NonFiniteError, ShapeError
from pwseg.tensor import (
    DTYPE,
    GELU_BLOCK,
    NORM_EPS,
    ConvParams,
    _check_divisible,
    _normalize,
    as_dtype,
    conv3d,
    gelu,
    instance_norm,
    layer_norm,
    max_pool3,
    param_count,
    pointwise_conv,
    require_finite,
    softmax_rows,
    voxel_shuffle,
)


def direct_conv3d(x, weight, bias, groups):
    """Brute-force zero-padded same convolution; the independent oracle."""
    c_in, d, h, w = x.shape
    c_out, cig, k, _, _ = weight.shape
    pad = k // 2
    cog = c_out // groups
    out = np.zeros((c_out, d, h, w), dtype=np.float64)
    for o in range(c_out):
        g = o // cog
        for z in range(d):
            for y in range(h):
                for xx in range(w):
                    acc = 0.0
                    for ci in range(cig):
                        cin = g * cig + ci
                        for dz in range(k):
                            for dy in range(k):
                                for dx in range(k):
                                    zz, yy, xs = z + dz - pad, y + dy - pad, xx + dx - pad
                                    if 0 <= zz < d and 0 <= yy < h and 0 <= xs < w:
                                        acc += float(weight[o, ci, dz, dy, dx]) * float(x[cin, zz, yy, xs])
                    out[o, z, y, xx] = acc + (float(bias[o]) if bias is not None else 0.0)
    return out


def per_group_conv3d(x, p):
    """The earlier conv3d: a separate 1x1x1 path and one tap loop per group, every tap taken.

    Computes in the dtype of ``p``'s weights, so it also runs as a float64
    reference.  Kept as the oracle: k = 1 must match it bit for bit, and
    k > 1 must pass the two-precision gate against it (:func:`assert_conv_gate`).
    """
    c_in, d, h, w = x.shape
    cig, cog = c_in // p.groups, p.c_out // p.groups
    n = d * h * w
    k = p.kernel
    dt = p.weight.dtype
    if k == 1:
        flat = x.reshape(c_in, -1)
        if p.groups == 1:
            out = p.weight.reshape(p.c_out, c_in) @ flat
        else:
            out = np.empty((p.c_out, n), dtype=dt)
            for g in range(p.groups):
                wg = p.weight[g * cog : (g + 1) * cog, :, 0, 0, 0]
                out[g * cog : (g + 1) * cog] = wg @ flat[g * cig : (g + 1) * cig]
    else:
        pad = k // 2
        xp = np.zeros((c_in, d + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=dt)
        xp[:, pad : pad + d, pad : pad + h, pad : pad + w] = x
        out = np.empty((p.c_out, n), dtype=dt)
        for g in range(p.groups):
            xg = xp[g * cig : (g + 1) * cig]
            wg = p.weight[g * cog : (g + 1) * cog]
            acc = np.zeros((cog, n), dtype=dt)
            for dz in range(k):
                for dy in range(k):
                    for dx in range(k):
                        patch = xg[:, dz : dz + d, dy : dy + h, dx : dx + w].reshape(cig, n)
                        acc += wg[:, :, dz, dy, dx] @ patch
            out[g * cog : (g + 1) * cog] = acc
    out = out.reshape(p.c_out, d, h, w)
    if p.bias is not None:
        out += p.bias[:, None, None, None]
    return out


def window_partition(x: np.ndarray, window) -> np.ndarray:
    """Oracle: split [C, D, H, W] into non-overlapping [n_windows, C, bd, bh, bw] blocks.

    Windows are ordered lexicographically with the depth block index slowest
    and the width block index fastest; voxel values are only re-indexed.
    """
    if x.ndim != 4:
        raise ShapeError(f"window_partition input must be rank 4, got rank {x.ndim}")
    c, d, h, w = x.shape
    bd, bh, bw = window
    _check_divisible((d, h, w), window, "window")
    x7 = x.reshape(c, d // bd, bd, h // bh, bh, w // bw, bw)
    wins = x7.transpose(1, 3, 5, 0, 2, 4, 6)
    return np.ascontiguousarray(wins).reshape(-1, c, bd, bh, bw)


def window_merge(windows: np.ndarray, extent) -> np.ndarray:
    """Inverse of :func:`window_partition` for the given full extent."""
    if windows.ndim != 5:
        raise ShapeError(f"window_merge input must be rank 5, got rank {windows.ndim}")
    n, c, bd, bh, bw = windows.shape
    d, h, w = extent
    _check_divisible(extent, (bd, bh, bw), "window")
    nd, nh, nw = d // bd, h // bh, w // bw
    if n != nd * nh * nw:
        raise ShapeError(f"{n} windows cannot tile extent {tuple(extent)} with window {(bd, bh, bw)}")
    x7 = windows.reshape(nd, nh, nw, c, bd, bh, bw).transpose(3, 0, 4, 1, 5, 2, 6)
    return np.ascontiguousarray(x7).reshape(c, d, h, w)


class TestWindowPartition:
    def test_small_blocks(self):
        """Window 0 of a 4^3 volume split by 2^3 holds exactly the low-corner voxels."""
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        wins = window_partition(t, (2, 2, 2))
        assert wins.shape == (8, 2, 2, 2, 2)
        np.testing.assert_array_equal(wins[0], t[:, :2, :2, :2])
        # last window is the high corner (z-major, x-fastest ordering)
        np.testing.assert_array_equal(wins[-1], t[:, 2:, 2:, 2:])

    def test_identity_partition(self):
        t = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        wins = window_partition(t, (2, 2, 2))
        assert wins.shape == (1, 1, 2, 2, 2)
        np.testing.assert_array_equal(wins[0], t)

    def test_partition_merge_roundtrip(self):
        """Merging the windows back in order reproduces the input bit-exactly."""
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 6, 6, 6)).astype(np.float32)
        wins = window_partition(t, (3, 3, 3))
        assert wins.shape == (8, 3, 3, 3, 3)
        back = window_merge(wins, (6, 6, 6))
        np.testing.assert_array_equal(back, t)

    def test_lexicographic_order(self):
        """Window index advances x-fastest across the block grid."""
        t = np.arange(2 * 2 * 4, dtype=np.float32).reshape(1, 2, 2, 4)
        wins = window_partition(t, (2, 2, 2))
        np.testing.assert_array_equal(wins[0], t[:, :, :, :2])
        np.testing.assert_array_equal(wins[1], t[:, :, :, 2:])

    def test_non_divisible_named_axis(self):
        t = np.zeros((1, 4, 6, 4), dtype=np.float32)
        with pytest.raises(ShapeError, match="height"):
            window_partition(t, (2, 4, 2))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    )
    def test_roundtrip_property(self, channels, window, reps):
        extent = tuple(w * r for w, r in zip(window, reps))
        rng = np.random.default_rng(channels * 7 + sum(extent))
        t = rng.standard_normal((channels, *extent)).astype(np.float32)
        np.testing.assert_array_equal(window_merge(window_partition(t, window), extent), t)


class TestMaxPool:
    def test_block_max(self):
        t = np.arange(1, 9, dtype=np.float32).reshape(1, 2, 2, 2)
        out = max_pool3(t, (2, 2, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8.0

    def test_identity_pool(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(max_pool3(t, (1, 1, 1)), t)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        out = max_pool3(t, (2, 2, 2))
        for c in range(2):
            for z in range(2):
                for y in range(2):
                    for x in range(2):
                        block = t[c, 2 * z : 2 * z + 2, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                        assert out[c, z, y, x] == block.max()

    def test_non_divisible(self):
        with pytest.raises(ShapeError, match="width"):
            max_pool3(np.zeros((1, 2, 2, 3), dtype=np.float32), (2, 2, 2))


def block_max_pool3(x, pool):
    """The earlier max_pool3 (checks dropped): one reshape, a three-axis max reduce."""
    sd, sh, sw = pool
    *lead, d, h, w = x.shape
    x7 = x.reshape(*lead, d // sd, sd, h // sh, sh, w // sw, sw)
    nlead = len(lead)
    return x7.max(axis=(nlead + 1, nlead + 3, nlead + 5))


@st.composite
def pool_cases(draw):
    """(input, pool): 0-2 leading axes, per-axis pools 1-3, float32/64, maybe NaNs."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    pool = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    grid = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((*lead, *(p * g for p, g in zip(pool, grid)))).astype(dtype)
    if draw(st.booleans()):
        x[rng.random(x.shape) < 0.2] = np.nan
        x.flat[rng.integers(x.size)] = np.nan
    return x, pool


class TestAxisWisePool:
    """max_pool3 pools one axis at a time and equals the block reduce it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(pool_cases())
    def test_matches_block_reduce(self, case):
        x, pool = case
        before = x.copy()
        got = max_pool3(x, pool)
        want = block_max_pool3(x, pool)
        assert got.dtype == x.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("pool", [(1, 1, 1), (1, 1, 2), (3, 1, 1), (2, 2, 2)])
    def test_fresh_output_from_views(self, pool):
        base = np.random.default_rng(5).standard_normal((2, 6, 12, 8, 6)).astype(np.float32)
        for x in (base, base[1], base[:, :, ::2], base.transpose(0, 1, 4, 3, 2)[..., :6, :]):
            got = max_pool3(x, pool)
            assert not np.shares_memory(got, x)
            np.testing.assert_array_equal(got, block_max_pool3(x, pool))


class TestConv3d:
    def test_depthwise_identity(self):
        """groups == C_in == C_out with k=1, all-ones weights is the identity."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        p = ConvParams(weight=np.ones((4, 1, 1, 1, 1), dtype=np.float32), groups=4)
        np.testing.assert_array_equal(conv3d(x, p), x)

    def test_channel_sum(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        p = ConvParams(weight=np.ones((1, 3, 1, 1, 1), dtype=np.float32), groups=1)
        np.testing.assert_allclose(conv3d(x, p)[0], x.sum(axis=0), rtol=1e-6)

    def test_constant_input_oracle(self):
        """Interior voxels see the full kernel sum; borders only the overlap."""
        rng = np.random.default_rng(6)
        c = 1.7
        x = np.full((2, 5, 5, 5), c, dtype=np.float32)
        weight = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float32)
        p = ConvParams(weight=weight, groups=1)
        got = conv3d(x, p)
        want = direct_conv3d(x, weight, None, groups=1)
        np.testing.assert_allclose(got, want, atol=1e-5)
        np.testing.assert_allclose(
            got[:, 2, 2, 2], c * weight.sum(axis=(1, 2, 3, 4)), rtol=1e-5
        )

    def test_random_grouped_vs_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4, 4, 4)).astype(np.float32)
        weight = rng.standard_normal((6, 2, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        p = ConvParams(weight=weight, bias=bias, groups=2)
        np.testing.assert_allclose(conv3d(x, p), direct_conv3d(x, weight, bias, 2), atol=1e-4)

    def test_group_isolation(self):
        """Zeroing one group's input channels zeroes exactly that group's output."""
        rng = np.random.default_rng(8)
        weight = rng.standard_normal((8, 2, 3, 3, 3)).astype(np.float32)
        p = ConvParams(weight=weight, groups=4)
        x = rng.standard_normal((8, 4, 4, 4)).astype(np.float32)
        x_zeroed = x.copy()
        x_zeroed[2:4] = 0.0  # group 1's input channels
        full = conv3d(x, p)
        part = conv3d(x_zeroed, p)
        np.testing.assert_array_equal(full[:2], part[:2])
        np.testing.assert_array_equal(full[4:], part[4:])
        zero_in = np.zeros_like(x)
        zero_in[2:4] = x[2:4]
        only = conv3d(zero_in, p)
        assert np.all(only[:2] == 0) and np.all(only[4:] == 0)

    def test_channel_mismatch(self):
        p = ConvParams(weight=np.ones((2, 2, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ShapeError, match="input has 3 channels, conv expects 2"):
            conv3d(np.zeros((3, 2, 2, 2), dtype=np.float32), p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ConvParams(weight=np.ones((2, 2, 2, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize(
        "shape, extra, message",
        [
            ((2, 2, 1, 1), {}, "rank 5, got rank 4"),
            ((2, 2, 1, 3, 3), {}, r"cubic, got \(1, 3, 3\)"),
            ((2, 2, 1, 1, 1), {"groups": 0}, "conv groups must be an integer >= 1, got 0"),
            ((3, 1, 1, 1, 1), {"groups": 2}, "output channels 3 not divisible by groups 2"),
            ((2, 2, 1, 1, 1), {"bias": np.zeros(3)}, r"bias shape \(3,\) != \(2,\)"),
        ],
        ids=["rank", "cubic", "groups", "c_out_groups", "bias"],
    )
    def test_invalid_params_rejected(self, shape, extra, message):
        with pytest.raises(ConfigError, match=message):
            ConvParams(weight=np.ones(shape, dtype=np.float32), **extra)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["weight", "bias"])
    def test_non_finite_params_rejected(self, field, bad):
        """A padding-only tap is skipped only because inf or NaN times the padding cannot occur."""
        arrays = {"weight": np.ones((2, 1, 3, 3, 3), dtype=np.float32), "bias": np.zeros(2, dtype=np.float32)}
        arrays[field].flat[0] = bad
        with pytest.raises(ConfigError, match=f"conv {field} contains non-finite values"):
            ConvParams(**arrays)

    @pytest.mark.parametrize("field", ["weight", "bias"])
    def test_beyond_float32_range_named(self, field):
        """A finite float64 entry that float32 cannot hold is named as out of range, not as non-finite."""
        arrays = {"weight": np.ones((2, 1, 3, 3, 3)), "bias": np.zeros(2)}
        arrays[field].flat[0] = 1e39
        with pytest.raises(ConfigError, match=f"conv {field} holds finite values beyond the float32 range"):
            ConvParams(**arrays)

    def test_stride_below_one_rejected(self):
        with pytest.raises(ConfigError, match="stride"):
            ConvParams(weight=np.ones((2, 2, 1, 1, 1), dtype=np.float32), stride=0)

    def test_strided_kernel_must_equal_stride(self):
        with pytest.raises(ConfigError, match="kernel == stride"):
            ConvParams(weight=np.ones((2, 2, 3, 3, 3), dtype=np.float32), stride=2)

    def test_conv3d_rejects_strided(self):
        p = ConvParams(weight=np.ones((2, 2, 2, 2, 2), dtype=np.float32), stride=2)
        with pytest.raises(ConfigError, match="stride"):
            conv3d(np.zeros((2, 4, 4, 4), dtype=np.float32), p)

    def test_pointwise_rejects_strided(self):
        p = ConvParams(weight=np.ones((2, 2, 2, 2, 2), dtype=np.float32), stride=2)
        with pytest.raises(ConfigError):
            pointwise_conv(np.zeros((2, 4, 4, 4), dtype=np.float32), p)

    def test_param_count(self):
        p1 = ConvParams(weight=np.ones((8, 1, 1, 1, 1), dtype=np.float32), groups=8)
        assert param_count(p1) == 8
        p2 = ConvParams(weight=np.ones((8, 8, 3, 3, 3), dtype=np.float32), groups=1)
        assert param_count(p2) == 8 * 8 * 27

    def test_finite_outputs(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 5, 5, 5)).astype(np.float32)
        p = ConvParams(weight=rng.standard_normal((4, 2, 5, 5, 5)).astype(np.float32), groups=2)
        assert np.all(np.isfinite(conv3d(x, p)))


# A float64 operand scaled by this lies off the float32 grid, so a float32 step inside a float64 run shows.
OFF_GRID = 1 + 2.0**-30


def float64_conv(conv, x, p, scale=1.0):
    """``conv`` on float64 copies of ``x`` and ``p`` times ``scale``, with ``DTYPE`` float64 as
    ``float64_twin_logits`` sets it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "DTYPE", np.float64)
        p64 = replace(p, weight=p.weight.astype(np.float64) * scale,
                      bias=None if p.bias is None else p.bias.astype(np.float64) * scale)
        out = conv(np.asarray(x, dtype=np.float64) * scale, p64)
    assert out.dtype == np.float64
    return out


def assert_conv_gate(x, p, reference=None):
    """The two-precision gate of a conv whose summation order differs from the oracle's.

    - float64: ``conv3d`` and :func:`per_group_conv3d` agree to 1e-12 relative
      on operands off the float32 grid, so the algorithm is the oracle's.
    - float32: ``conv3d``'s error against a float64 ``reference`` (the float64
      oracle unless given) stays within the worst-case bound of a sum of
      K = k³·(C_in/g) + 1 terms (the bias counts as one), K·2⁻²⁴ times the
      float64 conv of |x| with |w| and |bias| (Higham 2002, §3.1).
    """
    k, cig = p.kernel, p.c_in // p.groups
    got64 = float64_conv(conv3d, x, p, OFF_GRID)
    want64 = float64_conv(per_group_conv3d, x, p, OFF_GRID)
    assert np.max(np.abs(got64 - want64)) <= 1e-12 * np.max(np.abs(want64))
    if reference is None:
        reference = float64_conv(per_group_conv3d, x, p)
    got = conv3d(x, p)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    magnitude = float64_conv(
        per_group_conv3d, np.abs(x), replace(p, weight=np.abs(p.weight), bias=None if p.bias is None else np.abs(p.bias))
    )
    bound = (k**3 * cig + 1) * 2.0**-24 * magnitude
    error = np.abs(got - reference)
    assert np.all(error <= bound), f"float32 error {np.max(error - bound):.3g} over the bound"


def assert_matches_oracle(x, p):
    """k = 1 is bit-identical to the oracle; k > 1 passes :func:`assert_conv_gate`."""
    if p.kernel == 1:
        np.testing.assert_array_equal(conv3d(x, p), per_group_conv3d(x, p))
    else:
        assert_conv_gate(x, p)


def random_conv(rng, c_in, c_out, groups, k, bias=True):
    return ConvParams(
        weight=rng.standard_normal((c_out, c_in // groups, k, k, k)).astype(np.float32),
        bias=rng.standard_normal(c_out).astype(np.float32) if bias else None,
        groups=groups,
    )


# (C_in, C_out, groups, k, extent): k = 7, group sizes from 1 to dense, extents of 1-3
# along one axis (so some taps see only padding), and anisotropic extents.
GATE_CASES = [
    (2, 2, 1, 7, (3, 4, 5)),
    (4, 4, 4, 5, (1, 4, 4)),
    (4, 2, 2, 5, (4, 2, 4)),
    (2, 3, 1, 5, (4, 4, 3)),
    (4, 4, 2, 3, (6, 1, 5)),
    (3, 3, 3, 3, (7, 1, 3)),
    (2, 2, 1, 7, (2, 6, 1)),
    (4, 4, 1, 3, (2, 3, 7)),
    (4, 4, 2, 5, (1, 1, 1)),
]


class TestConv3dMatchesPerGroupPath:
    """k = 1 is bit-identical to the per-group oracle; k > 1 folds the x taps into one
    matmul per (dz, dy) tap, so its rounding moves and it passes the two-precision gate."""

    @settings(max_examples=40, deadline=None)
    @given(
        groups=st.integers(1, 4),
        cig=st.integers(1, 3),
        cog=st.integers(1, 3),
        k=st.sampled_from([1, 3, 5, 7]),
        extent=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        bias=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_random_cases(self, groups, cig, cog, k, extent, bias, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((groups * cig, *extent)).astype(np.float32)
        assert_matches_oracle(x, random_conv(rng, groups * cig, groups * cog, groups, k, bias))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_network_sized_and_strided_channel_slice(self, k, groups):
        """A 16-channel stage-like input, contiguous and as every other channel of a 32-channel tensor."""
        rng = np.random.default_rng(100 * k + groups)
        base = rng.standard_normal((32, 6, 5, 7)).astype(np.float32)
        p = random_conv(rng, 16, 16, groups, k)
        for x in (base[:16], base[::2]):
            assert_matches_oracle(x, p)

    @pytest.mark.parametrize("case", GATE_CASES, ids=lambda c: f"c{c[0]}-g{c[2]}-k{c[3]}-{'x'.join(map(str, c[4]))}")
    def test_gate_against_direct_oracle(self, case):
        """The float32 error is taken against the brute-force float64 ``direct_conv3d``,
        for a contiguous input and for a view strided along every axis."""
        c_in, c_out, groups, k, extent = case
        rng = np.random.default_rng(sum(extent) * k + groups)
        p = random_conv(rng, c_in, c_out, groups, k)
        base = rng.standard_normal((2 * c_in, *(2 * e for e in extent))).astype(np.float32)
        for x in (np.ascontiguousarray(base[:c_in, ::2, ::2, ::2]), base[::2, ::2, 1::2, ::2]):
            assert_conv_gate(x, p, reference=direct_conv3d(x, p.weight, p.bias, groups))


def _read_only(a):
    a.flags.writeable = False
    return a


# Arguments an in-place kernel cannot overwrite, each made from a float array and refused before anything is written.
NOT_OVERWRITABLE = {
    "int": lambda buf: np.arange(buf.size, dtype=np.int64).reshape(buf.shape),
    "strided": lambda buf: buf[:, ::2],
    "transposed": lambda buf: buf.T,
    "read_only": lambda buf: _read_only(buf.copy()),
    "none": lambda buf: None,
}


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        np.testing.assert_allclose(
            softmax_rows(np.array([[np.log(2.0), 0.0]])), [[2 / 3, 1 / 3]], rtol=1e-6
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, row, shift):
        row = np.array([row], dtype=np.float64)
        np.testing.assert_allclose(softmax_rows(row + shift), softmax_rows(row), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((40, 33)).astype(np.float32) * 5
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)
        assert out.min() >= 0.0 and out.max() <= 1.0


def fresh_softmax_rows(m):
    """The earlier softmax_rows: three fresh temporaries, the argument untouched."""
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmaxInPlace:
    """softmax_rows overwrites its argument with the earlier path's exact result."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_fresh_oracle(self, dtype):
        m = (np.random.default_rng(13).standard_normal((3, 4, 37)) * 8).astype(dtype)
        # contiguous, strided and transposed arguments
        for arg in (m.copy(), m.copy()[:, ::2], np.swapaxes(m.copy(), 0, 1)):
            want = fresh_softmax_rows(arg)
            got = softmax_rows(arg)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_returns_its_argument(self):
        m = np.random.default_rng(14).standard_normal((5, 9)).astype(np.float32)
        assert softmax_rows(m) is m

    @pytest.mark.parametrize("make", ["int", "read_only", "none"])
    def test_refused_before_writing(self, make):
        """An int array is refused whole, not rewritten to its shifted values before numpy's error."""
        arg = NOT_OVERWRITABLE[make](np.arange(12, dtype=np.float64).reshape(3, 4))
        before = copy.copy(arg)
        with pytest.raises(ShapeError, match="softmax_rows needs a writeable float array"):
            softmax_rows(arg)
        np.testing.assert_array_equal(arg, before)


def two_pass_normalize(x, axis, scale, shift):
    """The norm as mean, then ``np.var``, then one expression: the reference for ``_normalize``."""
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    xn = (x - mu) / np.sqrt(var + NORM_EPS)
    return (xn * scale[:, None, None, None] + shift[:, None, None, None]).astype(DTYPE)


class TestNormsAndShuffle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, (1, 2, 3)], ids=["layer", "instance"])
    @pytest.mark.parametrize(
        "shape", [(16, 24, 24, 24), (48, 24, 24, 24), (32, 12, 12, 12), (128, 3, 3, 3), (5, 7, 6, 9)]
    )
    def test_normalize_matches_two_pass(self, shape, axis, dtype):
        """One deviation and its mean square give the two-pass norm's bits."""
        rng = np.random.default_rng(sum(shape))
        x = (rng.standard_normal(shape) * 3 + 1.5).astype(dtype)
        scale = rng.uniform(0.5, 1.5, shape[0]).astype(np.float32)
        shift = rng.uniform(-0.5, 0.5, shape[0]).astype(np.float32)
        want = two_pass_normalize(x, axis, scale, shift)
        got = _normalize(x, axis, scale, shift)
        assert got.dtype == DTYPE
        np.testing.assert_array_equal(got, want)

    def test_layer_norm_normalizes_channels(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3, 3, 3)).astype(np.float32) * 4 + 2
        out = layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_instance_norm_normalizes_spatial(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 4, 4)).astype(np.float32) * 3 - 1
        out = instance_norm(x, np.ones(3, np.float32), np.zeros(3, np.float32))
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-5)

    def test_norm_scale_shift(self):
        x = np.zeros((2, 2, 2, 2), dtype=np.float32)
        shift = np.array([1.5, -2.0], dtype=np.float32)
        out = instance_norm(x, np.ones(2, np.float32), shift)
        np.testing.assert_allclose(out[0], 1.5)
        np.testing.assert_allclose(out[1], -2.0)

    def test_gelu_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_voxel_shuffle_roundtrip_structure(self):
        """Shuffle consumes channel index c*8 + dz*4 + dy*2 + dx into offsets."""
        x = np.arange(8, dtype=np.float32).reshape(8, 1, 1, 1)
        out = voxel_shuffle(x, 2)
        assert out.shape == (1, 2, 2, 2)
        np.testing.assert_array_equal(out[0].ravel(), np.arange(8, dtype=np.float32))

    def test_voxel_shuffle_factor_mismatch(self):
        with pytest.raises(ShapeError):
            voxel_shuffle(np.zeros((7, 2, 2, 2), dtype=np.float32), 2)

    def test_pointwise_requires_k1(self):
        p = ConvParams(weight=np.ones((2, 2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ConfigError):
            pointwise_conv(np.zeros((2, 4, 4, 4), dtype=np.float32), p)


def gelu_closed_form(x):
    """The tanh GELU as one whole-array expression; the oracle for the blocked kernel."""
    x = np.asarray(x)
    c = math.sqrt(2.0 / math.pi)
    return (0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))).astype(x.dtype)


def whole_array_gelu_ops(x):
    """The blocked kernel's operations run once over the whole of a copy of ``x``, in its order and dtype."""
    x = x.copy()
    t = np.multiply(x, 0.044715)
    t *= x
    t *= x
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


class TestGeluBlocked:
    """gelu overwrites its argument and returns it.  The blocked kernel runs the
    oracle's operations in the same order, so it matches to float32 rounding
    (measured bit-identical); the tolerance below is two float32 ulps relative
    plus 1e-7 absolute for values near zero."""

    RTOL, ATOL = 2.0**-22, 1e-7

    @pytest.mark.parametrize(
        "size", [0, 1, GELU_BLOCK - 1, GELU_BLOCK, GELU_BLOCK + 1, 3 * GELU_BLOCK + 17]
    )
    def test_sizes_across_block_edges(self, size):
        x = (np.random.default_rng(size).standard_normal(size) * 4).astype(np.float32)
        want = gelu_closed_form(x)
        got = gelu(x)
        assert got is x and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=self.ATOL)

    def test_float64_keeps_dtype(self):
        x = np.random.default_rng(1).standard_normal((3, 5, 7, 11)) * 4
        want = gelu_closed_form(x)
        got = gelu(x)
        assert got is x and got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize(
        "size", [0, 1, GELU_BLOCK - 1, GELU_BLOCK, GELU_BLOCK + 1, 3 * GELU_BLOCK + 17]
    )
    def test_out_is_input_bit_exact(self, size):
        """Overwriting each block in place gives the bits of the same operations over the whole array."""
        x = (np.random.default_rng(size).standard_normal(size) * 4).astype(np.float32)
        want = whole_array_gelu_ops(x)
        np.testing.assert_array_equal(gelu(x), want)

    @pytest.mark.parametrize("make", list(NOT_OVERWRITABLE))
    def test_refused_before_writing(self, make):
        arg = NOT_OVERWRITABLE[make](np.linspace(-6, 6, 4 * 10, dtype=np.float32).reshape(4, 10))
        before = copy.copy(arg)
        with pytest.raises(ShapeError, match="gelu needs a writeable C-contiguous float array"):
            gelu(arg)
        np.testing.assert_array_equal(arg, before)


class TestRequireFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_named_error(self, bad):
        x = np.zeros((2, 3), dtype=np.float32)
        x[1, 2] = bad
        with pytest.raises(NonFiniteError, match="weights"):
            require_finite(x, "weights")

    def test_finite_passes_through(self):
        x = np.ones(4, dtype=np.float32)
        assert require_finite(x) is x

    @pytest.mark.parametrize("source, message", [
        (np.array([1.0, 1e39]), "holds finite values beyond the float32 range"),
        (np.array([np.nan, 1e39]), "contains non-finite values"),
    ], ids=["out_of_range", "non_finite"])
    def test_source_names_out_of_range(self, source, message):
        """``as_dtype`` casts without a warning; the source tells an out-of-range value from a non-finite one."""
        with pytest.raises(NonFiniteError, match=f"weights {message}"):
            require_finite(as_dtype(source), "weights", source=source)
