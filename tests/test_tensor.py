"""Substrate tests: windowing, pooling, convolution, softmax, norms, shuffle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwseg.errors import ConfigError, NonFiniteError, ShapeError
from pwseg.tensor import (
    GELU_BLOCK,
    ConvParams,
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
    window_merge,
    window_partition,
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
        with pytest.raises(ConfigError):
            conv3d(np.zeros((3, 2, 2, 2), dtype=np.float32), p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ConvParams(weight=np.ones((2, 2, 2, 2, 2), dtype=np.float32))

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


class TestNormsAndShuffle:
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


class TestGeluBlocked:
    """The blocked kernel runs the oracle's operations in the same order, so it
    matches to float32 rounding (measured bit-identical); the tolerance below is
    two float32 ulps relative plus 1e-7 absolute for values near zero."""

    RTOL, ATOL = 2.0**-22, 1e-7

    @pytest.mark.parametrize(
        "size", [0, 1, GELU_BLOCK - 1, GELU_BLOCK, GELU_BLOCK + 1, 3 * GELU_BLOCK + 17]
    )
    def test_sizes_across_block_edges(self, size):
        x = (np.random.default_rng(size).standard_normal(size) * 4).astype(np.float32)
        got = gelu(x)
        assert got.shape == x.shape and got.dtype == np.float32
        np.testing.assert_allclose(got, gelu_closed_form(x), rtol=self.RTOL, atol=self.ATOL)

    def test_float64_keeps_dtype(self):
        x = np.random.default_rng(1).standard_normal((3, 5, 7, 11)) * 4
        got = gelu(x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, gelu_closed_form(x), rtol=1e-15, atol=1e-15)

    def test_transposed_and_strided_inputs(self):
        x = (np.random.default_rng(2).standard_normal((4, 40, 30, 50)) * 4).astype(np.float32)
        for view in (x.transpose(3, 2, 1, 0), x[:, ::2, 1::3, ::-1]):
            got = gelu(view)
            assert got.shape == view.shape and got.flags.c_contiguous
            np.testing.assert_allclose(got, gelu_closed_form(view), rtol=self.RTOL, atol=self.ATOL)

    def test_input_untouched(self):
        x = np.linspace(-6, 6, GELU_BLOCK + 5, dtype=np.float32)
        before = x.copy()
        gelu(x)
        np.testing.assert_array_equal(x, before)


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
