"""Conv-block tests: chunked branches, identities, oracles, parameter counts."""

from dataclasses import replace

import numpy as np
import pytest

from pwseg.errors import ConfigError, ShapeError
from pwseg.jlc import (
    JlcBlockParams,
    branch_channel_split,
    build_jlc_block,
    jlc_forward,
)
from pwseg.tensor import ConvParams, param_count

from test_tensor import direct_conv3d


def zeroed(block: JlcBlockParams) -> JlcBlockParams:
    """Copy of a block with every conv weight and bias zeroed (norms kept)."""

    def z(p):
        return ConvParams(
            weight=np.zeros_like(p.weight),
            bias=None if p.bias is None else np.zeros_like(p.bias),
            groups=p.groups,
        )

    return JlcBlockParams(
        branches=tuple(z(b) for b in block.branches),
        norm_scale=block.norm_scale,
        norm_shift=block.norm_shift,
        ffn_norm_scale=block.ffn_norm_scale,
        ffn_norm_shift=block.ffn_norm_shift,
        ffn_expand=z(block.ffn_expand),
        ffn_project=z(block.ffn_project),
    )


class TestBranchSplit:
    def test_even_units(self):
        assert branch_channel_split(16, 4) == (8, 4, 4)
        assert branch_channel_split(64, 8) == (24, 24, 16)
        assert branch_channel_split(128, 16) == (48, 48, 32)

    def test_depthwise_units(self):
        assert branch_channel_split(16, 1) == (6, 5, 5)

    def test_too_few_groups(self):
        with pytest.raises(ConfigError):
            branch_channel_split(8, 4)
        with pytest.raises(ConfigError):
            branch_channel_split(9, 2)


class TestParams:
    def test_group_size_from_branches(self):
        assert build_jlc_block(np.random.default_rng(0), 16, 4, expansion=2).group_size == 4

    def test_unequal_group_sizes_rejected(self):
        """Branches of groups 4 and 2 give no single group size."""
        block = build_jlc_block(np.random.default_rng(0), 16, 4, expansion=2)
        second = block.branches[1]
        regrouped = ConvParams(weight=np.zeros((4, 2, 3, 3, 3), dtype=np.float32), groups=2)
        assert (second.c_out, second.groups) == (4, 1)
        with pytest.raises(ConfigError, match="group size 4"):
            replace(block, branches=(block.branches[0], regrouped, block.branches[2]))


class TestForward:
    def test_zero_weights_residual_identity(self):
        """With every conv weight zero (and zero shifts) the block is the identity."""
        rng = np.random.default_rng(0)
        block = zeroed(build_jlc_block(rng, 16, 4, expansion=2))
        x = rng.standard_normal((16, 5, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(jlc_forward(x, block), x)

    def test_depthwise_identity_branch(self):
        """A k=1 depth-wise branch with unit weights reproduces its input chunk."""
        from pwseg.tensor import conv3d

        rng = np.random.default_rng(1)
        block = zeroed(build_jlc_block(rng, 12, 1, expansion=2))
        w1 = block.branches[0].c_out
        ident = ConvParams(
            weight=np.ones((w1, 1, 1, 1, 1), dtype=np.float32),
            bias=np.zeros(w1, dtype=np.float32),
            groups=w1,
        )
        branches = (ident,) + block.branches[1:]
        x = rng.standard_normal((12, 4, 4, 4)).astype(np.float32)
        offset = 0
        for branch in branches:
            width = branch.c_out
            got = conv3d(x[offset : offset + width], branch)
            if offset == 0:
                np.testing.assert_array_equal(got, x[:w1])
            else:
                assert np.all(got == 0)
            offset += width

    def test_matches_direct_conv_oracle(self):
        """Random block output equals a brute-force branch-wise composition."""
        rng = np.random.default_rng(2)
        channels, group_size = 8, 2
        block = build_jlc_block(rng, channels, group_size, expansion=2)
        # make weights sizeable so the comparison is meaningful
        def rescale(p):
            return ConvParams(
                weight=(p.weight * 25).astype(np.float32),
                bias=None if p.bias is None else rng.standard_normal(p.bias.shape).astype(np.float32),
                groups=p.groups,
            )

        block = JlcBlockParams(
            branches=tuple(rescale(b) for b in block.branches),
            norm_scale=rng.uniform(0.5, 1.5, channels).astype(np.float32),
            norm_shift=rng.uniform(-0.2, 0.2, channels).astype(np.float32),
            ffn_norm_scale=rng.uniform(0.5, 1.5, channels).astype(np.float32),
            ffn_norm_shift=rng.uniform(-0.2, 0.2, channels).astype(np.float32),
            ffn_expand=rescale(block.ffn_expand),
            ffn_project=rescale(block.ffn_project),
        )
        x = rng.standard_normal((channels, 6, 6, 6)).astype(np.float32)
        got = jlc_forward(x, block)

        # independent composition in float64
        def norm64(v, scale, shift):
            mu = v.mean(axis=(1, 2, 3), keepdims=True)
            var = v.var(axis=(1, 2, 3), keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-5) * scale[:, None, None, None] + shift[:, None, None, None]

        def gelu64(v):
            return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

        parts = []
        offset = 0
        for branch in block.branches:
            width = branch.c_out
            parts.append(direct_conv3d(x[offset : offset + width], branch.weight, branch.bias, branch.groups))
            offset += width
        y = np.concatenate(parts, axis=0)
        y = gelu64(norm64(y, block.norm_scale.astype(np.float64), block.norm_shift.astype(np.float64)))
        y = y + x
        h = norm64(y, block.ffn_norm_scale.astype(np.float64), block.ffn_norm_shift.astype(np.float64))
        we = block.ffn_expand.weight.reshape(block.ffn_expand.c_out, channels).astype(np.float64)
        wp = block.ffn_project.weight.reshape(channels, block.ffn_expand.c_out).astype(np.float64)
        h = gelu64(np.tensordot(we, h, axes=(1, 0)) + block.ffn_expand.bias.astype(np.float64)[:, None, None, None])
        h = np.tensordot(wp, h, axes=(1, 0)) + block.ffn_project.bias.astype(np.float64)[:, None, None, None]
        want = y + h
        np.testing.assert_allclose(got, want, atol=2e-4)

    def test_group_isolation_per_branch(self):
        """Zeroing one group of the block input leaves other groups' outputs unchanged."""
        rng = np.random.default_rng(3)
        channels, group_size = 16, 4
        block = build_jlc_block(rng, channels, group_size, expansion=2)
        x = rng.standard_normal((channels, 5, 5, 5)).astype(np.float32)
        x2 = x.copy()
        x2[4:8] = 0.0  # second group of the first branch's chunk? chunk0 = 8 channels
        offset = 0
        from pwseg.tensor import conv3d

        for branch in block.branches:
            width = branch.c_out
            a = conv3d(x[offset : offset + width], branch)
            b = conv3d(x2[offset : offset + width], branch)
            groups = branch.groups
            per = width // groups
            for g in range(groups):
                in_slice = x[offset + g * group_size : offset + (g + 1) * group_size]
                in_slice2 = x2[offset + g * group_size : offset + (g + 1) * group_size]
                if np.array_equal(in_slice, in_slice2):
                    np.testing.assert_array_equal(a[g * per : (g + 1) * per], b[g * per : (g + 1) * per])
            offset += width

    def test_wrong_channel_count(self):
        rng = np.random.default_rng(5)
        block = build_jlc_block(rng, 8, 2, expansion=2)
        with pytest.raises(ShapeError, match="block expects 8 channels, got 9"):
            jlc_forward(np.zeros((9, 4, 4, 4), dtype=np.float32), block)

    @pytest.mark.parametrize("x", [np.float32(1), np.zeros((8, 4, 4)), np.zeros((1, 8, 4, 4, 4))],
                             ids=["rank0", "rank3", "rank5"])
    def test_input_not_rank_four(self, x):
        block = build_jlc_block(np.random.default_rng(5), 8, 2, expansion=2)
        with pytest.raises(ShapeError, match=f"must be rank 4 \\[C, D, H, W\\], got rank {np.ndim(x)}"):
            jlc_forward(x, block)


class TestParamCount:
    def test_single_branch_closed_forms(self):
        depthwise = ConvParams(weight=np.ones((8, 1, 1, 1, 1), dtype=np.float32), groups=8)
        assert param_count(depthwise) == 8
        dense = ConvParams(weight=np.ones((8, 8, 3, 3, 3), dtype=np.float32), groups=1)
        assert param_count(dense) == 1728

    def test_block_count_matches_hand_count(self):
        """Full stage-1 block (C=16, group 4, expansion 3) against a symbolic count."""
        rng = np.random.default_rng(6)
        block = build_jlc_block(rng, 16, 4, expansion=3)
        # hand count: chunks (8, 4, 4) at kernels (1, 3, 5), group size 4
        branches = 8 * 4 * 1 + 4 * 4 * 27 + 4 * 4 * 125 + 16  # weights + biases
        norms = 2 * 16 + 2 * 16
        ffn = (48 * 16 + 48) + (16 * 48 + 16)
        assert param_count(block) == branches + norms + ffn

    def test_count_equals_stored_reals(self):
        rng = np.random.default_rng(7)
        block = build_jlc_block(rng, 32, 8, expansion=2)
        stored = sum(b.weight.size + b.bias.size for b in block.branches)
        stored += block.norm_scale.size + block.norm_shift.size
        stored += block.ffn_norm_scale.size + block.ffn_norm_shift.size
        stored += block.ffn_expand.weight.size + block.ffn_expand.bias.size
        stored += block.ffn_project.weight.size + block.ffn_project.bias.size
        assert param_count(block) == stored

    def test_group_monotonicity(self):
        """Grouped weight count is exactly 1/groups of the dense count."""
        dense = ConvParams(weight=np.ones((8, 8, 3, 3, 3), dtype=np.float32), groups=1)
        for g in (2, 4, 8):
            grouped = ConvParams(weight=np.ones((8, 8 // g, 3, 3, 3), dtype=np.float32), groups=g)
            assert param_count(grouped) * g == param_count(dense)

    def test_build_determinism(self):
        a = build_jlc_block(np.random.default_rng(11), 16, 4, expansion=3)
        b = build_jlc_block(np.random.default_rng(11), 16, 4, expansion=3)
        for pa, pb in zip(a.branches, b.branches):
            np.testing.assert_array_equal(pa.weight, pb.weight)
