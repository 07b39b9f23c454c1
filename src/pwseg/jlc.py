"""Grouped multi-kernel convolution block (one unit of the conv encoder and decoder).

The block splits its channels into three contiguous chunks, runs one grouped
convolution per chunk at kernel sizes (1, 3, 5), concatenates, normalizes and
activates, and adds a residual.  A pointwise feed-forward expansion follows.
Chunks are sized in whole multiples of the group size so every configuration
down to depth-wise (group size 1) takes the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    DTYPE,
    ConvParams,
    conv3d,
    count,
    gelu,
    init_conv,
    instance_norm,
    pointwise_conv,
)

DEFAULT_KERNELS = (1, 3, 5)


def branch_channel_split(channels: int, group_size: int, n_branches: int = 3) -> tuple[int, ...]:
    """Split ``channels`` into chunk widths, each a positive multiple of group_size.

    The split is as even as the group-size granularity allows; leftover units
    go to the earlier (smaller-kernel) branches.
    """
    channels = count(channels, "channels", 1, ConfigError)
    group_size = count(group_size, "group_size", 1, ConfigError)
    n_branches = count(n_branches, "n_branches", 1, ConfigError)
    if channels % group_size != 0:
        raise ConfigError(f"group size {group_size} does not divide {channels} channels")
    units = channels // group_size
    if units < n_branches:
        raise ConfigError(
            f"{channels} channels give only {units} groups of {group_size}; "
            f"need at least {n_branches} for {n_branches} branches"
        )
    base, rem = divmod(units, n_branches)
    return tuple((base + (1 if i < rem else 0)) * group_size for i in range(n_branches))


@dataclass(frozen=True)
class JlcBlockParams:
    """Parameters of one conv block.

    ``branches`` are the per-chunk grouped convolutions (kernels ascending).
    """

    branches: tuple[ConvParams, ...]
    norm_scale: np.ndarray
    norm_shift: np.ndarray
    ffn_norm_scale: np.ndarray
    ffn_norm_shift: np.ndarray
    ffn_expand: ConvParams
    ffn_project: ConvParams

    def __post_init__(self):
        widths = [b.c_out for b in self.branches]
        c = sum(widths)
        for b, w in zip(self.branches, widths):
            if b.c_in != w:
                raise ConfigError(f"branch must map its chunk to itself, got {b.c_in} -> {w} channels")
            if w // b.groups != self.group_size:
                raise ConfigError(
                    f"branch width {w} with {b.groups} groups does not give group size {self.group_size}"
                )
        if self.ffn_expand.c_in != c or self.ffn_project.c_out != c:
            raise ConfigError("feed-forward convs must map block width to block width")

    @property
    def channels(self) -> int:
        return sum(b.c_out for b in self.branches)

    @property
    def chunk_widths(self) -> tuple[int, ...]:
        return tuple(b.c_out for b in self.branches)

    @property
    def group_size(self) -> int:
        """Channels per group, the same in every branch: the first branch's width over its groups."""
        return self.branches[0].c_out // self.branches[0].groups


def jlc_forward(x: np.ndarray, p: JlcBlockParams) -> np.ndarray:
    """Run one conv block: branches -> norm -> act -> residual -> FFN."""
    if x.ndim != 4:
        raise ShapeError(f"jlc_forward input must be rank 4 [C, D, H, W], got rank {x.ndim}")
    if x.shape[0] != p.channels:
        raise ShapeError(f"block expects {p.channels} channels, got {x.shape[0]}")
    outs = []
    offset = 0
    for branch, width in zip(p.branches, p.chunk_widths):
        outs.append(conv3d(x[offset : offset + width], branch))
        offset += width
    y = np.concatenate(outs, axis=0)
    y = gelu(instance_norm(y, p.norm_scale, p.norm_shift))
    y = y + x
    h = instance_norm(y, p.ffn_norm_scale, p.ffn_norm_shift)
    h = pointwise_conv(gelu(pointwise_conv(h, p.ffn_expand)), p.ffn_project)
    return y + h


def build_jlc_block(
    rng: np.random.Generator,
    channels: int,
    group_size: int,
    expansion: int,
    kernels=DEFAULT_KERNELS,
) -> JlcBlockParams:
    """Construct a block with seeded truncated-normal weights and zero biases."""
    widths = branch_channel_split(channels, group_size, len(kernels))
    branches = tuple(
        init_conv(rng, w, group_size, k, groups=w // group_size) for w, k in zip(widths, kernels)
    )
    hidden = expansion * channels
    ffn_expand = init_conv(rng, hidden, channels)
    ffn_project = init_conv(rng, channels, hidden)
    return JlcBlockParams(
        branches=branches,
        norm_scale=np.ones(channels, dtype=DTYPE),
        norm_shift=np.zeros(channels, dtype=DTYPE),
        ffn_norm_scale=np.ones(channels, dtype=DTYPE),
        ffn_norm_shift=np.zeros(channels, dtype=DTYPE),
        ffn_expand=ffn_expand,
        ffn_project=ffn_project,
    )
