"""Grouped multi-kernel convolution block (one unit of the conv encoder).

The block splits its channels into three contiguous chunks, runs one grouped
convolution per chunk at kernel sizes (1, 3, 5), concatenates, normalizes and
activates, and adds a residual.  A pointwise feed-forward expansion follows.
Chunks are sized in whole multiples of the group size so every configuration
down to depth-wise (group size 1) takes the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import (
    ConvParams,
    conv3d,
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
    if group_size <= 0:
        raise ConfigError(f"group size must be positive, got {group_size}")
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
    """Parameters of one conv-encoder block.

    ``branches`` are the per-chunk grouped convolutions (kernels ascending);
    ``mixer``, when present, is a pointwise projection applied before the
    branches (used to fuse concatenated inputs down to the block width).
    """

    branches: tuple[ConvParams, ...]
    group_size: int
    norm_scale: np.ndarray
    norm_shift: np.ndarray
    ffn_norm_scale: np.ndarray
    ffn_norm_shift: np.ndarray
    ffn_expand: ConvParams
    ffn_project: ConvParams
    mixer: ConvParams | None = None

    def __post_init__(self):
        widths = [b.c_out for b in self.branches]
        c = sum(widths)
        for b, w in zip(self.branches, widths):
            if b.c_in != w:
                raise ConfigError(f"branch must map its chunk to itself, got {b.c_in} -> {w} channels")
            if w % self.group_size != 0 or (w // b.groups) != self.group_size:
                raise ConfigError(
                    f"branch width {w} with {b.groups} groups does not give group size {self.group_size}"
                )
        if self.ffn_expand.c_in != c or self.ffn_project.c_out != c:
            raise ConfigError("feed-forward convs must map block width to block width")
        if self.mixer is not None and self.mixer.c_out != c:
            raise ConfigError(f"mixer must emit block width {c}, got {self.mixer.c_out}")

    @property
    def channels(self) -> int:
        return sum(b.c_out for b in self.branches)

    @property
    def chunk_widths(self) -> tuple[int, ...]:
        return tuple(b.c_out for b in self.branches)


def jlc_forward(x: np.ndarray, p: JlcBlockParams) -> np.ndarray:
    """Run one conv block: [mixer ->] branches -> norm -> act -> residual -> FFN."""
    if p.mixer is not None:
        if x.shape[0] != p.mixer.c_in:
            raise ConfigError(f"block mixer expects {p.mixer.c_in} channels, got {x.shape[0]}")
        x = pointwise_conv(x, p.mixer)
    if x.shape[0] != p.channels:
        raise ConfigError(f"block expects {p.channels} channels, got {x.shape[0]}")
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
    mixer_in: int | None = None,
) -> JlcBlockParams:
    """Construct a block with seeded truncated-normal weights and zero biases."""
    widths = branch_channel_split(channels, group_size, len(kernels))
    branches = tuple(
        init_conv(rng, w, group_size, k, groups=w // group_size) for w, k in zip(widths, kernels)
    )
    norm_scale = np.ones(channels, dtype=np.float32)
    norm_shift = np.zeros(channels, dtype=np.float32)
    ffn_norm_scale = np.ones(channels, dtype=np.float32)
    ffn_norm_shift = np.zeros(channels, dtype=np.float32)
    hidden = expansion * channels
    ffn_expand = init_conv(rng, hidden, channels)
    ffn_project = init_conv(rng, channels, hidden)
    mixer = None
    if mixer_in is not None:
        mixer = init_conv(rng, channels, mixer_in)
    return JlcBlockParams(
        branches=branches,
        group_size=group_size,
        norm_scale=norm_scale,
        norm_shift=norm_shift,
        ffn_norm_scale=ffn_norm_scale,
        ffn_norm_shift=ffn_norm_shift,
        ffn_expand=ffn_expand,
        ffn_project=ffn_project,
        mixer=mixer,
    )
