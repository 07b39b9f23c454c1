"""Full model assembly: dual-stream encoder, decoder, forward, cost accounting.

The encoder runs two parallel four-stage streams on a shared downsampling
grid (stride 4 patch embed, then stride 2 between stages): a modal-fused
convolution stream of grouped multi-kernel blocks, and a per-modality
attention stream of paired-window blocks with weights shared across
modalities.  Stage outputs fuse additively into skip tensors.  The decoder
upsamples with pointwise-expansion + voxel shuffle, concatenates the skip,
and applies one conv block per level; the classification head runs on the
last expansion and a final shuffle restores full resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import ConfigError, ShapeError
from .jlc import JlcBlockParams, build_jlc_block, jlc_forward
from .pwa import (
    PwaParams,
    WindowSchedule,
    build_pwa_params,
    fit_big_window,
    pwa_flops,
    pwa_forward,
    window_schedule,
)
from .tensor import (
    DTYPE,
    SPATIAL_AXES,
    ConvParams,
    gelu,
    init_conv,
    layer_norm,
    param_count,  # noqa: F401  (re-exported: pwseg.network.param_count)
    pointwise_conv,
    require_finite,
    voxel_shuffle,
)

N_STAGES = 4


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description; every field mirrors the JSON config schema."""

    modalities: int = 2
    num_classes: int = 2
    input_extent: tuple[int, int, int] = (96, 96, 96)
    stage_widths: tuple[int, ...] = (16, 32, 64, 128)
    group_sizes: tuple[int, ...] = (4, 8, 8, 16)
    kernels: tuple[int, ...] = (1, 3, 5)
    attention_depth: tuple[int, ...] = (1, 1, 1, 1)
    conv_depth: tuple[int, ...] = (2, 2, 2, 3)
    decoder_depth: int = 1
    expansion_ratios: tuple[int, ...] = (3, 3, 2, 2)
    big_window_minima: tuple = ((3, 3, 3), (6, 6, 6), (3, 3, 3), (3, 3, 3))
    small_window_minima: tuple = ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1))
    r: int = 2
    c_min: int = 8
    n_head: tuple[int, ...] = (1, 1, 1, 1)
    head_width: int = 4
    patch_stride: int = 4
    early_fusion: bool = False

    @property
    def cumulative_strides(self) -> tuple[int, ...]:
        return tuple(self.patch_stride * 2**k for k in range(N_STAGES))

    @property
    def attention_modalities(self) -> int:
        return 1 if self.early_fusion else self.modalities

    def stage_extents(self, extent=None) -> tuple[tuple[int, int, int], ...]:
        extent = tuple(int(e) for e in (extent or self.input_extent))
        check_extent(extent, self.cumulative_strides[-1])
        return tuple(tuple(e // s for e in extent) for s in self.cumulative_strides)

    def stage_schedule(self, stage: int, extent=None) -> WindowSchedule:
        stage_extent = self.stage_extents(extent)[stage]
        big1 = fit_big_window(stage_extent, self.big_window_minima[stage], self.r)
        return window_schedule(stage_extent, big1, self.small_window_minima[stage], self.r)


_TRIPLE_TUPLE_FIELDS = {"big_window_minima", "small_window_minima"}
_TRIPLE_FIELDS = {"input_extent"}
_INT_TUPLE_FIELDS = {
    "stage_widths",
    "group_sizes",
    "kernels",
    "attention_depth",
    "conv_depth",
    "expansion_ratios",
    "n_head",
}


def _int(key: str, value) -> int:
    """A JSON integer (or integral number) for field ``key``; bools and strings are rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
    return int(value)


def _seq(key: str, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config field {key!r} must be a list, got {value!r}")
    return value


def _ints(key: str, value) -> tuple[int, ...]:
    return tuple(_int(key, v) for v in _seq(key, value))


def config_from_dict(payload: dict) -> NetworkConfig:
    """Build a config from parsed JSON, type-checking fields and coercing lists to tuples.

    Raises ConfigError naming the field on an unknown field, a bool field
    that is not a JSON bool, or an integer field holding a bool, a string
    or a non-integral number.
    """
    fields = NetworkConfig.__dataclass_fields__
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    coerced = {}
    for key, value in payload.items():
        default = fields[key].default
        if key in _INT_TUPLE_FIELDS or key in _TRIPLE_FIELDS:
            coerced[key] = _ints(key, value)
        elif key in _TRIPLE_TUPLE_FIELDS:
            coerced[key] = tuple(_ints(key, triple) for triple in _seq(key, value))
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"config field {key!r} must be true or false, got {value!r}")
            coerced[key] = value
        else:
            coerced[key] = _int(key, value)
    return NetworkConfig(**coerced)


def conv_only(cfg: NetworkConfig) -> NetworkConfig:
    """The same architecture with every attention block disabled."""
    return replace(cfg, attention_depth=(0,) * N_STAGES)


def check_extent(extent, stride: int) -> None:
    if len(extent) != 3:
        raise ShapeError(f"extent must be a (D, H, W) triple, got {extent}")
    for axis, e in zip(SPATIAL_AXES, extent):
        if e <= 0 or e % stride != 0:
            raise ShapeError(f"input {axis} extent {e} not divisible by cumulative stride {stride}")


def validate_config(cfg: NetworkConfig) -> None:
    """Raise ConfigError naming the stage and constraint on any inconsistency."""
    if cfg.modalities < 1:
        raise ConfigError(f"modalities must be >= 1, got {cfg.modalities}")
    if cfg.num_classes < 1:
        raise ConfigError(f"num_classes must be >= 1, got {cfg.num_classes}")
    if cfg.r < 2:
        raise ConfigError(f"window expansion rate must be >= 2, got {cfg.r}")
    if cfg.c_min < 1 or cfg.head_width < 1 or cfg.decoder_depth < 1:
        raise ConfigError("c_min, head_width and decoder_depth must all be >= 1")
    if cfg.patch_stride < 2:
        raise ConfigError(f"patch stride must be >= 2, got {cfg.patch_stride}")
    for name in ("stage_widths", "group_sizes", "attention_depth", "conv_depth", "expansion_ratios",
                 "n_head", "big_window_minima", "small_window_minima"):
        if len(getattr(cfg, name)) != N_STAGES:
            raise ConfigError(f"{name} must have {N_STAGES} entries, got {len(getattr(cfg, name))}")
    if len(cfg.kernels) < 1 or any(k % 2 == 0 or k < 1 for k in cfg.kernels):
        raise ConfigError(f"kernels must be odd positive sizes, got {cfg.kernels}")
    for k in range(N_STAGES):
        c, g = cfg.stage_widths[k], cfg.group_sizes[k]
        if c < 1 or g < 1:
            raise ConfigError(f"stage {k + 1}: width {c} and group size {g} must be positive")
        if c % g != 0:
            raise ConfigError(f"stage {k + 1}: group size {g} does not divide width {c}")
        if c // g < len(cfg.kernels):
            raise ConfigError(
                f"stage {k + 1}: width {c} gives only {c // g} groups of {g}; "
                f"need at least {len(cfg.kernels)} for the parallel branches"
            )
        if cfg.expansion_ratios[k] < 1 or cfg.n_head[k] < 1:
            raise ConfigError(f"stage {k + 1}: expansion ratio and head count must be >= 1")
        if cfg.attention_depth[k] < 0 or cfg.conv_depth[k] < 0:
            raise ConfigError(f"stage {k + 1}: block depths must be non-negative")
    check_extent(cfg.input_extent, cfg.cumulative_strides[-1])
    for k in range(N_STAGES):
        try:
            cfg.stage_schedule(k)
        except ShapeError as exc:
            raise ConfigError(f"stage {k + 1}: cannot build window schedule: {exc}") from exc


def downsample_conv(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Non-overlapping patchify conv: an ungrouped ConvParams with kernel == stride."""
    if p.groups != 1 or p.kernel != p.stride:
        raise ConfigError(
            f"downsample needs an ungrouped conv with kernel == stride, got groups {p.groups}, "
            f"kernel {p.kernel}, stride {p.stride}"
        )
    c_in, d, h, w = x.shape
    s = p.stride
    if c_in != p.c_in:
        raise ShapeError(f"downsample expects {p.c_in} channels, got {c_in}")
    for axis, e in zip(SPATIAL_AXES, (d, h, w)):
        if e % s != 0:
            raise ShapeError(f"{axis} extent {e} not divisible by stride {s}")
    # Patch columns [C_in*s^3, P]: the product with the [C_out, C_in*s^3]
    # weight lands directly in the [C_out, P] output layout.
    x7 = x.reshape(c_in, d // s, s, h // s, s, w // s, s)
    cols = np.ascontiguousarray(x7.transpose(0, 2, 4, 6, 1, 3, 5)).reshape(c_in * s**3, -1)
    out = p.weight.reshape(p.c_out, -1) @ cols
    if p.bias is not None:
        out += p.bias[:, None]
    return out.reshape(p.c_out, d // s, h // s, w // s)


@dataclass(frozen=True)
class PwaBlockParams:
    """One transformer block: attention layer plus a pointwise feed-forward."""

    attn: PwaParams
    ffn_norm_scale: np.ndarray
    ffn_norm_shift: np.ndarray
    ffn_expand: ConvParams
    ffn_project: ConvParams


def _build_pwa_block(rng, channels, sched, modalities, n_head, c_min, expansion) -> PwaBlockParams:
    attn = build_pwa_params(rng, channels, sched, modalities, n_head=n_head, c_min=c_min)
    hidden = expansion * channels
    return PwaBlockParams(
        attn=attn,
        ffn_norm_scale=np.ones(channels, dtype=DTYPE),
        ffn_norm_shift=np.zeros(channels, dtype=DTYPE),
        ffn_expand=init_conv(rng, hidden, channels),
        ffn_project=init_conv(rng, channels, hidden),
    )


def _pwa_block_forward(features, blk: PwaBlockParams, sched: WindowSchedule):
    feats = pwa_forward(features, blk.attn, sched)
    outs = []
    for e in feats:
        h = layer_norm(e, blk.ffn_norm_scale, blk.ffn_norm_shift)
        outs.append(e + pointwise_conv(gelu(pointwise_conv(h, blk.ffn_expand)), blk.ffn_project))
    return outs


@dataclass(frozen=True)
class StageParams:
    schedule: WindowSchedule
    jlc_blocks: tuple[JlcBlockParams, ...]
    pwa_blocks: tuple[PwaBlockParams, ...]
    fuse_proj: ConvParams
    jlc_down: ConvParams | None
    pwa_down: ConvParams | None


@dataclass(frozen=True)
class DecoderStage:
    up_proj: ConvParams
    blocks: tuple[JlcBlockParams, ...]


@dataclass(frozen=True)
class Network:
    """Immutable parameter bundle; safe to share across threads."""

    config: NetworkConfig
    seed: int
    modal_mixer: ConvParams
    jlc_embed: ConvParams
    pwa_embed: ConvParams
    stages: tuple[StageParams, ...]
    decoder: tuple[DecoderStage, ...]
    final_expand: ConvParams
    head: ConvParams


def build(cfg: NetworkConfig, seed: int) -> Network:
    """Construct a network with seeded, reproducible initialization.

    Weights are truncated-normal (sigma 0.02), biases zero, norm scales one;
    building twice with the same seed yields identical parameters.
    """
    validate_config(cfg)
    rng = np.random.default_rng(seed)
    widths = cfg.stage_widths
    c1 = widths[0]
    m_att = cfg.attention_modalities

    s = cfg.patch_stride
    modal_mixer = init_conv(rng, c1, cfg.modalities)
    jlc_embed = init_conv(rng, c1, c1, kernel=s, stride=s)
    pwa_embed = init_conv(rng, c1, c1 if cfg.early_fusion else 1, kernel=s, stride=s)

    stages = []
    for k in range(N_STAGES):
        c = widths[k]
        sched = cfg.stage_schedule(k)
        jlc_blocks = tuple(
            build_jlc_block(rng, c, cfg.group_sizes[k], cfg.expansion_ratios[k], cfg.kernels)
            for _ in range(cfg.conv_depth[k])
        )
        pwa_blocks = tuple(
            _build_pwa_block(rng, c, sched, m_att, cfg.n_head[k], cfg.c_min, cfg.expansion_ratios[k])
            for _ in range(cfg.attention_depth[k])
        )
        fuse_proj = init_conv(rng, c, c)
        jlc_down = pwa_down = None
        if k < N_STAGES - 1:
            jlc_down = init_conv(rng, widths[k + 1], c, kernel=2, stride=2)
            pwa_down = init_conv(rng, widths[k + 1], c, kernel=2, stride=2)
        stages.append(
            StageParams(
                schedule=sched,
                jlc_blocks=jlc_blocks,
                pwa_blocks=pwa_blocks,
                fuse_proj=fuse_proj,
                jlc_down=jlc_down,
                pwa_down=pwa_down,
            )
        )

    decoder = []
    for k in (2, 1, 0):
        c_src = widths[k + 1]
        c = widths[k]
        up_proj = init_conv(rng, 8 * c_src, c_src)
        blocks = [
            build_jlc_block(
                rng, c, cfg.group_sizes[k], cfg.expansion_ratios[k], cfg.kernels,
                mixer_in=c_src + c,
            )
        ]
        for _ in range(cfg.decoder_depth - 1):
            blocks.append(build_jlc_block(rng, c, cfg.group_sizes[k], cfg.expansion_ratios[k], cfg.kernels))
        decoder.append(DecoderStage(up_proj=up_proj, blocks=tuple(blocks)))

    final_expand = init_conv(rng, s**3 * cfg.head_width, c1)
    head = init_conv(rng, cfg.num_classes, cfg.head_width)

    return Network(
        config=cfg,
        seed=seed,
        modal_mixer=modal_mixer,
        jlc_embed=jlc_embed,
        pwa_embed=pwa_embed,
        stages=tuple(stages),
        decoder=tuple(decoder),
        final_expand=final_expand,
        head=head,
    )


def forward(net: Network, volumes) -> np.ndarray:
    """Run inference on M single-channel volumes; returns class logits.

    Inputs are M arrays of shape [1, D, H, W] matching the configured extent;
    the output is [num_classes, D, H, W].  Deterministic given (net, inputs).
    """
    cfg = net.config
    if len(volumes) != cfg.modalities:
        raise ShapeError(f"expected {cfg.modalities} modality volumes, got {len(volumes)}")
    expected = (1, *cfg.input_extent)
    vols = []
    for m, v in enumerate(volumes):
        v = np.asarray(v, dtype=DTYPE)
        if v.shape != expected:
            raise ShapeError(
                f"modality {m}: volume shape {v.shape} != {expected} (network built for extent "
                f"{tuple(cfg.input_extent)})"
            )
        vols.append(require_finite(v, f"modality {m} volume"))

    full = np.concatenate(vols, axis=0)
    mixed = gelu(pointwise_conv(full, net.modal_mixer))
    jx = downsample_conv(mixed, net.jlc_embed)
    if cfg.early_fusion:
        px = [downsample_conv(mixed, net.pwa_embed)]
    else:
        px = [downsample_conv(v, net.pwa_embed) for v in vols]

    skips = []
    for stage in net.stages:
        for blk in stage.jlc_blocks:
            jx = jlc_forward(jx, blk)
        for blk in stage.pwa_blocks:
            px = _pwa_block_forward(px, blk, stage.schedule)
        acc = px[0]
        for p in px[1:]:
            acc = acc + p
        skips.append(jx + pointwise_conv(acc, stage.fuse_proj))
        if stage.jlc_down is not None:
            jx = downsample_conv(jx, stage.jlc_down)
            px = [downsample_conv(p, stage.pwa_down) for p in px]

    x = skips[-1]
    for dec, skip in zip(net.decoder, reversed(skips[:-1])):
        x = voxel_shuffle(pointwise_conv(x, dec.up_proj), 2)
        x = np.concatenate([x, skip], axis=0)
        for blk in dec.blocks:
            x = jlc_forward(x, blk)

    return _head_forward(net, x)


def _head_forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Final expansion, classification head and shuffle to full resolution.

    Equals ``pointwise_conv(voxel_shuffle(pointwise_conv(x, final_expand), s), head)``:
    the head is a per-voxel channel map and the shuffle only moves voxels,
    so the head runs first and the shuffle moves num_classes channels
    instead of head_width.  Rows c*s^3 .. (c+1)*s^3-1 of the expansion hold
    head channel c's voxels, so a [head_width, D, H, W] view groups them per
    channel (in pre-shuffle order).
    """
    cfg = net.config
    s = cfg.patch_stride
    x = pointwise_conv(x, net.final_expand)
    coarse = x.shape[1:]
    x = pointwise_conv(x.reshape(cfg.head_width, *(s * e for e in coarse)), net.head)
    return voxel_shuffle(x.reshape(cfg.num_classes * s**3, *coarse), s)


def _conv_flops(n_voxels: int, p: ConvParams) -> int:
    """Cost of a conv (stride 1 or patchify) over ``n_voxels`` output voxels."""
    macs = n_voxels * p.c_out * (p.c_in // p.groups) * p.kernel**3
    bias = n_voxels * p.c_out if p.bias is not None else 0
    return 2 * macs + bias


def _jlc_block_flops(n_voxels: int, blk: JlcBlockParams) -> int:
    c = blk.channels
    total = 0
    if blk.mixer is not None:
        total += _conv_flops(n_voxels, blk.mixer)
    for b in blk.branches:
        total += _conv_flops(n_voxels, b)
    total += 2 * n_voxels * c  # post-concat norm + activation, 1 op/element
    total += 2 * n_voxels * c  # FFN norm + residual path activation elements
    total += _conv_flops(n_voxels, blk.ffn_expand)
    total += n_voxels * blk.ffn_expand.c_out  # activation on the expanded features
    total += _conv_flops(n_voxels, blk.ffn_project)
    return total


def _pwa_block_flops(extent, sched: WindowSchedule, blk: PwaBlockParams, modalities: int) -> int:
    c = blk.attn.channels
    n_voxels = prod(extent)
    total = pwa_flops(extent, sched, c, modalities)
    total += modalities * n_voxels * c  # pre-projection layer norm
    total += modalities * (
        2 * n_voxels * c  # FFN norm + implicit activation elements
        + _conv_flops(n_voxels, blk.ffn_expand)
        + n_voxels * blk.ffn_expand.c_out
        + _conv_flops(n_voxels, blk.ffn_project)
    )
    return total


def flop_breakdown(net: Network, extent=None) -> dict[str, int]:
    """Forward-pass cost by component group.

    Convolutions count 2 ops per multiply-accumulate plus bias adds; the
    attention core uses the closed-form window cost model; norms and
    activations count one op per element.
    """
    cfg = net.config
    extent = tuple(int(e) for e in (extent or cfg.input_extent))
    stage_ext = cfg.stage_extents(extent)
    n_full = prod(extent)
    m_att = cfg.attention_modalities
    n_streams_in = 1 if cfg.early_fusion else cfg.modalities

    out = {
        "stem": _conv_flops(n_full, net.modal_mixer)
        + n_full * net.modal_mixer.c_out
        + _conv_flops(prod(stage_ext[0]), net.jlc_embed)
        + n_streams_in * _conv_flops(prod(stage_ext[0]), net.pwa_embed),
        "encoder_conv": 0,
        "attention": 0,
        "fusion": 0,
        "downsample": 0,
        "decoder": 0,
        "head": 0,
    }
    for k, stage in enumerate(net.stages):
        n_k = prod(stage_ext[k])
        sched = cfg.stage_schedule(k, extent)
        for blk in stage.jlc_blocks:
            out["encoder_conv"] += _jlc_block_flops(n_k, blk)
        for blk in stage.pwa_blocks:
            out["attention"] += _pwa_block_flops(stage_ext[k], sched, blk, m_att)
        out["fusion"] += _conv_flops(n_k, stage.fuse_proj)
        if stage.jlc_down is not None:
            n_next = prod(stage_ext[k + 1])
            out["downsample"] += _conv_flops(n_next, stage.jlc_down)
            out["downsample"] += m_att * _conv_flops(n_next, stage.pwa_down)
    for dec, k in zip(net.decoder, (2, 1, 0)):
        n_src = prod(stage_ext[k + 1])
        n_k = prod(stage_ext[k])
        out["decoder"] += _conv_flops(n_src, dec.up_proj)
        for blk in dec.blocks:
            out["decoder"] += _jlc_block_flops(n_k, blk)
    out["head"] = _conv_flops(prod(stage_ext[0]), net.final_expand) + _conv_flops(n_full, net.head)
    return out


def total_flops(net: Network, extent=None) -> int:
    """Total forward cost at the given extent (defaults to the build extent)."""
    return sum(flop_breakdown(net, extent).values())


def attention_stage_flops(cfg: NetworkConfig, extent=None) -> list[int]:
    """Closed-form attention cost per stage (one value per attention block)."""
    extent = tuple(int(e) for e in (extent or cfg.input_extent))
    stage_ext = cfg.stage_extents(extent)
    costs = []
    for k in range(N_STAGES):
        sched = cfg.stage_schedule(k, extent)
        per_block = pwa_flops(stage_ext[k], sched, cfg.stage_widths[k], cfg.attention_modalities)
        costs.append(per_block * cfg.attention_depth[k])
    return costs
