"""Full model assembly: dual-stream encoder, decoder, forward, cost accounting.

The encoder runs two parallel four-stage streams on a shared downsampling
grid (stride 4 patch embed, then stride 2 between stages): a modal-fused
convolution stream of grouped multi-kernel blocks, and a per-modality
attention stream of paired-window blocks with weights shared across
modalities.  Stage outputs fuse additively into skip tensors.  Each decoder
level upsamples with pointwise-expansion + voxel shuffle, concatenates the
skip, projects the concatenation back to the level width with its own
pointwise conv (``DecoderStage.fuse``) and applies ``decoder_depth`` conv
blocks; the classification head runs on the last expansion and a final
shuffle restores full resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from math import prod

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .jlc import DEFAULT_KERNELS, JlcBlockParams, branch_channel_split, build_jlc_block, jlc_forward
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
    as_dtype,
    count,
    gelu,
    init_conv,
    is_integral,
    layer_norm,
    param_count,  # noqa: F401  (re-exported: pwseg.network.param_count)
    pointwise_conv,
    real_array,
    require_finite,
    seeded_rng,
    spatial_triple,
    voxel_shuffle,
)

N_STAGES = 4


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description; every field mirrors the JSON config schema.

    Making one (directly, from JSON or by ``replace``) runs :func:`_coerce` on
    each field, then checks every rule and makes :attr:`stage_schedules`, so a
    config that exists can be built and costed.  Raises ConfigError naming the
    stage and constraint on any inconsistency, and ShapeError when the input
    extent does not divide by the deepest stride.
    """

    modalities: int = 2
    num_classes: int = 2
    input_extent: tuple[int, int, int] = (96, 96, 96)
    stage_widths: tuple[int, ...] = (16, 32, 64, 128)
    group_sizes: tuple[int, ...] = (4, 8, 8, 16)
    kernels: tuple[int, ...] = DEFAULT_KERNELS
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

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, getattr(self, f.name), f.default))
        for name, minimum in (("modalities", 1), ("num_classes", 1), ("c_min", 1), ("head_width", 1),
                              ("decoder_depth", 1), ("patch_stride", 2)):
            count(getattr(self, name), name, minimum, ConfigError)
        for name in ("stage_widths", "group_sizes", "attention_depth", "conv_depth", "expansion_ratios",
                     "n_head", "big_window_minima", "small_window_minima"):
            if len(getattr(self, name)) != N_STAGES:
                raise ConfigError(f"{name} must have {N_STAGES} entries, got {len(getattr(self, name))}")
        if len(self.kernels) < 1 or any(k % 2 == 0 or k < 1 for k in self.kernels):
            raise ConfigError(f"kernels must be odd positive sizes, got {self.kernels}")
        for k in range(N_STAGES):
            try:
                branch_channel_split(self.stage_widths[k], self.group_sizes[k], len(self.kernels))
            except ConfigError as exc:
                raise ConfigError(f"stage {k + 1}: {exc}") from exc
            for name, minimum in (("expansion_ratios", 1), ("n_head", 1), ("attention_depth", 0), ("conv_depth", 0)):
                count(getattr(self, name)[k], f"stage {k + 1}: {name} entry", minimum, ConfigError)
            for name in ("big_window_minima", "small_window_minima"):
                entry = getattr(self, name)[k]
                if len(entry) != 3:
                    raise ConfigError(f"stage {k + 1}: {name} entry {entry!r} must be a (D, H, W) triple")
        self.stage_schedules  # made here, so a config that exists has its schedules

    @property
    def cumulative_strides(self) -> tuple[int, ...]:
        return tuple(self.patch_stride * 2**k for k in range(N_STAGES))

    @property
    def attention_modalities(self) -> int:
        return 1 if self.early_fusion else self.modalities

    def stage_extents(self) -> tuple[tuple[int, int, int], ...]:
        """Per-stage feature extents; ShapeError unless the input extent divides by the deepest stride."""
        extent = spatial_triple(self.input_extent, "input_extent")
        stride = self.cumulative_strides[-1]
        for axis, e in zip(SPATIAL_AXES, extent):
            if e <= 0 or e % stride != 0:
                raise ShapeError(f"input {axis} extent {e} not divisible by cumulative stride {stride}")
        return tuple(tuple(e // s for e in extent) for s in self.cumulative_strides)

    @cached_property
    def stage_schedules(self) -> tuple[WindowSchedule, ...]:
        """Per-stage window schedules, made once; not a field, so ``replace`` makes them anew."""
        schedules = []
        for k, extent in enumerate(self.stage_extents()):
            try:
                big1 = fit_big_window(extent, self.big_window_minima[k], self.r)
                schedules.append(window_schedule(extent, big1, self.small_window_minima[k], self.r))
            except ShapeError as exc:
                raise ConfigError(f"stage {k + 1}: cannot build window schedule: {exc}") from exc
        return tuple(schedules)


def _coerce(key: str, value, default):
    """``value`` of field ``key`` as the kind of the field's ``default``: a bool, an int or a tuple.

    Integral numbers (3.0 and ``np.int64(3)``, not bools) become ints, numpy
    bools bools, and lists tuples, entry by entry.  Raises ConfigError naming
    the field, the bad entry and the field's value as given.
    """

    def check(v, d, entry: bool):
        if isinstance(d, bool):
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            want = "true or false"
        elif isinstance(d, tuple):
            if isinstance(v, (list, tuple)):
                return tuple(check(e, d[0], True) for e in v)
            want = "a list"
        elif is_integral(v):
            return int(v)
        else:
            want = "an integer"
        named = f" entry {v!r}" if entry else ""
        raise ConfigError(f"config field {key!r}{named} must be {want}, got {value!r}")

    return check(value, default, False)


def config_from_dict(payload: dict) -> NetworkConfig:
    """Build a config from parsed JSON; ``NetworkConfig`` checks and normalises each field.

    Raises ConfigError when ``payload`` is not a JSON object or names an
    unknown field, and as ``NetworkConfig`` does on a field of the wrong kind.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - set(NetworkConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return NetworkConfig(**payload)


def conv_only(cfg: NetworkConfig) -> NetworkConfig:
    """The same architecture with every attention block disabled."""
    return replace(cfg, attention_depth=(0,) * N_STAGES)


# Bytes of a slab: 2 MiB, the per-core L2 size of the x86 server cores this
# was tuned on, so what a slab's first pass writes is still cached when the
# next pass reads it.  It sizes the stem's slabs of whole patch_stride
# z-plane groups (``_stem_slabs``: the mixed tensor of one slab) and the
# patch columns ``downsample_conv`` builds at a time.  The two counts are
# equal, because a group's mixed tensor is the columns of one output plane,
# so each stem slab is one product of the conv-stream patch embed.  At the
# default widths that loop then splits only the whole-volume attention patch
# embeds; every stage downsample of an input up to 128^3 fits in one slab.
# Do not shrink it: OpenBLAS rounds products over narrow column blocks (seen
# at 24, 36 and 100 columns) differently from the whole product.
_SLAB_BYTES = 2 * 1024 * 1024


def _slab_planes(plane_bytes: int, planes: int) -> int:
    """Planes per slab: as many as keep it within ``_SLAB_BYTES``, at least one and at most ``planes``."""
    return min(planes, max(1, _SLAB_BYTES // plane_bytes))


def _stem_slabs(cfg: NetworkConfig) -> list[tuple[int, int]]:
    """The input z-ranges ``[z0, z1)`` of the stem's slabs at the config's extent, in order.

    A slab is as many whole ``patch_stride`` z-plane groups as keep its
    mixed tensor (``stage_widths[0]`` channels in ``DTYPE``) within
    ``_SLAB_BYTES``, at least one; the last slab holds what is left.
    """
    s = cfg.patch_stride
    d, h, w = cfg.input_extent
    step = s * _slab_planes(cfg.stage_widths[0] * s * h * w * np.dtype(DTYPE).itemsize, d // s)
    return [(z0, min(z0 + step, d)) for z0 in range(0, d, step)]


def downsample_conv(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Non-overlapping patchify conv (ungrouped, kernel == stride), computed and returned in ``DTYPE``.

    Builds its patch columns one slab of whole output z-planes at a time,
    as many planes as fit in ``_SLAB_BYTES`` and at least one, and
    multiplies each slab into the output's z-slice.
    """
    if p.groups != 1 or p.kernel != p.stride:
        raise ConfigError(
            f"downsample needs an ungrouped conv with kernel == stride, got groups {p.groups}, "
            f"kernel {p.kernel}, stride {p.stride}"
        )
    if x.ndim != 4:
        raise ShapeError(f"downsample input must be rank 4 [C, D, H, W], got rank {x.ndim}")
    c_in, d, h, w = x.shape
    s = p.stride
    if c_in != p.c_in:
        raise ShapeError(f"downsample expects {p.c_in} channels, got {c_in}")
    for axis, e in zip(SPATIAL_AXES, (d, h, w)):
        if e % s != 0:
            raise ShapeError(f"{axis} extent {e} not divisible by stride {s}")
    nd, nh, nw = d // s, h // s, w // s
    weight = p.weight.reshape(p.c_out, -1)
    k = weight.shape[1]
    out = np.empty((p.c_out, nd, nh * nw), dtype=DTYPE)
    planes = _slab_planes(k * nh * nw * out.itemsize, nd)
    buf = np.empty(k * planes * nh * nw, dtype=DTYPE)
    x7 = x.reshape(c_in, nd, s, nh, s, nw, s)
    for z0 in range(0, nd, planes):
        z1 = min(z0 + planes, nd)
        # Patch columns [C_in*s^3, P]: the product with the [C_out, C_in*s^3]
        # weight lands directly in the [C_out, P] layout of the output's z-slice.
        cols = buf[: k * (z1 - z0) * nh * nw].reshape(c_in, s, s, s, z1 - z0, nh, nw)
        np.copyto(cols, x7[:, z0:z1].transpose(0, 2, 4, 6, 1, 3, 5))
        dst = out[:, z0:z1].reshape(p.c_out, -1)
        np.matmul(weight, cols.reshape(k, -1), out=dst)
        if p.bias is not None:
            dst += p.bias[:, None]
    return out.reshape(p.c_out, nd, nh, nw)


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
    jlc_blocks: tuple[JlcBlockParams, ...]
    pwa_blocks: tuple[PwaBlockParams, ...]
    fuse_proj: ConvParams
    jlc_down: ConvParams | None
    pwa_down: ConvParams | None


@dataclass(frozen=True)
class DecoderStage:
    """One decoder level: upsampling expansion, concat projection, conv blocks."""

    up_proj: ConvParams
    fuse: ConvParams
    blocks: tuple[JlcBlockParams, ...]


@dataclass(frozen=True)
class Network:
    """Immutable parameter bundle; safe to share across threads."""

    config: NetworkConfig
    modal_mixer: ConvParams
    jlc_embed: ConvParams
    pwa_embed: ConvParams
    stages: tuple[StageParams, ...]
    decoder: tuple[DecoderStage, ...]
    final_expand: ConvParams
    head: ConvParams


def _require(value, kind: type, entry: str) -> None:
    """ConfigError naming ``entry``, ``kind`` and the type given, unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{entry} needs a {kind.__name__}, got {type(value).__name__}")


def build(cfg: NetworkConfig, seed: int) -> Network:
    """Construct a network with seeded, reproducible initialization.

    Weights are truncated-normal (sigma 0.02), biases zero, norm scales one;
    building twice with the same seed yields identical parameters.  ``cfg``
    checked itself when it was made; ConfigError unless it is a ``NetworkConfig``,
    DomainError unless ``seed`` is an integer >= 0.
    """
    _require(cfg, NetworkConfig, "build")
    rng = seeded_rng(seed)
    widths = cfg.stage_widths
    c1 = widths[0]
    m_att = cfg.attention_modalities

    s = cfg.patch_stride
    modal_mixer = init_conv(rng, c1, cfg.modalities)
    jlc_embed = init_conv(rng, c1, c1, kernel=s, stride=s)
    pwa_embed = init_conv(rng, c1, c1 if cfg.early_fusion else 1, kernel=s, stride=s)

    stages = []
    for k, sched in enumerate(cfg.stage_schedules):
        c = widths[k]
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
        blocks = [build_jlc_block(rng, c, cfg.group_sizes[k], cfg.expansion_ratios[k], cfg.kernels)]
        # drawn after the first block: the draw order fixes every later weight of a seed
        fuse = init_conv(rng, c, c_src + c)
        for _ in range(cfg.decoder_depth - 1):
            blocks.append(build_jlc_block(rng, c, cfg.group_sizes[k], cfg.expansion_ratios[k], cfg.kernels))
        decoder.append(DecoderStage(up_proj=up_proj, fuse=fuse, blocks=tuple(blocks)))

    final_expand = init_conv(rng, s**3 * cfg.head_width, c1)
    head = init_conv(rng, cfg.num_classes, cfg.head_width)

    return Network(
        config=cfg,
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
    ConfigError unless ``net`` is a ``Network``; ShapeError unless ``volumes``
    has a length; DomainError unless each volume is real (``tensor.real_array``);
    NonFiniteError unless its values are finite and within float32's range.
    """
    _require(net, Network, "forward")
    cfg = net.config
    try:
        given = len(volumes)
    except TypeError:  # an int, None, a generator or a 0-d array
        raise ShapeError(
            f"volumes must be a sequence of {cfg.modalities} arrays, got {type(volumes).__name__}"
        ) from None
    if given != cfg.modalities:
        raise ShapeError(f"expected {cfg.modalities} modality volumes, got {given}")
    expected = (1, *cfg.input_extent)
    vols = []
    for m, v in enumerate(volumes):
        given = real_array(v, f"modality {m} volume", DomainError)
        if given.shape != expected:
            raise ShapeError(
                f"modality {m}: volume shape {given.shape} != {expected} (network built for extent "
                f"{cfg.input_extent})"
            )
        vols.append(require_finite(as_dtype(given), f"modality {m} volume", source=given))

    jx, px = _stem_forward(net, vols)
    skips = []
    for stage, sched in zip(net.stages, cfg.stage_schedules):
        for blk in stage.jlc_blocks:
            jx = jlc_forward(jx, blk)
        for blk in stage.pwa_blocks:
            px = _pwa_block_forward(px, blk, sched)
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
        x = pointwise_conv(np.concatenate([x, skip], axis=0), dec.fuse)
        for blk in dec.blocks:
            x = jlc_forward(x, blk)

    return _head_forward(net, x)


def _stem_forward(net: Network, vols: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Modal mixer, GELU and patch embeds: the conv stream input and the attention stream inputs.

    The concatenation, the modal mixer, GELU and the conv-stream patch embed
    (and under ``early_fusion`` the attention one) run once per slab of
    :func:`_stem_slabs`, and each writes its z-slice of the patch-embedded
    output, so a slab's mixed tensor is still cached when the next pass
    reads it and no full-resolution mixed tensor is made.  A slab is whole
    patch embeds, so the outputs are those of the whole-volume stem.  The
    attention patch embeds of separate modalities read the volumes whole.
    """
    cfg = net.config
    s = cfg.patch_stride
    coarse = tuple(e // s for e in cfg.input_extent)
    jx = np.empty((net.jlc_embed.c_out, *coarse), dtype=DTYPE)
    px = np.empty((net.pwa_embed.c_out, *coarse), dtype=DTYPE) if cfg.early_fusion else None
    for z0, z1 in _stem_slabs(cfg):
        mixed = gelu(pointwise_conv(np.concatenate([v[:, z0:z1] for v in vols], axis=0), net.modal_mixer))
        jx[:, z0 // s : z1 // s] = downsample_conv(mixed, net.jlc_embed)
        if px is not None:
            px[:, z0 // s : z1 // s] = downsample_conv(mixed, net.pwa_embed)
    if px is not None:
        return jx, [px]
    return jx, [downsample_conv(v, net.pwa_embed) for v in vols]


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
    total = sum(_conv_flops(n_voxels, b) for b in blk.branches)
    total += 2 * n_voxels * c  # post-concat norm + activation, 1 op/element
    total += 2 * n_voxels * c  # FFN norm + residual path activation elements
    total += _conv_flops(n_voxels, blk.ffn_expand)
    total += n_voxels * blk.ffn_expand.c_out  # activation on the expanded features
    total += _conv_flops(n_voxels, blk.ffn_project)
    return total


def _walk(net: Network, extent=None):
    """Yield ``(group, callee, params, input_shape, cost)`` per module-level call of ``forward``.

    In call order at ``extent`` (default: the build extent).  ``params`` is the
    call's second argument (None for ``gelu`` and ``voxel_shuffle``) and
    ``input_shape`` its first argument's (the first modality's for
    ``pwa_forward``).  ``cost`` counts 2 ops per conv multiply-accumulate plus
    bias adds, the closed-form window model for the attention core, and one
    op per element for norms, activations and residual adds.  ConfigError
    unless ``net`` is a ``Network``.
    """
    _require(net, Network, "flop_breakdown")
    cfg = net.config if extent is None else replace(net.config, input_extent=spatial_triple(extent, "extent"))
    extent = cfg.input_extent
    ext = [sched.extent for sched in cfg.stage_schedules]
    m_att = cfg.attention_modalities

    def conv(group, p, e):
        # strided convs are the patchify downsamples; the cost counts output voxels
        callee = "downsample_conv" if p.stride > 1 else "pointwise_conv"
        return group, callee, p, (p.c_in, *e), _conv_flops(prod(e) // p.stride**3, p)

    c1 = net.modal_mixer.c_out
    for z0, z1 in _stem_slabs(cfg):
        slab = (z1 - z0, *extent[1:])
        yield conv("stem", net.modal_mixer, slab)
        yield "stem", "gelu", None, (c1, *slab), c1 * prod(slab)
        yield conv("stem", net.jlc_embed, slab)
        if cfg.early_fusion:
            yield conv("stem", net.pwa_embed, slab)
    if not cfg.early_fusion:
        yield from [conv("stem", net.pwa_embed, extent)] * m_att
    for k, (stage, sched) in enumerate(zip(net.stages, cfg.stage_schedules)):
        e = sched.extent
        c, n = cfg.stage_widths[k], prod(e)
        for blk in stage.jlc_blocks:
            yield "encoder_conv", "jlc_forward", blk, (c, *e), _jlc_block_flops(n, blk)
        for blk in stage.pwa_blocks:
            # attention core plus its pre-projection layer norm
            yield "attention", "pwa_forward", blk.attn, (c, *e), pwa_flops(e, sched, c, m_att) + m_att * n * c
            for _ in range(m_att):
                # FFN norm plus the residual add
                yield "attention", "layer_norm", blk.ffn_norm_scale, (c, *e), 2 * n * c
                yield conv("attention", blk.ffn_expand, e)
                yield "attention", "gelu", None, (blk.ffn_expand.c_out, *e), blk.ffn_expand.c_out * n
                yield conv("attention", blk.ffn_project, e)
        yield conv("fusion", stage.fuse_proj, e)
        if stage.jlc_down is not None:
            yield conv("downsample", stage.jlc_down, e)
            yield from [conv("downsample", stage.pwa_down, e)] * m_att
    for dec, k in zip(net.decoder, (2, 1, 0)):
        yield conv("decoder", dec.up_proj, ext[k + 1])
        yield "decoder", "voxel_shuffle", None, (dec.up_proj.c_out, *ext[k + 1]), 0
        yield conv("decoder", dec.fuse, ext[k])
        for blk in dec.blocks:
            yield "decoder", "jlc_forward", blk, (blk.channels, *ext[k]), _jlc_block_flops(prod(ext[k]), blk)
    yield conv("head", net.final_expand, ext[0])
    yield conv("head", net.head, extent)
    yield "head", "voxel_shuffle", None, (net.head.c_out * cfg.patch_stride**3, *ext[0]), 0


def flop_breakdown(net: Network, extent=None) -> dict[str, int]:
    """Forward-pass cost by component group: the sum of :func:`_walk`'s costs."""
    out = dict.fromkeys(("stem", "encoder_conv", "attention", "fusion", "downsample", "decoder", "head"), 0)
    for group, _, _, _, cost in _walk(net, extent):
        out[group] += cost
    return out


def total_flops(net: Network, extent=None) -> int:
    """Total forward cost at the given extent (defaults to the build extent)."""
    return sum(flop_breakdown(net, extent).values())


def attention_stage_flops(cfg: NetworkConfig) -> list[int]:
    """Closed-form attention cost per stage at the config's input extent (one value per attention block).

    ConfigError unless ``cfg`` is a ``NetworkConfig``.
    """
    _require(cfg, NetworkConfig, "attention_stage_flops")
    return [
        pwa_flops(sched.extent, sched, cfg.stage_widths[k], cfg.attention_modalities) * cfg.attention_depth[k]
        for k, sched in enumerate(cfg.stage_schedules)
    ]
