"""Paired window attention: schedule, gather/scatter, grouped attention, cost.

A schedule is an ordered list of (big, small) window pairs that expand
synchronously by a rate r.  Partitioning by the big window and max-pooling by
the small window turns every pair into the same number of tokens per window,
so attention over all scales and modalities runs as one batched call.  The
last big window always equals the full feature extent, which is what makes
the pair count a log of the extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .errors import ConfigError, ScheduleError, ShapeError
from .jl import head_channels
from .tensor import (
    DTYPE,
    SPATIAL_AXES,
    ConvParams,
    init_conv,
    layer_norm,
    max_pool3,
    pointwise_conv,
    softmax_rows,
    window_merge,
    window_partition,
)

# Softmax/matmul working-set budget (floats) for one attention chunk.
_CHUNK_BUDGET = 1 << 24


@dataclass(frozen=True)
class WindowSchedule:
    """Ordered (big, small) window pairs expanding by r per step.

    Invariants: pair i equals pair 0 scaled by r**i on every axis, the token
    grid (big/small per axis) is constant across pairs, and the last big
    window equals the full extent.
    """

    extent: tuple[int, int, int]
    pairs: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    r: int

    @property
    def n_win(self) -> int:
        return len(self.pairs)

    @property
    def tokens_per_axis(self) -> tuple[int, int, int]:
        big, small = self.pairs[0]
        return tuple(b // s for b, s in zip(big, small))

    @property
    def seq_len(self) -> int:
        return prod(self.tokens_per_axis)

    def window_counts(self) -> tuple[int, ...]:
        return tuple(
            prod(e // b for e, b in zip(self.extent, big)) for big, _ in self.pairs
        )


def window_schedule(extent, big1, small1=(1, 1, 1), r: int = 2) -> WindowSchedule:
    """Build the pair list for ``extent`` from the smallest pair (big1, small1).

    Requires extent/big1 to be the same power of r on every axis (so the last
    pair reaches the full extent) and big1 divisible by small1.
    """
    extent = tuple(int(e) for e in extent)
    big1 = tuple(int(b) for b in big1)
    small1 = tuple(int(s) for s in small1)
    if r < 2:
        raise ScheduleError(f"expansion rate must be >= 2, got {r}")
    steps = set()
    for axis, e, b, s in zip(SPATIAL_AXES, extent, big1, small1):
        if s <= 0 or b <= 0 or e <= 0:
            raise ScheduleError(f"{axis}: extent/window sizes must be positive")
        if b % s != 0:
            raise ScheduleError(f"{axis}: big window {b} not divisible by small window {s}")
        if e % b != 0:
            raise ScheduleError(f"{axis}: extent {e} not divisible by big window {b}")
        q, n = e // b, 0
        while q % r == 0:
            q //= r
            n += 1
        if q != 1:
            raise ScheduleError(f"{axis}: extent/big ratio {e // b} is not a power of {r}")
        steps.add(n)
    if len(steps) > 1:
        raise ScheduleError(
            f"axes disagree on the number of expansions ({sorted(steps)}); "
            "extent/big must be the same power of r on every axis"
        )
    n_win = steps.pop() + 1
    pairs = tuple(
        (
            tuple(b * r**i for b in big1),
            tuple(s * r**i for s in small1),
        )
        for i in range(n_win)
    )
    return WindowSchedule(extent=extent, pairs=pairs, r=r)


def fit_big_window(extent, minimum, r: int = 2) -> tuple[int, int, int]:
    """Smallest big window >= ``minimum`` whose schedule reaches ``extent``.

    Per axis, candidates are extent / r**j; the number of expansions is the
    largest j feasible on every axis simultaneously.  Falls back to the full
    extent on axes smaller than the requested minimum.
    """
    extent = tuple(int(e) for e in extent)
    minimum = tuple(int(m) for m in minimum)
    best = []
    for e, m in zip(extent, minimum):
        j = 0
        while e % r ** (j + 1) == 0 and e // r ** (j + 1) >= m:
            j += 1
        best.append(j)
    j = min(best)
    return tuple(e // r**j for e in extent)


def gather(xs, sched: WindowSchedule, n_head: int, c_hat: int) -> np.ndarray:
    """Window-partition, pool, flatten and modality-concatenate projections.

    Each of the M input tensors carries n_win * n_head * c_hat channels laid
    out pair-major then head-major.  Pair i's channel slice is partitioned by
    big window i, max-pooled by small window i and flattened to L tokens; the
    M modality sequences concatenate along the token axis (modality-major).
    Returns [sum_i n_i, n_head, c_hat, M*L] ordered pair-major then
    window-lexicographic.
    """
    if not xs:
        raise ShapeError("gather needs at least one modality tensor")
    per_pair = n_head * c_hat
    expected = sched.n_win * per_pair
    for m, x in enumerate(xs):
        if x.ndim != 4 or x.shape[0] != expected:
            raise ShapeError(
                f"modality {m}: expected [{expected}, D, H, W] projected channels, got {x.shape}"
            )
        if x.shape[1:] != sched.extent:
            raise ShapeError(f"modality {m}: extent {x.shape[1:]} != schedule extent {sched.extent}")
    seq_len = sched.seq_len
    parts = []
    for i, (big, small) in enumerate(sched.pairs):
        per_mod = []
        for x in xs:
            chans = x[i * per_pair : (i + 1) * per_pair]
            wins = window_partition(chans, big)
            pooled = max_pool3(wins, small)
            per_mod.append(pooled.reshape(pooled.shape[0], n_head, c_hat, seq_len))
        parts.append(np.concatenate(per_mod, axis=3))
    return np.concatenate(parts, axis=0)


def _broadcast_tokens(tokens: np.ndarray, small) -> np.ndarray:
    """Expand each token value across its small window (unpooling surrogate)."""
    n, c, td, th, tw = tokens.shape
    sd, sh, sw = small
    view = tokens[:, :, :, None, :, None, :, None]
    out = np.broadcast_to(view, (n, c, td, sd, th, sh, tw, sw))
    return np.ascontiguousarray(out).reshape(n, c, td * sd, th * sh, tw * sw)


def scatter(batch: np.ndarray, sched: WindowSchedule, n_head: int, c_hat: int, modalities: int):
    """Inverse of :func:`gather`: place attended tokens back into volumes.

    Token values broadcast across their small windows, so gather(scatter(a))
    reproduces ``a`` exactly for any schedule.  Returns one
    [n_win * n_head * c_hat, D, H, W] tensor per modality.
    """
    counts = sched.window_counts()
    seq_len = sched.seq_len
    per_pair = n_head * c_hat
    expected = (sum(counts), n_head, c_hat, modalities * seq_len)
    if batch.shape != expected:
        raise ShapeError(f"sequence batch shape {batch.shape} != expected {expected}")
    td, th, tw = sched.tokens_per_axis
    outs = [
        np.empty((sched.n_win * per_pair, *sched.extent), dtype=batch.dtype)
        for _ in range(modalities)
    ]
    offset = 0
    for i, ((big, small), n_i) in enumerate(zip(sched.pairs, counts)):
        blk = batch[offset : offset + n_i]
        offset += n_i
        for m in range(modalities):
            seq = blk[..., m * seq_len : (m + 1) * seq_len]
            tokens = np.ascontiguousarray(seq).reshape(n_i, per_pair, td, th, tw)
            full = _broadcast_tokens(tokens, small)
            outs[m][i * per_pair : (i + 1) * per_pair] = window_merge(full, sched.extent)
    return outs


@dataclass
class CostMeter:
    """Multiply counter following the per-window attention cost model.

    Each big window of T tokens at reference width C is charged 4*T*C*C for
    the query/key/value/mixer projections and 2*T*T*C for the two attention
    matrix products.
    """

    multiplies: int = 0

    def charge_projection(self, windows: int, tokens: int, width: int) -> None:
        self.multiplies += windows * 4 * tokens * width * width

    def charge_attention(self, windows: int, tokens: int, width: int) -> None:
        self.multiplies += windows * 2 * tokens * tokens * width


def grouped_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pos_bias: np.ndarray,
    *,
    meter: CostMeter | None = None,
    cost_width: int | None = None,
    weight_sink: list | None = None,
) -> np.ndarray:
    """Scaled dot-product attention over a batch of gathered windows.

    Inputs are [n, n_head, c_hat, T]; ``pos_bias`` broadcasts against the
    [n, n_head, T, T] similarity logits.  Per window and head the weights are
    softmax(q^T k / sqrt(c_hat) + pos_bias) and the output token j is the
    weight-j-row combination of value tokens.  Set ``weight_sink`` to a list
    to capture the attention weight matrices (off by default; it materializes
    one T x T matrix per window).
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim != 4:
        raise ShapeError(f"sequence batch must be rank 4 [n, heads, c, T], got rank {q.ndim}")
    n, n_head, c_hat, tokens = q.shape
    pos_bias = np.asarray(pos_bias, dtype=q.dtype)
    if pos_bias.shape[-2:] != (tokens, tokens):
        raise ShapeError(f"position bias trailing shape {pos_bias.shape[-2:]} != ({tokens}, {tokens})")
    scale = q.dtype.type(1.0 / np.sqrt(c_hat))
    out = np.empty_like(q)
    chunk = max(1, _CHUNK_BUDGET // max(1, n_head * tokens * tokens))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        logits = np.swapaxes(q[start:stop], 2, 3) @ k[start:stop]
        logits *= scale
        logits += pos_bias
        weights = softmax_rows(logits)
        if weight_sink is not None:
            weight_sink.append(weights)
        out[start:stop] = v[start:stop] @ np.swapaxes(weights, 2, 3)
    if meter is not None:
        meter.charge_attention(n, tokens, cost_width if cost_width is not None else n_head * c_hat)
    return out


@dataclass(frozen=True)
class PwaParams:
    """Weights of one paired-window attention layer (shared across modalities).

    Projections map the stage width C to n_win * n_head * c_hat channels;
    the mixer maps them back to C.  One dense (M*L) x (M*L) position-bias
    table per window pair, shared by all big windows of that pair.
    """

    q_proj: ConvParams
    k_proj: ConvParams
    v_proj: ConvParams
    mixer: ConvParams
    pos_bias: tuple[np.ndarray, ...]
    norm_scale: np.ndarray
    norm_shift: np.ndarray
    n_head: int
    c_hat: int

    def __post_init__(self):
        for name, p in (("q", self.q_proj), ("k", self.k_proj), ("v", self.v_proj)):
            if p.c_out != len(self.pos_bias) * self.n_head * self.c_hat:
                raise ConfigError(
                    f"{name} projection emits {p.c_out} channels; expected "
                    f"n_win*n_head*c_hat = {len(self.pos_bias) * self.n_head * self.c_hat}"
                )
        for i, table in enumerate(self.pos_bias):
            if not np.all(np.isfinite(table)):
                raise ConfigError(f"position bias table {i} contains non-finite values")

    @property
    def channels(self) -> int:
        return self.q_proj.c_in


def pwa_forward(
    features,
    params: PwaParams,
    sched: WindowSchedule,
    *,
    meter: CostMeter | None = None,
    weight_sink: list | None = None,
):
    """Full attention layer over M modality tensors of shape [C, D, H, W].

    Pipeline: layer norm -> q/k/v pointwise projections -> gather ->
    grouped attention per window pair -> scatter -> pointwise mixer ->
    residual add.  Returns M tensors shaped like the inputs.
    """
    modalities = len(features)
    shape = features[0].shape
    for m, e in enumerate(features):
        if e.shape != shape:
            raise ShapeError(f"modality {m} shape {e.shape} != modality 0 shape {shape}")
    if shape[0] != params.channels:
        raise ShapeError(f"features carry {shape[0]} channels, params expect {params.channels}")
    if tuple(shape[1:]) != sched.extent:
        raise ShapeError(f"feature extent {tuple(shape[1:])} != schedule extent {sched.extent}")

    normed = [layer_norm(e, params.norm_scale, params.norm_shift) for e in features]
    qs = [pointwise_conv(x, params.q_proj) for x in normed]
    ks = [pointwise_conv(x, params.k_proj) for x in normed]
    vs = [pointwise_conv(x, params.v_proj) for x in normed]
    del normed

    qb = gather(qs, sched, params.n_head, params.c_hat)
    kb = gather(ks, sched, params.n_head, params.c_hat)
    vb = gather(vs, sched, params.n_head, params.c_hat)
    del qs, ks, vs

    counts = sched.window_counts()
    tokens = modalities * sched.seq_len
    width = params.channels
    attended = np.empty_like(qb)
    offset = 0
    for i, n_i in enumerate(counts):
        if meter is not None:
            meter.charge_projection(n_i, tokens, width)
        sl = slice(offset, offset + n_i)
        attended[sl] = grouped_attention(
            qb[sl],
            kb[sl],
            vb[sl],
            params.pos_bias[i],
            meter=meter,
            cost_width=width,
            weight_sink=weight_sink,
        )
        offset += n_i
    del qb, kb, vb

    scattered = scatter(attended, sched, params.n_head, params.c_hat, modalities)
    return [e + pointwise_conv(a, params.mixer) for e, a in zip(features, scattered)]


def pwa_flops(extent, sched: WindowSchedule, channels: int, modalities: int = 1) -> int:
    """Closed-form multiply count of one attention layer.

    With N the feature volume, B/S the first pair's big/small volumes and
    kappa the geometric window-count factor (1 - r**(-3 n_win)) /
    (1 - r**-3), the count is (N*kappa/S) * (4*C^2 + 2*(B/S)*C) per modality
    token stream; M modality tokens scale the projection term by M and the
    quadratic attention term by M^2.  Evaluated in exact rational arithmetic.
    """
    extent = tuple(int(e) for e in extent)
    if extent != sched.extent:
        raise ShapeError(f"extent {extent} != schedule extent {sched.extent}")
    n_vol = prod(extent)
    big1, small1 = sched.pairs[0]
    b = prod(big1)
    s = prod(small1)
    r3 = Fraction(1, sched.r**3)
    kappa = (1 - r3**sched.n_win) / (1 - r3)
    tokens = Fraction(b, s) * modalities
    per_window = 4 * tokens * channels**2 + 2 * tokens**2 * channels
    total = Fraction(n_vol, b) * kappa * per_window
    if total.denominator != 1:
        raise ConfigError(f"cost formula did not reduce to an integer for extent {extent}")
    return int(total)


def build_pwa_params(
    rng: np.random.Generator,
    channels: int,
    sched: WindowSchedule,
    modalities: int,
    n_head: int = 1,
    c_min: int = 8,
) -> PwaParams:
    """Construct attention weights for a stage (seeded truncated-normal init).

    The q/k/v projections carry no bias; the mixer does.
    """
    c_hat = head_channels(channels, c_min, sched.n_win, n_head)
    proj_out = sched.n_win * n_head * c_hat
    seq = modalities * sched.seq_len
    q_proj = init_conv(rng, proj_out, channels, bias=False)
    k_proj = init_conv(rng, proj_out, channels, bias=False)
    v_proj = init_conv(rng, proj_out, channels, bias=False)
    mixer = init_conv(rng, channels, proj_out)
    pos_bias = tuple(np.zeros((seq, seq), dtype=DTYPE) for _ in range(sched.n_win))
    return PwaParams(
        q_proj=q_proj,
        k_proj=k_proj,
        v_proj=v_proj,
        mixer=mixer,
        pos_bias=pos_bias,
        norm_scale=np.ones(channels, dtype=DTYPE),
        norm_shift=np.zeros(channels, dtype=DTYPE),
        n_head=n_head,
        c_hat=c_hat,
    )
