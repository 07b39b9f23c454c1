"""Paired window attention: schedule, gather/scatter, grouped attention, cost.

A schedule is an ordered list of (big, small) window pairs that expand
synchronously by a rate r.  Partitioning by the big window and max-pooling by
the small window turns every pair into the same number of tokens per window,
so one gathered batch holds every scale and modality.  Attention runs once
per pair over that batch's slice, because each pair has its own position-bias
table.  The last big window always equals the full feature extent, which is
what makes the pair count a log of the extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .errors import ConfigError, DomainError, ScheduleError, ShapeError
from .jl import head_channels
from .tensor import (
    DTYPE,
    SPATIAL_AXES,
    ConvParams,
    _overwritable,
    count,
    init_conv,
    layer_norm,
    max_pool3,
    pointwise_conv,
    real_array,
    softmax_rows,
    spatial_triple,
)

# Floats in one attention chunk's [windows, n_head, T, T] logits buffer.
# softmax_rows normalizes it in place, so it is the chunk's only T x T buffer.
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
    extent = spatial_triple(extent, "extent")
    big1 = spatial_triple(big1, "big1")
    small1 = spatial_triple(small1, "small1")
    r = count(r, "expansion rate r", 2, ScheduleError)
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
    extent on axes smaller than the requested minimum.  Raises ScheduleError
    for a rate below 2, where no schedule expands.
    """
    r = count(r, "expansion rate r", 2, ScheduleError)
    extent = spatial_triple(extent, "extent")
    minimum = spatial_triple(minimum, "minimum")
    best = []
    for e, m in zip(extent, minimum):
        j = 0
        while e % r ** (j + 1) == 0 and e // r ** (j + 1) >= m:
            j += 1
        best.append(j)
    j = min(best)
    return tuple(e // r**j for e in extent)


def _token_grids(batch: np.ndarray, sched: WindowSchedule, per_pair: int, modalities: int):
    """Yield (i, small_i, m, view): pair i's modality-m rows of ``batch`` as [per_pair, nd, td, nh, th, nw, tw]."""
    td, th, tw = sched.tokens_per_axis
    offset = 0
    for i, ((big, small), n_i) in enumerate(zip(sched.pairs, sched.window_counts())):
        nd, nh, nw = (e // b for e, b in zip(sched.extent, big))
        rows = batch[offset : offset + n_i].reshape(nd, nh, nw, per_pair, modalities, td, th, tw)
        offset += n_i
        for m in range(modalities):
            yield i, small, m, rows[:, :, :, :, m].transpose(3, 0, 4, 1, 5, 2, 6)


def gather(xs, sched: WindowSchedule, n_head: int, c_hat: int) -> np.ndarray:
    """Pool, window-partition, flatten and modality-concatenate projections.

    Each of the M input tensors carries n_win * n_head * c_hat channels laid
    out pair-major then head-major.  Pair i's channel slice is max-pooled by
    small window i, then partitioned into the token grid of big window i and
    flattened to L tokens; the M modality sequences concatenate along the
    token axis (modality-major).  Partition and concatenation are one strided
    copy per pair and modality, into that pair's token-grid view of the output.
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
    out = np.empty((sum(sched.window_counts()), n_head, c_hat, len(xs) * sched.seq_len), dtype=xs[0].dtype)
    for i, small, m, view in _token_grids(out, sched, per_pair, len(xs)):
        grid = xs[m][i * per_pair : (i + 1) * per_pair]
        if small != (1, 1, 1):
            grid = max_pool3(grid, small)
        view[...] = grid.reshape(view.shape)
    return out


def scatter(batch: np.ndarray, sched: WindowSchedule, n_head: int, c_hat: int, modalities: int):
    """Inverse of :func:`gather`: place attended tokens back into volumes.

    Each token is repeated across its small window, so gather(scatter(a))
    reproduces ``a`` exactly for any schedule.  Merge and repetition are one
    strided broadcast copy per pair and modality, from its token-grid view.
    Returns one [n_win * n_head * c_hat, D, H, W] tensor per modality.
    """
    per_pair = n_head * c_hat
    expected = (sum(sched.window_counts()), n_head, c_hat, modalities * sched.seq_len)
    if batch.shape != expected:
        raise ShapeError(f"sequence batch shape {batch.shape} != expected {expected}")
    outs = [np.empty((sched.n_win * per_pair, *sched.extent), dtype=batch.dtype) for _ in range(modalities)]
    for i, (sd, sh, sw), m, view in _token_grids(batch, sched, per_pair, modalities):
        _, nd, td, nh, th, nw, tw = view.shape
        dst = outs[m][i * per_pair : (i + 1) * per_pair].reshape(per_pair, nd, td, sd, nh, th, sh, nw, tw, sw)
        dst[...] = view[:, :, :, None, :, :, None, :, :, None]
    return outs


@dataclass
class CostMeter:
    """Multiply counter following the per-window attention cost model.

    Each big window of T tokens at reference width C is charged 4*T*C*C for
    the query/key/value/mixer projections and 2*T*T*C for the two attention
    matrix products; ``pwa_forward`` charges every window of a pair at once.
    """

    multiplies: int = 0

    def charge(self, windows: int, tokens: int, width: int) -> None:
        self.multiplies += windows * (4 * tokens * width * width + 2 * tokens * tokens * width)


def grouped_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, pos_bias: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention over a batch of gathered windows, in place.

    Inputs are [n, n_head, c_hat, T].  ``pos_bias`` is one [T, T] table
    shared by every head and all n windows.  Per window and head the weights
    are softmax(q^T k / sqrt(c_hat) + pos_bias) and the output token j is the
    weight-j-row combination of value tokens, written over ``q`` (``k`` or ``v`` may be ``q``),
    which is returned.  Anything but a writeable float ndarray ``q`` raises ShapeError up front.
    """
    if not _overwritable(q):
        raise ShapeError(f"grouped_attention needs a writeable float q, got {getattr(q, 'dtype', type(q))}")
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim != 4:
        raise ShapeError(f"sequence batch must be rank 4 [n, heads, c, T], got rank {q.ndim}")
    n, n_head, c_hat, tokens = q.shape
    pos_bias = np.asarray(pos_bias, dtype=q.dtype)
    if pos_bias.shape != (tokens, tokens):
        raise ShapeError(f"position bias shape {pos_bias.shape} != {(tokens, tokens)}")
    scale = q.dtype.type(1.0 / np.sqrt(c_hat))
    chunk = max(1, _CHUNK_BUDGET // max(1, n_head * tokens * tokens))
    for start in range(0, n, chunk):
        s = slice(start, min(n, start + chunk))
        logits = np.swapaxes(q[s], 2, 3) @ k[s]
        logits *= scale
        logits += pos_bias
        weights = softmax_rows(logits)
        np.matmul(v[s], np.swapaxes(weights, 2, 3), out=q[s])
    return q


@dataclass(frozen=True)
class PwaParams:
    """Weights of one paired-window attention layer (shared across modalities).

    Projections map the stage width C to n_win * n_head * c_hat channels;
    the mixer maps them back to C.  One dense (M*L) x (M*L) position-bias
    table per window pair, shared by all big windows of that pair (real, finite).
    """

    q_proj: ConvParams
    k_proj: ConvParams
    v_proj: ConvParams
    mixer: ConvParams
    pos_bias: tuple[np.ndarray, ...]
    norm_scale: np.ndarray
    norm_shift: np.ndarray
    n_head: int

    def __post_init__(self):
        per_head = len(self.pos_bias) * self.n_head
        for name, p in (("q", self.q_proj), ("k", self.k_proj), ("v", self.v_proj)):
            if per_head < 1 or p.c_out != self.q_proj.c_out or p.c_out % per_head != 0:
                raise ConfigError(
                    f"{name} projection emits {p.c_out} channels; expected the q projection's "
                    f"{self.q_proj.c_out}, a multiple of n_win*n_head = {per_head}"
                )
        for i, table in enumerate(self.pos_bias):
            if not np.all(np.isfinite(real_array(table, f"position bias table {i}", ConfigError))):
                raise ConfigError(f"position bias table {i} contains non-finite values")

    @property
    def channels(self) -> int:
        return self.q_proj.c_in

    @property
    def c_hat(self) -> int:
        """Channels per head and window pair: the projection width over n_win * n_head."""
        return self.q_proj.c_out // (len(self.pos_bias) * self.n_head)


def pwa_forward(
    features,
    params: PwaParams,
    sched: WindowSchedule,
    *,
    meter: CostMeter | None = None,
):
    """Full attention layer over M modality tensors of shape [C, D, H, W].

    Pipeline: layer norm -> q/k/v pointwise projections -> gather ->
    grouped attention per window pair over the q batch, in place -> scatter ->
    pointwise mixer -> residual add.  Returns M tensors shaped like the inputs.
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

    offset = 0
    for i, n_i in enumerate(sched.window_counts()):
        if meter is not None:
            meter.charge(n_i, modalities * sched.seq_len, params.channels)
        sl = slice(offset, offset + n_i)
        grouped_attention(qb[sl], kb[sl], vb[sl], params.pos_bias[i])
        offset += n_i
    del kb, vb

    scattered = scatter(qb, sched, params.n_head, params.c_hat, modalities)
    return [e + pointwise_conv(a, params.mixer) for e, a in zip(features, scattered)]


def pwa_flops(extent, sched: WindowSchedule, channels: int, modalities: int = 1) -> int:
    """Closed-form multiply count of one attention layer.

    With N the feature volume, B/S the first pair's big/small volumes and
    kappa the geometric window-count factor (1 - r**(-3 n_win)) /
    (1 - r**-3), the count is (N*kappa/S) * (4*C^2 + 2*(B/S)*C) per modality
    token stream; M modality tokens scale the projection term by M and the
    quadratic attention term by M^2.  Evaluated in exact rational arithmetic.
    """
    extent = spatial_triple(extent, "extent")
    if extent != sched.extent:
        raise ShapeError(f"extent {extent} != schedule extent {sched.extent}")
    channels = count(channels, "channels", 1, DomainError)
    modalities = count(modalities, "modalities", 1, DomainError)
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
    )
