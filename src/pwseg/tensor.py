"""Dense-tensor substrate: layout, pooling, convolution, norms.

Feature tensors are plain float32 numpy arrays of rank 4,

    [channel, depth, height, width]   (C-order)

so width is the fastest-varying axis.  M modalities travel as a list of M
such tensors; the rank-5 [modality, channel, D, H, W] array is only the
``.vxs`` file layout (:mod:`pwseg.volume_io`).  Every operation here
except :func:`softmax_rows` and :func:`gelu` is a pure function of its
inputs; outputs are freshly allocated arrays, never views into mutable
state.  The in-place kernels ``softmax_rows``, ``gelu`` and ``pwa.grouped_attention``
(over its q) overwrite their argument with the result and return it, so attention
keeps one logits buffer per chunk and three sequence batches per layer, and each
GELU runs in the buffer its caller just made.

The argument parsers live here too: :func:`spatial_triple` for (D, H, W) triples,
:func:`count` for counts and :func:`real` for real scalars.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError, ShapeError

DTYPE = np.float32

SPATIAL_AXES = ("depth", "height", "width")


def is_integral(value) -> bool:
    """True for an integer or a float with no fractional part (numpy scalars too); False for a bool."""
    if isinstance(value, (float, np.floating)):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# The least positive float: a :func:`real` minimum of POSITIVE admits exactly the values > 0.
POSITIVE = math.ulp(0.0)


def _at_least(minimum) -> str:
    return {-math.inf: "", POSITIVE: " > 0"}.get(minimum, f" >= {minimum:g}")


def count(value, what: str, minimum: int, error: type) -> int:
    """``value`` as an int; ``error`` naming ``what`` unless it is an :func:`is_integral` number >= ``minimum``."""
    if not (is_integral(value) and value >= minimum):
        raise error(f"{what} must be an integer{_at_least(minimum)}, got {value!r}")
    return int(value)


def real(value, what: str, minimum: float, error: type) -> float:
    """``value`` as a float; ``error`` naming ``what`` unless it is a finite real, not a bool, >= ``minimum``."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and value >= minimum):
        raise error(f"{what} must be a finite real number{_at_least(minimum)}, got {value!r}")
    return float(value)


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; DomainError naming the seed unless it is an integer >= 0."""
    return np.random.default_rng(count(seed, "seed", 0, DomainError))


def spatial_triple(triple, what: str) -> tuple[int, int, int]:
    """``triple`` as three ints: the one parser of every (D, H, W) extent, window and grid.

    Raises ShapeError naming ``what`` unless ``triple`` holds exactly three
    :func:`is_integral` entries (the ``NetworkConfig`` rule); nothing is truncated.
    """
    entries = tuple(triple) if np.iterable(triple) else ()
    if len(entries) != 3 or not all(map(is_integral, entries)):
        raise ShapeError(f"{what} must be a (D, H, W) triple of integers, got {triple!r}")
    return tuple(map(int, entries))


def require_finite(arr: np.ndarray, what: str = "tensor") -> np.ndarray:
    """Return ``arr`` unchanged; raise NonFiniteError if it holds NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    return arr


def _check_divisible(extent, block, what: str) -> None:
    for axis, e, b in zip(SPATIAL_AXES, extent, block):
        if b <= 0:
            raise ShapeError(f"{what} {axis} size must be positive, got {b}")
        if e % b != 0:
            raise ShapeError(f"{axis} extent {e} not divisible by {what} size {b}")


@dataclass(frozen=True)
class ConvParams:
    """Weights of a 3D convolution.

    ``weight`` has shape [C_out, C_in // groups, k, k, k].  At ``stride`` 1
    the kernel k is odd and the conv is same-padded (:func:`conv3d`); at
    stride s > 1 the kernel equals s and the conv is a non-overlapping
    patchify (``network.downsample_conv``).  ``groups`` is the number of
    channel groups (torch convention: group g's output channels read only
    group g's input channels).  Weights and bias must be finite, so a
    padding-only tap that :func:`conv3d` skips would have added only zeros.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    groups: int = 1
    stride: int = 1

    def __post_init__(self):
        w = np.ascontiguousarray(self.weight, dtype=DTYPE)
        object.__setattr__(self, "weight", w)
        if w.ndim != 5:
            raise ConfigError(f"conv weight must be rank 5, got rank {w.ndim}")
        if not (w.shape[2] == w.shape[3] == w.shape[4]):
            raise ConfigError(f"conv kernel must be cubic, got {w.shape[2:]}")
        object.__setattr__(self, "stride", count(self.stride, "conv stride", 1, ConfigError))
        object.__setattr__(self, "groups", count(self.groups, "conv groups", 1, ConfigError))
        if self.stride == 1 and self.kernel % 2 == 0:
            raise ConfigError(f"conv kernel must be odd for same padding, got {self.kernel}")
        if self.stride > 1 and self.kernel != self.stride:
            raise ConfigError(f"strided conv needs kernel == stride {self.stride}, got kernel {self.kernel}")
        if self.c_out % self.groups != 0:
            raise ConfigError(f"output channels {self.c_out} not divisible by groups {self.groups}")
        if self.bias is not None:
            b = np.ascontiguousarray(self.bias, dtype=DTYPE)
            object.__setattr__(self, "bias", b)
            if b.shape != (self.c_out,):
                raise ConfigError(f"bias shape {b.shape} != ({self.c_out},)")
        for name, arr in (("weight", w), ("bias", self.bias)):
            if arr is not None and not np.isfinite(arr).all():
                raise ConfigError(f"conv {name} contains non-finite values")

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) samples redrawn until they fall within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(DTYPE)


def init_conv(
    rng: np.random.Generator,
    c_out: int,
    c_in_per_group: int,
    kernel: int = 1,
    groups: int = 1,
    bias: bool = True,
    stride: int = 1,
) -> ConvParams:
    """A conv with truncated-normal weights (sigma 0.02) and a zero bias (or none)."""
    weight = _trunc_normal(rng, (c_out, c_in_per_group, kernel, kernel, kernel))
    b = np.zeros(c_out, dtype=DTYPE) if bias else None
    return ConvParams(weight=weight, bias=b, groups=groups, stride=stride)


def param_arrays(obj):
    """Yield every array reachable from ``obj`` through dataclass fields and tuples.

    Parameter bundles hold only parameters as arrays, so this walks the
    stored parameters of a conv, a block or a whole network, in field order.
    """
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from param_arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from param_arrays(getattr(obj, f.name))


def param_count(obj) -> int:
    """Exact number of stored parameter reals in ``obj``."""
    return sum(a.size for a in param_arrays(obj))


def _live_taps(k: int, extent: int) -> range:
    """The taps of a same-padded kernel k along an axis of ``extent`` that reach data, not only padding."""
    p = k // 2
    return range(max(0, p - extent + 1), min(k, p + extent))


def conv3d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Grouped 3D convolution, stride 1, zero same-padding, computed and returned in ``DTYPE``.

    Output spatial dims equal input's.  Within group g, output channels of
    group g read only input channels of group g.  k = 1 is one stacked
    matmul over all groups.  For k > 1 the input is padded once, with a
    spare zero plane, and outputs are computed on the padded (H, W) grid,
    where tap (dz, dy, dx) is the flat column window at offset
    (dz·Hp + dy)·Wp + dx.  The live x taps are copied once, side by side,
    so each live (dz, dy) tap is one stacked matmul whose inner dimension
    runs over (input channel, x tap); the crop to (H, W) comes last.  Taps
    that see only padding are skipped, which is exact because
    ``ConvParams`` holds finite weights.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv3d input must be rank 4 [C, D, H, W], got rank {x.ndim}")
    if p.stride != 1:
        raise ConfigError(f"conv3d runs stride-1 convs only, got stride {p.stride}")
    c_in, d, h, w = x.shape
    if c_in != p.c_in:
        raise ConfigError(f"input has {c_in} channels, conv expects {p.c_in}")
    k, g = p.kernel, p.groups
    cog, cig = p.c_out // g, c_in // g
    if k == 1:
        out = np.empty((g, cog, d * h * w), dtype=DTYPE)
        np.matmul(p.weight.reshape(g, cog, cig), x.astype(DTYPE, copy=False).reshape(g, cig, -1), out=out)
    else:
        pad = k // 2
        hp, wp = h + 2 * pad, w + 2 * pad
        xp = np.zeros((c_in, d + 2 * pad + 1, hp, wp), dtype=DTYPE)
        xp[:, pad : pad + d, pad : pad + h, pad : pad + w] = x
        flat = xp.reshape(c_in, -1)
        tz, ty, tx = (_live_taps(k, e) for e in (d, h, w))
        n = d * hp * wp
        span = (tz[-1] * hp + ty[-1]) * wp + n
        shifted = np.empty((c_in, len(tx), span), dtype=DTYPE)
        for i, dx in enumerate(tx):
            shifted[:, i] = flat[:, dx : dx + span]
        cols = shifted.reshape(g, cig * len(tx), span)
        # [k, k, groups, C_out/g, (C_in/g)·(live x taps)]: one weight matrix per (dz, dy) tap
        wk = p.weight.reshape(g, cog, cig, k, k, k)[..., tx.start : tx.stop].transpose(3, 4, 0, 1, 2, 5)
        wk = np.ascontiguousarray(wk).reshape(k, k, g, cog, cig * len(tx))
        out = np.empty((g, cog, n), dtype=DTYPE)
        tmp = np.empty_like(out)
        for i, (dz, dy) in enumerate(itertools.product(tz, ty)):
            off = (dz * hp + dy) * wp
            window = cols[..., off : off + n]
            if i == 0:
                np.matmul(wk[dz, dy], window, out=out)
            else:
                out += np.matmul(wk[dz, dy], window, out=tmp)
        out = np.ascontiguousarray(out.reshape(p.c_out, d, hp, wp)[:, :, :h, :w])
    out = out.reshape(p.c_out, d, h, w)
    if p.bias is not None:
        out += p.bias[:, None, None, None]
    return out


def pointwise_conv(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """1x1x1 convolution (per-voxel linear map across channels)."""
    if p.kernel != 1:
        raise ConfigError(f"pointwise conv requires kernel 1, got {p.kernel}")
    return conv3d(x, p)


def max_pool3(x: np.ndarray, pool) -> np.ndarray:
    """Non-overlapping max pooling over the trailing three axes.

    Stride equals the pool size; each output voxel is the maximum over its
    block.  Leading axes are preserved.  Each axis with pool k > 1 is pooled
    on its own: its ``0::k`` slice is copied, then the ``j::k`` slices fold
    in with ``np.maximum``.  Max is exact, so the order does not change the
    result.  The output is always a fresh array, also for a unit pool.
    """
    if x.ndim < 3:
        raise ShapeError(f"max_pool3 input must have >= 3 dims, got {x.ndim}")
    pool = spatial_triple(pool, "pool")
    _check_divisible(x.shape[-3:], pool, "pool")
    out = x
    for axis, k in zip(range(x.ndim - 3, x.ndim), pool):
        if k > 1:
            lead = (slice(None),) * axis
            pooled = out[lead + (slice(0, None, k),)].copy()
            for j in range(1, k):
                np.maximum(pooled, out[lead + (slice(j, None, k),)], out=pooled)
            out = pooled
    return x.copy() if out is x else out


def _overwritable(a) -> bool:
    """True for a writeable floating-point ndarray: what an in-place kernel may overwrite."""
    return isinstance(a, np.ndarray) and a.dtype.kind == "f" and a.flags.writeable


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, shift-invariant and stable.

    Overwrites the floating-point array ``m`` with its softmax and returns
    it: the row max is subtracted, exponentiated and divided by the row sum
    in place, so no temporary of ``m``'s size is made.  Anything but a
    writeable floating-point ndarray raises ShapeError before anything is written.
    """
    if not _overwritable(m):
        raise ShapeError(f"softmax_rows needs a writeable float array, got {getattr(m, 'dtype', type(m))}")
    m -= m.max(axis=-1, keepdims=True)
    np.exp(m, out=m)
    m /= m.sum(axis=-1, keepdims=True)
    return m


NORM_EPS = 1e-5


def _normalize(x, axis, scale, shift):
    """(x - mean) / sqrt(var + NORM_EPS) * scale + shift over ``axis``, as float32.

    The variance is the mean square of the one deviation, as ``np.var`` computes
    it, and the rest runs in place on the deviation, so the bits are the two-pass form's.
    """
    xc = x - x.mean(axis=axis, keepdims=True)
    var = np.mean(xc * xc, axis=axis, keepdims=True)
    xc /= np.sqrt(var + NORM_EPS)
    xc *= scale[:, None, None, None]
    xc += shift[:, None, None, None]
    return xc.astype(DTYPE, copy=False)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize over the channel axis (axis 0) per voxel, then scale/shift."""
    return _normalize(x, 0, scale, shift)


def instance_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize each channel over its spatial extent, then scale/shift."""
    return _normalize(x, (1, 2, 3), scale, shift)


_GELU_C = math.sqrt(2.0 / math.pi)
# Elements per GELU block: the scratch block and the slice of x it overwrites
# (2 x 128 KiB in float32) stay in L2 while the formula's passes run over them.
GELU_BLOCK = 32768


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation), in place.

    Overwrites ``x`` with 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))
    and returns it, in blocks of ``GELU_BLOCK`` elements through one scratch
    block: no full-size temporary, and each block is read before it is
    written, so the bits are those of the same operations over the whole
    array.  Anything but a writeable C-contiguous floating-point ndarray
    raises ShapeError before anything is written.
    """
    if not (_overwritable(x) and x.flags.c_contiguous):
        raise ShapeError(f"gelu needs a writeable C-contiguous float array, got {getattr(x, 'dtype', type(x))}")
    flat = x.reshape(-1)
    scratch = np.empty(min(flat.size, GELU_BLOCK), dtype=x.dtype)
    for start in range(0, flat.size, GELU_BLOCK):
        xb = flat[start : start + GELU_BLOCK]
        t = scratch[: xb.size]
        # the whole-array expression's operations, in its order and dtype;
        # xb is overwritten only after its last read into t
        np.multiply(xb, 0.044715, out=t)
        t *= xb
        t *= xb
        t += xb
        t *= _GELU_C
        np.tanh(t, out=t)
        t += 1.0
        xb *= 0.5
        xb *= t
    return x


def voxel_shuffle(x: np.ndarray, factor: int) -> np.ndarray:
    """Rearrange [C*f^3, D, H, W] -> [C, f*D, f*H, f*W] (channel to space).

    Channel index decomposes as c*f^3 + dz*f^2 + dy*f + dx, matching the
    sub-pixel convolution convention.
    """
    if x.ndim != 4:
        raise ShapeError(f"voxel_shuffle input must be rank 4, got rank {x.ndim}")
    c_in, d, h, w = x.shape
    f3 = factor**3
    if factor < 1 or c_in % f3 != 0:
        raise ShapeError(f"channels {c_in} not divisible by shuffle factor {factor}^3")
    c = c_in // f3
    x7 = x.reshape(c, factor, factor, factor, d, h, w)
    x7 = x7.transpose(0, 4, 1, 5, 2, 6, 3)
    return np.ascontiguousarray(x7).reshape(c, d * factor, h * factor, w * factor)
