"""Dense-tensor substrate: layout, windowing, pooling, convolution, norms.

Feature tensors are plain float32 numpy arrays in one canonical layout:

    rank 5  [modality, channel, depth, height, width]   (C-order)
    rank 4  [channel, depth, height, width]             (single modality)

so modality is the slowest-varying axis and width the fastest.  Every
operation here is a pure function of its inputs; outputs are freshly
allocated arrays, never views into mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError

DTYPE = np.float32

SPATIAL_AXES = ("depth", "height", "width")


def as_tensor5(data) -> np.ndarray:
    """Coerce ``data`` to a contiguous rank-5 float32 array."""
    arr = np.ascontiguousarray(data, dtype=DTYPE)
    if arr.ndim != 5:
        raise ShapeError(f"expected rank-5 [M, C, D, H, W] array, got rank {arr.ndim}")
    return arr


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
    group g's input channels).
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
        if self.stride < 1:
            raise ConfigError(f"conv stride must be >= 1, got {self.stride}")
        if self.stride == 1 and self.kernel % 2 == 0:
            raise ConfigError(f"conv kernel must be odd for same padding, got {self.kernel}")
        if self.stride > 1 and self.kernel != self.stride:
            raise ConfigError(f"strided conv needs kernel == stride {self.stride}, got kernel {self.kernel}")
        if self.groups <= 0:
            raise ConfigError(f"groups must be positive, got {self.groups}")
        if self.c_out % self.groups != 0:
            raise ConfigError(f"output channels {self.c_out} not divisible by groups {self.groups}")
        if self.bias is not None:
            b = np.ascontiguousarray(self.bias, dtype=DTYPE)
            object.__setattr__(self, "bias", b)
            if b.shape != (self.c_out,):
                raise ConfigError(f"bias shape {b.shape} != ({self.c_out},)")

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
    return out.astype(np.float32)


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


def conv3d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Grouped 3D convolution, stride 1, zero same-padding.

    Output spatial dims equal input's.  Within group g, output channels of
    group g read only input channels of group g.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv3d input must be rank 4 [C, D, H, W], got rank {x.ndim}")
    if p.stride != 1:
        raise ConfigError(f"conv3d runs stride-1 convs only, got stride {p.stride}")
    c_in, d, h, w = x.shape
    if c_in != p.c_in:
        raise ConfigError(f"input has {c_in} channels, conv expects {p.c_in}")
    if c_in % p.groups != 0:
        raise ConfigError(f"input channels {c_in} not divisible by groups {p.groups}")
    k = p.kernel
    if k == 1:
        return _conv_k1(x, p)
    pad = k // 2
    xp = np.zeros((c_in, d + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=DTYPE)
    xp[:, pad : pad + d, pad : pad + h, pad : pad + w] = x

    cig = c_in // p.groups
    cog = p.c_out // p.groups
    n = d * h * w
    out = np.empty((p.c_out, n), dtype=DTYPE)
    for g in range(p.groups):
        xg = xp[g * cig : (g + 1) * cig]
        wg = p.weight[g * cog : (g + 1) * cog]
        acc = np.zeros((cog, n), dtype=DTYPE)
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


def _conv_k1(x: np.ndarray, p: ConvParams) -> np.ndarray:
    c_in = x.shape[0]
    spatial = x.shape[1:]
    cig = c_in // p.groups
    cog = p.c_out // p.groups
    flat = x.reshape(c_in, -1)
    if p.groups == 1:
        out = p.weight.reshape(p.c_out, c_in) @ flat
    else:
        out = np.empty((p.c_out, flat.shape[1]), dtype=DTYPE)
        for g in range(p.groups):
            wg = p.weight[g * cog : (g + 1) * cog, :, 0, 0, 0]
            out[g * cog : (g + 1) * cog] = wg @ flat[g * cig : (g + 1) * cig]
    out = out.reshape(p.c_out, *spatial)
    if p.bias is not None:
        out += p.bias[:, None, None, None]
    return out


def pointwise_conv(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """1x1x1 convolution (per-voxel linear map across channels)."""
    if p.kernel != 1:
        raise ConfigError(f"pointwise conv requires kernel 1, got {p.kernel}")
    return conv3d(x, p)


def window_partition(x: np.ndarray, window) -> np.ndarray:
    """Split [C, D, H, W] into non-overlapping [n_windows, C, bd, bh, bw] blocks.

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


def max_pool3(x: np.ndarray, pool) -> np.ndarray:
    """Non-overlapping max pooling over the trailing three axes.

    Stride equals the pool size; each output voxel is the maximum over its
    block.  Leading axes are preserved.
    """
    if x.ndim < 3:
        raise ShapeError(f"max_pool3 input must have >= 3 dims, got {x.ndim}")
    sd, sh, sw = pool
    *lead, d, h, w = x.shape
    _check_divisible((d, h, w), pool, "pool")
    if sd == sh == sw == 1:
        return x.copy()
    x7 = x.reshape(*lead, d // sd, sd, h // sh, sh, w // sw, sw)
    nlead = len(lead)
    return x7.max(axis=(nlead + 1, nlead + 3, nlead + 5))


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, shift-invariant and stable."""
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize over the channel axis (axis 0) per voxel, then scale/shift."""
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    xn = (x - mu) / np.sqrt(var + eps)
    return (xn * scale[:, None, None, None] + shift[:, None, None, None]).astype(DTYPE)


def instance_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize each channel over its spatial extent, then scale/shift."""
    mu = x.mean(axis=(1, 2, 3), keepdims=True)
    var = x.var(axis=(1, 2, 3), keepdims=True)
    xn = (x - mu) / np.sqrt(var + eps)
    return (xn * scale[:, None, None, None] + shift[:, None, None, None]).astype(DTYPE)


_GELU_C = math.sqrt(2.0 / math.pi)
# Elements per GELU block: the scratch block and the output slice it fills
# (2 x 128 KiB in float32) stay in L2 while the formula's passes run over them.
GELU_BLOCK = 32768


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation).

    Evaluates 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))) in blocks of
    ``GELU_BLOCK`` elements, so no full-size temporary is made.  The output
    is a new C-ordered array of the input's shape; floating inputs keep
    their dtype, other inputs are promoted to float.
    """
    x = np.ascontiguousarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.result_type(x.dtype, DTYPE))
    out = np.empty(x.shape, dtype=x.dtype)
    flat_x = x.reshape(-1)
    flat_out = out.reshape(-1)
    scratch = np.empty(min(flat_x.size, GELU_BLOCK), dtype=x.dtype)
    for start in range(0, flat_x.size, GELU_BLOCK):
        xb = flat_x[start : start + GELU_BLOCK]
        ob = flat_out[start : start + GELU_BLOCK]
        t = scratch[: xb.size]
        # the whole-array expression's operations, in its order and dtype
        np.multiply(xb, 0.044715, out=t)
        t *= xb
        t *= xb
        t += xb
        t *= _GELU_C
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(xb, 0.5, out=ob)
        ob *= t
    return out


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
