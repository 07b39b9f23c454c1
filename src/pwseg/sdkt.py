"""Gram-matrix texture transfer loss, its analytic gradient, and an MMD oracle.

The Gram matrix of a feature map X in R^{C x (D*H*W)} is X X^T / (C*D*H*W):
a channel-by-channel correlation that is invariant to any permutation of the
voxel axis.  The transfer loss is a weighted sum of squared Frobenius gaps
between teacher Grams and the segmentation-feature Gram.  For equal sample
counts this objective is exactly MMD^2 with the kernel (u^T v)^2 scaled by
1/C^2, which ``mmd_poly2`` certifies numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError

# Unsigned view and sign-plus-mantissa mask of each float type the column key
# covers; the exponent is masked out so x and 2^k x share a key.
_SIGN_AND_MANTISSA = {
    np.dtype(np.float32): (np.uint32, 0x807FFFFF),
    np.dtype(np.float64): (np.uint64, 0x800FFFFFFFFFFFFF),
}


def _as_matrix(x: np.ndarray) -> np.ndarray:
    """Flatten [C, D, H, W] (or [C, N]) features to a C x N sample matrix."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"feature tensor must have a channel axis plus voxels, got rank {x.ndim}")
    if x.size == 0:
        raise ShapeError(f"feature tensor of shape {x.shape} has no channels or no voxels")
    return x.reshape(x.shape[0], -1)


def _row_multipliers(rows: int) -> np.ndarray:
    """One fixed odd 64-bit constant per row: splitmix64 of the row index."""
    z = np.arange(1, rows + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


def _column_keys(m: np.ndarray) -> np.ndarray:
    """Wrapping uint64 sum over rows of (sign and mantissa bits) * row constant."""
    uint, mask = _SIGN_AND_MANTISSA[m.dtype]
    keys = np.zeros(m.shape[1], dtype=np.uint64)
    for row, k in zip(m.view(uint), _row_multipliers(m.shape[0])):
        keys += (row & mask).astype(np.uint64) * k
    return keys


def _canonical_order(m: np.ndarray) -> np.ndarray:
    """Column order that depends only on the multiset of columns of ``m``.

    Each column becomes one uint64 word: the top 64 - b bits of its key over
    its index in the low b bits, so one in-place sort yields the order in the
    low bits.  Equal high parts on columns that are not bit-identical (a key
    collision) fall back to lexsort.
    """
    if m.dtype not in _SIGN_AND_MANTISSA:
        return np.lexsort(m[::-1])
    n = m.shape[1]
    index_mask = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    words = _column_keys(m)
    words &= ~index_mask
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    order = (words & index_mask).astype(np.intp)
    words &= ~index_mask
    tied = np.flatnonzero(words[1:] == words[:-1])
    if tied.size:
        bits = m.view(_SIGN_AND_MANTISSA[m.dtype][0])
        if np.any(bits[:, order[tied]] != bits[:, order[tied + 1]]):
            return np.lexsort(m[::-1])  # two distinct columns share a key
    return order


def gram(x: np.ndarray) -> np.ndarray:
    """Channel correlation matrix X X^T / (C * volume); symmetric PSD.

    Voxel columns are sorted into a canonical order before the reduction so
    the result is bit-identical under any spatial permutation of the input
    (summation order would otherwise leak voxel order into the rounding).
    For float32 and float64 the order comes from one 64-bit key per column,
    a hash of its sign and mantissa bits with the exponent masked out, so x
    and 2^k x sort alike and power-of-two scales stay exact; the key's top
    bits and the column index share one word, so one sort gives the order.
    Equal keys on bit-identical columns are harmless in any order; if two
    distinct columns share the top bits of a key, or for any other dtype,
    the columns are lexsorted instead.
    """
    m = _as_matrix(x)
    c, n = m.shape
    m = np.take(m, _canonical_order(m), axis=1)
    g = (m @ m.T) / (c * n)
    return (g + g.T) * 0.5  # exact symmetry despite BLAS rounding


def _teacher_grams(channels: int, teachers):
    """Yield (Gram, weight) per (feature tensor, weight) teacher, checking its channels and weight."""
    for t, (feat, weight) in enumerate(teachers):
        c = _as_matrix(feat).shape[0]
        if c != channels:
            raise ShapeError(f"teacher {t} has {c} channels, segmentation features have {channels}")
        if not (math.isfinite(weight) and weight >= 0):
            raise DomainError(f"teacher {t} has weight {weight!r}; it must be a finite number >= 0")
        yield gram(feat), weight


def sdkt_loss(d_seg: np.ndarray, teachers) -> float:
    """Weighted squared-Frobenius gap between teacher Grams and the seg Gram.

    ``teachers`` is a sequence of (feature tensor, weight) pairs.  Volumes may
    differ across tensors (the Gram is spatially invariant) but channel counts
    must match.  Non-negative; zero iff every teacher Gram equals the seg Gram.
    """
    g_seg = gram(d_seg)
    total = 0.0
    for g_teacher, weight in _teacher_grams(g_seg.shape[0], teachers):
        diff = g_teacher - g_seg
        total += weight * float(np.sum(diff * diff))
    return total


def sdkt_grad(d_seg: np.ndarray, teachers) -> np.ndarray:
    """Analytic gradient of :func:`sdkt_loss` with respect to ``d_seg``.

    d/dX || X X^T / n - G ||_F^2 = (4 / n) (X X^T / n - G) X  with
    n = C * volume, summed over teachers with their weights.
    """
    x = np.asarray(d_seg)
    m = _as_matrix(x)
    g_seg = gram(x)
    acc = np.zeros_like(g_seg)
    for g_teacher, weight in _teacher_grams(m.shape[0], teachers):
        acc += weight * (g_seg - g_teacher)
    grad = (4.0 / m.size) * (acc @ m)
    return grad.reshape(x.shape)


def mmd_poly2(x: np.ndarray, y: np.ndarray) -> float:
    """Squared maximum mean discrepancy with kernel (u^T v)^2.

    Voxel positions are the samples (columns); the biased V-statistic
    estimator averages the kernel over all pairs including self-pairs.
    """
    mx = _as_matrix(x)
    my = _as_matrix(y)
    if mx.shape[0] != my.shape[0]:
        raise ShapeError(f"channel counts differ: {mx.shape[0]} vs {my.shape[0]}")
    kxx = np.square(mx.T @ mx)
    kyy = np.square(my.T @ my)
    kxy = np.square(mx.T @ my)
    return float(kxx.mean() + kyy.mean() - 2.0 * kxy.mean())
