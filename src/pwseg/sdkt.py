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
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError
from .tensor import real, real_array

# Per float type the Gram computes in: how many channels one 64-bit key word
# holds, and the mask that keeps their sign and mantissa bits.  The exponents
# are masked out so x and 2^k x share a key.
_KEY_WORD = {
    np.dtype(np.float32): (2, 0x807FFFFF807FFFFF),
    np.dtype(np.float64): (1, 0x800FFFFFFFFFFFFF),
}


def _as_matrix(x, what: str = "features") -> np.ndarray:
    """Flatten [C, D, H, W] (or [C, N]) real features (DomainError naming ``what``) to a C x N sample matrix.

    Promoted as ``np.result_type(dtype, np.float32)``, so no bool or small-int product wraps or saturates.
    """
    x = real_array(x, what, DomainError)
    if x.ndim < 2:
        raise ShapeError(f"{what} must have a channel axis plus voxels, got rank {x.ndim}")
    if x.size == 0:
        raise ShapeError(f"{what} of shape {x.shape} has no channels or no voxels")
    m = x.reshape(x.shape[0], -1)
    return m.astype(np.result_type(m.dtype, np.float32), copy=False)


@contextmanager
def _finite(what: str):
    """Float overflow or an invalid operation in the block raises NonFiniteError led by ``what``, not inf or NaN.

    Nested blocks name the outermost first: a teacher's Gram that overflows names the teacher, then the Gram.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, NonFiniteError) as exc:
        raise NonFiniteError(f"{what}: {exc}") from None


def _column_major(m: np.ndarray) -> np.ndarray:
    """Copy the C x N matrix ``m`` (of at least float32, see :func:`_as_matrix`) to t = [N, C'].

    C' rounds C up to whole 64-bit words (even for float32), and the pad
    column is zero, so ``t.view(np.uint64)`` holds each column's key words.
    """
    if m.dtype not in _KEY_WORD:
        raise DomainError(f"gram needs real features of at most 64 bits, got dtype {m.dtype}")
    c, n = m.shape
    per = _KEY_WORD[m.dtype][0]
    t = np.empty((n, -(-c // per) * per), dtype=m.dtype)
    t[:, :c] = m.T
    t[:, c:] = 0
    return t


def _word_multipliers(words: int) -> np.ndarray:
    """One fixed odd 64-bit constant per key word: splitmix64 of the word index."""
    z = np.arange(1, words + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


def _column_keys(t: np.ndarray) -> np.ndarray:
    """One key per row of ``t``: wrapping uint64 sum of its masked words times the word constants."""
    words = t.view(np.uint64)
    return np.einsum("ij,j->i", words & np.uint64(_KEY_WORD[t.dtype][1]), _word_multipliers(words.shape[1]))


def _canonical_order(t: np.ndarray) -> np.ndarray:
    """Row order of ``t`` that depends only on the multiset of its rows.

    Each row becomes one uint64 word: the top 64 - b bits of its key over
    its index in the low b bits, so one in-place sort yields the order in the
    low bits.  Equal high parts on rows that are not bit-identical (a key
    collision) fall back to lexsort.
    """
    n = t.shape[0]
    index_mask = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    words = _column_keys(t)
    words &= ~index_mask
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    order = (words & index_mask).astype(np.intp)
    words &= ~index_mask
    tied = np.flatnonzero(words[1:] == words[:-1])
    if tied.size:
        bits = t.view(np.uint64)
        if np.any(bits[order[tied]] != bits[order[tied + 1]]):
            return np.lexsort(t.T[::-1])  # two distinct rows share a key
    return order


def gram(x: np.ndarray) -> np.ndarray:
    """Channel correlation matrix X X^T / (C * volume); symmetric PSD.

    Voxel columns are sorted into a canonical order before the reduction so
    the result is bit-identical under any spatial permutation of the input
    (summation order would otherwise leak voxel order into the rounding).
    The features are copied once into a column-major float32 or float64
    matrix t = [volume, C'] (other real dtypes are promoted; C' pads C to
    whole 64-bit words with a zero column).  Each voxel's key is a wrapping
    uint64 dot product of its words, sign and mantissa bits only, with fixed
    constants (one einsum over t), so x and 2^k x sort alike and
    power-of-two scales stay exact; the key's top bits and the
    voxel index share one word, so one sort gives the order.  Equal keys on
    bit-identical voxels are harmless in any order; if two distinct voxels
    share the top bits of a key, the voxels are lexsorted instead.  The
    product gathers whole rows of t in that order.  A product that
    overflows the float type raises NonFiniteError.
    """
    m = _as_matrix(x)
    c, n = m.shape
    t = _column_major(m)
    s = np.take(t, _canonical_order(t), axis=0)[:, :c]
    with _finite("Gram product"):
        g = (s.T @ s) / (c * n)
        return (g + g.T) * 0.5  # exact symmetry despite BLAS rounding


def _checked_teachers(channels: int, teachers) -> list:
    """(feature tensor, float weight) per teacher, once every entry's form, rank, channels and weight pass.

    A weight is a :func:`~pwseg.tensor.real` number >= 0, as ``SyntheticSpec``'s knobs are.
    The callers make no Gram before this returns, so a bad teacher costs none.
    """
    try:
        entries = iter(teachers)
    except TypeError:
        raise ShapeError(f"teachers must be a sequence of (features, weight) pairs, got {teachers!r}") from None
    checked = []
    for t, entry in enumerate(entries):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise ShapeError(f"teacher {t} must be a (features, weight) pair, got a {type(entry).__name__}")
        feat, weight = entry
        c = _as_matrix(feat, f"teacher {t} features").shape[0]
        if c != channels:
            raise ShapeError(f"teacher {t} has {c} channels, segmentation features have {channels}")
        checked.append((feat, real(weight, f"teacher {t} weight", 0, DomainError)))
    return checked


def _teacher_pass(d_seg: np.ndarray, teachers):
    """(seg matrix, sum w*||G_t - G_s||^2, sum w*(G_s - G_t)): the seg Gram, then each teacher's once.

    NonFiniteError naming the segmentation features or the teacher if a float overflows on the way.
    """
    m = _as_matrix(d_seg, "segmentation features")
    checked = _checked_teachers(m.shape[0], teachers)
    with _finite("segmentation features"):
        g_seg = gram(d_seg)
    loss = 0.0
    acc = np.zeros_like(g_seg)
    for t, (feat, weight) in enumerate(checked):
        with _finite(f"teacher {t}"):
            gap = gram(feat) - g_seg
            loss += weight * float(np.sum(gap * gap))
            if math.isinf(loss):  # a Python float overflows without a flag
                raise FloatingPointError("overflow encountered in the weighted loss")
            acc -= weight * gap
    return m, loss, acc


def sdkt_loss(d_seg: np.ndarray, teachers) -> float:
    """Weighted squared-Frobenius gap between teacher Grams and the seg Gram.

    ``teachers`` is a sequence of (feature tensor, weight) pairs.  Volumes may
    differ across tensors (the Gram is spatially invariant) but channel counts
    must match.  Non-negative; zero iff every teacher Gram equals the seg Gram.
    """
    return _teacher_pass(d_seg, teachers)[1]


def sdkt_grad(d_seg: np.ndarray, teachers) -> np.ndarray:
    """Analytic gradient of :func:`sdkt_loss` with respect to ``d_seg``.

    d/dX || X X^T / n - G ||_F^2 = (4 / n) (X X^T / n - G) X  with
    n = C * volume, summed over teachers with their weights.
    """
    m, _, acc = _teacher_pass(d_seg, teachers)
    grad = acc @ m
    grad *= 4.0 / m.size
    return grad.reshape(np.shape(d_seg))


def mmd_poly2(x: np.ndarray, y: np.ndarray) -> float:
    """Squared maximum mean discrepancy with kernel (u^T v)^2.

    Voxel positions are the samples (columns); the biased V-statistic
    estimator averages the kernel over all pairs including self-pairs.
    A kernel that overflows raises NonFiniteError, not inf.
    """
    mx = _as_matrix(x, "x features")
    my = _as_matrix(y, "y features")
    if mx.shape[0] != my.shape[0]:
        raise ShapeError(f"channel counts differ: {mx.shape[0]} vs {my.shape[0]}")
    with _finite("MMD kernel"):
        kxx = np.square(mx.T @ mx)
        kyy = np.square(my.T @ my)
        kxy = np.square(mx.T @ my)
        return float(kxx.mean() + kyy.mean() - 2.0 * kxy.mean())
