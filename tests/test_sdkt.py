"""Gram matrix, transfer loss, analytic gradient, and MMD-equivalence tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwseg import sdkt
from pwseg.errors import DomainError, NonFiniteError, ShapeError
from pwseg.sdkt import gram, mmd_poly2, sdkt_grad, sdkt_loss


def finite_difference_grad(x, teachers, h=1e-3):
    """Central differences of the loss, element by element (float64)."""
    fd = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        fd.flat[i] = (sdkt_loss(xp, teachers) - sdkt_loss(xm, teachers)) / (2 * h)
    return fd


def count_grams(monkeypatch):
    """A list that records the shape of every ``sdkt.gram`` input from here on."""
    calls = []

    def counted(feat):
        calls.append(np.shape(feat))
        return gram(feat)

    monkeypatch.setattr(sdkt, "gram", counted)
    return calls


class TestGram:
    def test_orthonormal_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(gram(x), 0.25 * np.eye(2))

    def test_zeros(self):
        np.testing.assert_array_equal(gram(np.zeros((3, 2, 2, 2))), np.zeros((3, 3)))

    def test_symmetry_psd_trace(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4, 3, 5))
        g = gram(x)
        np.testing.assert_array_equal(g, g.T)
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-6 * np.trace(g)
        vol = 4 * 3 * 5
        np.testing.assert_allclose(np.trace(g), (x**2).sum() / (6 * vol), rtol=1e-10)

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 30))
        perm = rng.permutation(30)
        np.testing.assert_array_equal(gram(x), gram(x[:, perm]))

    def test_scaling_exact_power_of_two(self):
        """Power-of-two scales commute with the Gram exactly (no rounding)."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 40))
        for a in (0.5, 2.0, 8.0):
            np.testing.assert_array_equal(gram(a * x), a * a * gram(x))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-4, 4), st.integers(1, 5), st.integers(1, 20))
    def test_scaling(self, a, c, n):
        rng = np.random.default_rng(c * 31 + n)
        x = rng.standard_normal((c, n))
        np.testing.assert_allclose(gram(a * x), a * a * gram(x), atol=1e-9)


def lexsort_gram(x):
    """Oracle: the Gram with its columns in 16-key lexsort order, as before the column keys."""
    m = sdkt._as_matrix(x)
    c, n = m.shape
    m = m[:, np.lexsort(m[::-1])]
    g = (m @ m.T) / (c * n)
    return (g + g.T) * 0.5  # exact symmetry despite BLAS rounding


def argsort_gram(x):
    """Oracle: the Gram without the packed sort: argsort of the column keys
    (lexsort when two distinct columns share a key), then fancy indexing."""
    m = sdkt._as_matrix(x)
    c, n = m.shape
    t = sdkt._column_major(m)
    keys = sdkt._column_keys(t)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    tied = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    bits = t.view(np.uint64)
    if np.any(bits[order[tied]] != bits[order[tied + 1]]):
        order = np.lexsort(m[::-1])
    s = t[order, :c]
    g = (s.T @ s) / (c * n)
    return (g + g.T) * 0.5


# Unsigned view and sign-plus-mantissa mask per float type, for the row-wise keys.
ROWWISE_SIGN_AND_MANTISSA = {
    np.dtype(np.float32): (np.uint32, 0x807FFFFF),
    np.dtype(np.float64): (np.uint64, 0x800FFFFFFFFFFFFF),
}


def rowwise_gram(x):
    """Oracle: the float32/float64 Gram as before the column-major copy: keys
    summed row by row over [C, N], a packed sort, then a column take."""
    m = sdkt._as_matrix(x)
    c, n = m.shape
    uint, mask = ROWWISE_SIGN_AND_MANTISSA[m.dtype]
    keys = np.zeros(n, dtype=np.uint64)
    for row, k in zip(m.view(uint), sdkt._word_multipliers(c)):
        keys += (row & mask).astype(np.uint64) * k
    index_mask = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    keys &= ~index_mask
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    order = (keys & index_mask).astype(np.intp)
    keys &= ~index_mask
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    bits = m.view(uint)
    if np.any(bits[:, order[tied]] != bits[:, order[tied + 1]]):
        order = np.lexsort(m[::-1])
    m = np.take(m, order, axis=1)
    g = (m @ m.T) / (c * n)
    return (g + g.T) * 0.5


def blocked_keys(t):
    """Oracle: the column keys as one uint64 matmul per block of 4096 rows, as before the one einsum."""
    words = t.view(np.uint64)
    mask = np.uint64(sdkt._KEY_WORD[t.dtype][1])
    multipliers = sdkt._word_multipliers(words.shape[1])
    keys = np.empty(words.shape[0], dtype=np.uint64)
    for start in range(0, words.shape[0], 4096):
        stop = start + 4096
        np.matmul(words[start:stop] & mask, multipliers, out=keys[start:stop])
    return keys


def correlated(rng, c, n, dtype=np.float32):
    mix = rng.standard_normal((c, c)) / np.sqrt(c) + np.eye(c)
    return (mix @ rng.standard_normal((c, n))).astype(dtype)


def power_of_two_integers(rng, shape):
    """Integer-valued floats (+-1, 3, 5, 7 times 2^0..2^20): few sign-and-mantissa
    patterns, so many distinct columns share a column key, and products large
    enough that float32 sums round, so the summation order shows."""
    odd = rng.choice([-7, -5, -3, -1, 1, 3, 5, 7], size=shape)
    return (odd * 2.0 ** rng.integers(0, 21, size=shape)).astype(np.float32)


def signed_zeros(rng):
    """Columns of one nonzero entry that repeat up to the signs of their zeros."""
    x = np.where(rng.random((4, 512)) < 0.5, 0.0, -0.0)
    x[rng.integers(0, 4, size=512), np.arange(512)] = rng.choice([1.25, -2.75], size=512)
    return x.astype(np.float32)


class TestGramOrder:
    """The column-key order against the lexsort order it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_close_to_lexsort(self, dtype):
        """Only the summation order changes: within 1e-6 of the Gram's largest entry."""
        x = correlated(np.random.default_rng(20), 16, 4096, dtype)
        want = lexsort_gram(x)
        np.testing.assert_allclose(gram(x), want, rtol=1e-6, atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_key_colliding_falls_back_to_lexsort(self, monkeypatch, dtype):
        x = correlated(np.random.default_rng(21), 16, 4096, dtype)
        monkeypatch.setattr(sdkt, "_column_keys", lambda t: np.zeros(t.shape[0], dtype=np.uint64))
        np.testing.assert_array_equal(gram(x), lexsort_gram(x))

    @pytest.mark.parametrize("make", [
        lambda rng: power_of_two_integers(rng, (3, 4096)),
        lambda rng: power_of_two_integers(rng, (3, 4096)).astype(np.float64),
        lambda rng: rng.integers(-1000, 1000, size=(5, 300)),
    ], ids=["int_valued_f32", "int_valued_f64", "int64"])
    def test_bit_exact_with_lexsort(self, make):
        x = make(np.random.default_rng(22))
        np.testing.assert_array_equal(gram(x), lexsort_gram(x))

    @pytest.mark.parametrize("make", [
        lambda rng: correlated(rng, 16, 512)[:, rng.integers(0, 512, size=2048)],
        signed_zeros,
        lambda rng: correlated(rng, 8, 3 * 1000)[:, ::3],
        lambda rng: correlated(rng, 1000, 8).T,
        lambda rng: correlated(rng, 6, 10 * 12 * 14).reshape(6, 10, 12, 14)[:, ::2, 1:, ::-3],
        lambda rng: power_of_two_integers(rng, (3, 4096)),
        lambda rng: correlated(rng, 5, 4096),
        lambda rng: correlated(rng, 1, 4096),
        lambda rng: correlated(rng, 1, 4096, np.float64),
        lambda rng: correlated(rng, 4, 1),
        lambda rng: correlated(rng, 4, 2),
        lambda rng: rng.integers(-100, 100, size=(3, 700), dtype=np.int8),
    ], ids=["duplicate_columns", "signed_zeros", "strided", "transposed", "strided_4d", "key_collisions",
            "pad_column", "one_channel_f32", "one_channel_f64", "one_voxel", "two_voxels", "int8"])
    def test_permutation_bit_exact(self, make):
        rng = np.random.default_rng(23)
        x = make(rng)
        m = x.reshape(x.shape[0], -1)
        g = gram(x)
        np.testing.assert_array_equal(g, gram(m[:, rng.permutation(m.shape[1])]))
        np.testing.assert_array_equal(g, gram(np.ascontiguousarray(x)))

    def test_scaling_exact_power_of_two_large(self):
        x = correlated(np.random.default_rng(24), 16, 4096)
        for a in (0.5, 2.0, 8.0):
            np.testing.assert_array_equal(gram(np.float32(a) * x), a * a * gram(x))


class TestPackedOrder:
    """The one-word sort of key top bits and column index against the argsort it replaced."""

    @pytest.mark.parametrize("make", [
        lambda rng: correlated(rng, 16, 48**3),
        lambda rng: correlated(rng, 16, 48**3, np.float64),
        lambda rng: correlated(rng, 16, 512)[:, rng.integers(0, 512, size=2048)],
        lambda rng: correlated(rng, 8, 3 * 1000)[:, ::3],
        lambda rng: correlated(rng, 6, 10 * 12 * 14).reshape(6, 10, 12, 14)[:, ::2, 1:, ::-3],
        lambda rng: power_of_two_integers(rng, (3, 4096)),
        lambda rng: power_of_two_integers(rng, (3, 4096)).astype(np.float64),
    ], ids=["f32_48cubed", "f64_48cubed", "duplicate_columns", "strided", "strided_4d",
            "int_valued_f32", "int_valued_f64"])
    def test_bit_equal_to_argsort_path(self, make):
        x = make(np.random.default_rng(25))
        np.testing.assert_array_equal(gram(x), argsort_gram(x))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 2**17 - 1, 2**17 + 1])
    def test_every_index_once_in_key_order(self, n):
        t = sdkt._column_major(correlated(np.random.default_rng(n), 3, n))
        order = sdkt._canonical_order(t)
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        high = sdkt._column_keys(t)[order] >> np.uint64(max(1, (n - 1).bit_length()))
        assert np.all(high[1:] >= high[:-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keys_differing_only_in_index_bits_fall_back_to_lexsort(self, monkeypatch, dtype):
        x = correlated(np.random.default_rng(26), 16, 4096, dtype)
        monkeypatch.setattr(sdkt, "_column_keys", lambda t: np.arange(t.shape[0], dtype=np.uint64))
        np.testing.assert_array_equal(gram(x), lexsort_gram(x))


class TestColumnMajor:
    """The Gram on the column-major copy against the row-wise keys and column take it replaced."""

    @pytest.mark.parametrize("make", [
        lambda rng: correlated(rng, 16, 48**3),
        lambda rng: correlated(rng, 16, 4096, np.float64),
        lambda rng: correlated(rng, 16, 512)[:, rng.integers(0, 512, size=2048)],
        lambda rng: correlated(rng, 8, 3 * 1000)[:, ::3],
        lambda rng: correlated(rng, 1, 4096),
        lambda rng: correlated(rng, 5, 4096),
        lambda rng: correlated(rng, 15, 4096),
    ], ids=["f32_48cubed", "f64", "duplicate_columns", "strided", "c1", "c5", "c15"])
    def test_close_to_rowwise(self, make):
        """Only the hash and so the summation order change: within 1e-6 of the largest entry."""
        x = make(np.random.default_rng(27))
        want = rowwise_gram(x)
        got = gram(x)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("make", [
        lambda rng: correlated(rng, 16, 48**3),
        lambda rng: correlated(rng, 3, 4097),
        lambda rng: correlated(rng, 1, 10),
        lambda rng: correlated(rng, 5, 4095, np.float64),
        lambda rng: correlated(rng, 15, 9000, np.float64),
        lambda rng: rng.integers(-128, 128, size=(16, 5000)).astype(np.int8),
    ], ids=["f32_c16_48cubed", "f32_c3", "f32_c1", "f64_c5", "f64_c15", "int8_c16"])
    def test_keys_equal_blocked_matmul(self, make):
        """Wrapping uint64 sums do not depend on the order or blocking of the products."""
        t = sdkt._column_major(sdkt._as_matrix(make(np.random.default_rng(28))))
        keys = sdkt._column_keys(t)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, blocked_keys(t))

    @pytest.mark.parametrize("c", [1, 2, 5, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_copy_layout(self, c, dtype):
        m = correlated(np.random.default_rng(c), c, 50, dtype)
        t = sdkt._column_major(m)
        per = 2 if dtype == np.float32 else 1
        assert t.shape == (50, -(-c // per) * per) and t.dtype == dtype and t.flags.c_contiguous
        np.testing.assert_array_equal(t[:, :c], m.T)
        assert not np.any(t[:, c:])


def float64_gram(x):
    m = np.asarray(x, dtype=np.float64).reshape(np.shape(x)[0], -1)
    return (m @ m.T) / m.size


class TestDtypes:
    """Every real dtype is promoted as np.result_type(dtype, np.float32) and takes the keyed path."""

    @pytest.mark.parametrize("x, want", [
        (np.full((2, 10), 100, np.int8), 5000.0),
        (np.full((2, 10), 200, np.uint8), 20000.0),
        (np.ones((2, 3, 2), bool), 0.5),
        (np.full((2, 10), 300, np.float16), 45000.0),
    ], ids=["int8", "uint8", "bool", "float16"])
    def test_constant_inputs(self, x, want):
        np.testing.assert_array_equal(gram(x), np.full((2, 2), want))

    @pytest.mark.parametrize("make, dtype", [
        (lambda rng: rng.integers(-128, 128, size=(5, 700)).astype(np.int8), np.float32),
        (lambda rng: rng.integers(0, 256, size=(5, 700)).astype(np.uint8), np.float32),
        (lambda rng: rng.random((5, 700)) < 0.5, np.float32),
        (lambda rng: (300 * rng.standard_normal((4, 500))).astype(np.float16), np.float32),
        (lambda rng: rng.integers(-30000, 30000, size=(5, 700)).astype(np.int16), np.float32),
        (lambda rng: rng.integers(-2**20, 2**20, size=(5, 700)).astype(np.int32), np.float64),
        (lambda rng: rng.integers(-1000, 1000, size=(5, 300)), np.float64),
        (lambda rng: correlated(rng, 5, 700).astype(">f4"), np.float32),
    ], ids=["int8", "uint8", "bool", "float16", "int16", "int32", "int64", "big_endian_f32"])
    def test_matches_float64_oracle(self, make, dtype):
        x = make(np.random.default_rng(29))
        want = float64_gram(x)
        got = gram(x)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("fn", [gram, lambda x: sdkt_loss(x, [(np.ones((3, 4)), 1.0)]),
                                    lambda x: sdkt_grad(x, [(np.ones((3, 4)), 1.0)])],
                             ids=["gram", "sdkt_loss", "sdkt_grad"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, object])
    def test_non_real_rejected(self, fn, dtype):
        with pytest.raises(DomainError, match="features must be real numbers, got dtype"):
            fn(np.ones((3, 4), dtype=dtype))


class TestEmptyFeatures:
    @pytest.mark.parametrize("shape", [(3, 0), (3, 0, 2, 2), (0, 5)])
    @pytest.mark.parametrize("fn", [gram, lambda x: sdkt_loss(x, [(np.ones((3, 4)), 1.0)]),
                                    lambda x: sdkt_grad(x, [(np.ones((3, 4)), 1.0)])],
                             ids=["gram", "sdkt_loss", "sdkt_grad"])
    def test_rejected_naming_shape(self, fn, shape):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            fn(np.zeros(shape, dtype=np.float32))


class TestLoss:
    def test_matching_teacher_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 3, 3))
        assert sdkt_loss(x, [(x.copy(), 1.0)]) == 0.0

    def test_identity_gap(self):
        """Zero teacher against a 0.25*I Gram gives ||0.25 I||_F^2 = 0.125."""
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        teacher = np.zeros_like(x)
        assert sdkt_loss(x, [(teacher, 1.0)]) == pytest.approx(0.125)

    def test_weight_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2, 2, 2))
        t1 = rng.standard_normal((5, 2, 2, 2))
        t2 = rng.standard_normal((5, 3, 3, 3))  # volumes may differ
        a, b = 0.7, 2.25
        want = a * sdkt_loss(x, [(t1, 1.0)]) + b * sdkt_loss(x, [(t2, 1.0)])
        assert sdkt_loss(x, [(t1, a), (t2, b)]) == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 10))
        t = rng.standard_normal((3, 10))
        assert sdkt_loss(x, [(t, 0.5)]) >= 0.0

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            sdkt_loss(np.zeros((3, 8)), [(np.zeros((4, 8)), 1.0)])


class TestGrad:
    def test_zero_features_zero_grad(self):
        teacher = np.random.default_rng(5).standard_normal((3, 2, 2, 2))
        g = sdkt_grad(np.zeros((3, 2, 2, 2)), [(teacher, 1.0)])
        np.testing.assert_array_equal(g, np.zeros((3, 2, 2, 2)))

    def test_single_channel_closed_form(self):
        """C=1 reduces to scalar calculus: grad = 4w(|x|^2/n - g) x / n."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 7))
        t = rng.standard_normal((1, 7))
        w = 1.4
        n = 7
        g_t = (t**2).sum() / n
        want = 4 * w * ((x**2).sum() / n - g_t) * x / n
        np.testing.assert_allclose(sdkt_grad(x, [(t, w)]), want, rtol=1e-10)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3, 3, 3))
        teachers = [(rng.standard_normal((4, 3, 3, 3)), 0.8), (rng.standard_normal((4, 2, 2, 2)), 1.7)]
        analytic = sdkt_grad(x, teachers)
        fd = finite_difference_grad(x, teachers)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-6

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 2, 3, 4))
        g = sdkt_grad(x, [(rng.standard_normal((6, 5, 5, 5)), 1.0)])
        assert g.shape == x.shape


class TestTeachers:
    """Loss and gradient share one teacher check and one Gram per teacher."""

    def teachers(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        return x, [(rng.standard_normal((4, 2, 2, 2)).astype(np.float32), 0.8),
                   (rng.standard_normal((4, 5)).astype(np.float32), 1.7)]

    def test_bitwise_against_direct_formulas(self):
        x, teachers = self.teachers()
        g_seg = gram(x)
        loss = 0.0
        acc = np.zeros_like(g_seg)
        for feat, weight in teachers:
            diff = gram(feat) - g_seg
            loss += weight * float(np.sum(diff * diff))
            acc += weight * (g_seg - gram(feat))
        m = x.reshape(4, -1)
        assert sdkt_loss(x, teachers) == loss
        np.testing.assert_array_equal(sdkt_grad(x, teachers), ((4.0 / m.size) * (acc @ m)).reshape(x.shape))

    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_one_gram_per_tensor(self, monkeypatch, fn):
        x, teachers = self.teachers()
        calls = count_grams(monkeypatch)
        fn(x, teachers)
        assert calls == [x.shape, (4, 2, 2, 2), (4, 5)]

    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_channel_mismatch_names_teacher(self, monkeypatch, fn):
        x, teachers = self.teachers()
        teachers.append((np.zeros((3, 8), dtype=np.float32), 1.0))
        grams = count_grams(monkeypatch)
        with pytest.raises(ShapeError, match="teacher 2 has 3 channels"):
            fn(x, teachers)
        assert grams == []

    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_scalar_teacher_rejected(self, fn):
        """A 0-d teacher fails the rank check before its channels are read."""
        with pytest.raises(ShapeError, match="rank 0"):
            fn(np.ones((3, 4)), [(np.float32(1.0), 1.0)])


class TestTeacherWeights:
    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf, "1", [1.0], None, 2 + 0j, True, np.True_])
    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_rejected_naming_teacher(self, monkeypatch, fn, weight):
        x = np.random.default_rng(12).standard_normal((3, 10))
        grams = count_grams(monkeypatch)
        message = f"teacher 1 weight must be a finite real number >= 0, got {weight!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            fn(x, [(x, 1.0), (2 * x, weight)])
        assert grams == []

    @pytest.mark.parametrize(
        "entry",
        [lambda f: f, lambda f: (f,), lambda f: (f, 1.0, 1.0), lambda f: None],
        ids=["bare", "one", "three", "none"],
    )
    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_entry_not_a_pair_names_teacher(self, monkeypatch, fn, entry):
        x = np.random.default_rng(12).standard_normal((3, 10))
        grams = count_grams(monkeypatch)
        with pytest.raises(ShapeError, match=r"teacher 1 must be a \(features, weight\) pair"):
            fn(x, [(x, 1.0), entry(2 * x)])
        assert grams == []

    @pytest.mark.parametrize("teachers", [5, None, object()], ids=["int", "none", "object"])
    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_teachers_not_iterable_named(self, monkeypatch, fn, teachers):
        x = np.random.default_rng(12).standard_normal((3, 10))
        grams = count_grams(monkeypatch)
        with pytest.raises(ShapeError, match=r"teachers must be a sequence of \(features, weight\) pairs, got "):
            fn(x, teachers)
        assert grams == []

    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad])
    def test_numpy_weights_read_as_floats(self, fn):
        """A numpy scalar weight gives the result of the same Python number, and a list pair is a pair."""
        x = np.random.default_rng(12).standard_normal((3, 10)).astype(np.float32)
        plain = fn(x, [(2 * x, 1.5), (3 * x, 2)])
        for weight in (np.float32(1.5), np.float64(1.5)):
            got = fn(x, [(2 * x, weight), [3 * x, np.int64(2)]])
            assert type(got) is type(plain)
            np.testing.assert_array_equal(got, plain)

    def test_zero_weight_allowed(self):
        x = np.random.default_rng(12).standard_normal((3, 10))
        assert sdkt_loss(x, [(2 * x, 0.0)]) == 0.0


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 12))
        assert mmd_poly2(x, x.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_gram_equivalence(self):
        """C^2 ||GM(x) - GM(y)||_F^2 equals the biased poly-2 MMD^2."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            c = int(rng.integers(1, 9))
            n = int(rng.integers(1, 30))
            x = rng.standard_normal((c, n))
            y = rng.standard_normal((c, n))
            lhs = c**2 * float(np.sum((gram(x) - gram(y)) ** 2))
            rhs = mmd_poly2(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_sign_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 9))
        assert mmd_poly2(x, -x) == pytest.approx(0.0, abs=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            mmd_poly2(np.zeros((2, 4)), np.zeros((3, 4)))


class TestOverflow:
    """Finite features whose loss or Gram overflows their float type raise NonFiniteError naming where."""

    SEG = np.random.default_rng(13).standard_normal((2, 2, 2, 2)).astype(np.float32)

    @pytest.mark.parametrize("scale, step", [(1e18, "overflow encountered in multiply"),
                                             (1e19, "Gram product: overflow encountered in matmul")],
                             ids=["gap", "gram"])
    @pytest.mark.parametrize("fn", [sdkt_loss, sdkt_grad], ids=["sdkt_loss", "sdkt_grad"])
    def test_teacher_named(self, fn, scale, step):
        """At 1e18 each float32 Gram is finite (1e36) but the squared gap is not; at 1e19 the Gram is not."""
        teachers = [(self.SEG, 1.0), (np.full_like(self.SEG, scale), 0.5)]
        with pytest.raises(NonFiniteError, match=re.escape(f"teacher 1: {step}")):
            fn(self.SEG, teachers)

    def test_segmentation_features_named(self):
        with pytest.raises(NonFiniteError, match=re.escape("segmentation features: Gram product: overflow")):
            sdkt_loss(np.full_like(self.SEG, 1e19), [(self.SEG, 1.0)])

    def test_gram(self):
        with pytest.raises(NonFiniteError, match=re.escape("Gram product: overflow encountered in matmul")):
            gram(np.full((3, 5), 1e20, dtype=np.float32))

    def test_weighted_loss(self):
        """A weight that overflows the Python float sum is caught too, though it raises no float flag."""
        x = np.ones((2, 4))
        with pytest.raises(NonFiniteError, match=re.escape("teacher 0: overflow encountered in the weighted loss")):
            sdkt_loss(x, [(np.full_like(x, 1e8), 1e300)])

    def test_error_state_restored(self):
        before = np.geterr()
        with pytest.raises(NonFiniteError):
            sdkt_loss(self.SEG, [(np.full_like(self.SEG, 1e18), 1.0)])
        assert np.geterr() == before

    def test_finite_just_below(self):
        """At 1e8 the loss is finite and the float32 gap is exact enough to be positive."""
        loss = sdkt_loss(self.SEG, [(np.full_like(self.SEG, 1e8), 1.0)])
        assert np.isfinite(loss) and loss > 0
