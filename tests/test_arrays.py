"""One rule for every array argument, checked at each public entry that takes one.

Every array from outside goes through ``tensor.real_array``.  It must hold
real numbers: a bool, integer or floating-point dtype.  A complex, text or
object array (``None`` included) raises the entry's named ``pwseg.errors``
type, naming the argument and showing the dtype, before any cast could drop
an imaginary part; a ragged nested list raises ShapeError naming the
argument.  A real array is taken as it is, so it gives the result of its own
values in float32 where the entry casts to float32, and of its values
promoted as ``np.result_type(dtype, np.float32)`` where the entry computes
in the promoted type (the SDKT features).  ``volume_io.write`` opens no file
for a payload it refuses.
"""

from dataclasses import replace

import numpy as np
import pytest

from pwseg import volume_io
from pwseg.analysis import MadInput, mad
from pwseg.errors import ConfigError, DomainError, ShapeError
from pwseg.network import NetworkConfig, build, forward
from pwseg.pwa import build_pwa_params, pwa_forward, window_schedule
from pwseg.sdkt import gram, mmd_poly2, sdkt_grad, sdkt_loss
from pwseg.tensor import ConvParams, real_array

# Each bad form of a good array a, and the error it meets: the entry's own, or ShapeError for a ragged list.
BAD = {
    "complex": lambda a: a.astype(np.complex64),
    "text": lambda a: a.astype(str),
    "object": lambda a: a.astype(object),
    "none": lambda a: None,
    "ragged": lambda a: [[0.0, 1.0], [0.0]],
}

# Each real form of a good integer-valued float32 array a; every value is exact in every form but bool.
REAL = {
    "bool": lambda a: a > 0,
    "int64": lambda a: a.astype(np.int64),
    "float16": lambda a: a.astype(np.float16),
    "float64": lambda a: a.astype(np.float64),
}


def _ints(shape, seed=0):
    return np.random.default_rng(seed).integers(-4, 5, size=shape).astype(np.float32)


NET = build(NetworkConfig(input_extent=(32, 32, 32), attention_depth=(1, 0, 0, 0), conv_depth=(1, 0, 0, 0)), seed=3)
VOLUME = _ints((1, 32, 32, 32), seed=1)
SCHEDULE = window_schedule((6, 6, 6), (3, 3, 3))
PWA = build_pwa_params(np.random.default_rng(2), 8, SCHEDULE, modalities=1, c_min=4)
FEATURES = [np.random.default_rng(3).standard_normal((8, 6, 6, 6)).astype(np.float32)]
PERMUTATION = np.eye(8, dtype=np.float32)[[3, 7, 0, 5, 1, 6, 2, 4]]
SEG = np.random.default_rng(4).standard_normal((3, 40)).astype(np.float32)


def _write(t, tmp_path):
    path = tmp_path / "out.vxs"
    volume_io.write(path, t)
    return path.read_bytes()


def _pwa(table, tmp_path):
    params = replace(PWA, pos_bias=(table, *PWA.pos_bias[1:]))
    return pwa_forward(FEATURES, params, SCHEDULE)[0]


def _float32(a):
    return a.astype(np.float32)


def _promoted(a):
    return a.astype(np.result_type(a.dtype, np.float32))


# entry -> (good array, call on an array and a scratch directory, error type, argument name, the float input it
# must match)
ENTRIES = {
    "forward": (VOLUME, lambda v, _: forward(NET, [v, VOLUME]), DomainError, "modality 0 volume", _float32),
    "volume_io.write": (_ints((1, 2, 2, 3, 4)), _write, DomainError, "volume payload", _float32),
    "ConvParams.weight": (
        _ints((4, 2, 3, 3, 3)), lambda w, _: ConvParams(weight=w, groups=2).weight, ConfigError, "conv weight",
        _float32),
    "ConvParams.bias": (
        _ints(4), lambda b, _: ConvParams(weight=np.ones((4, 1, 1, 1, 1)), bias=b).bias, ConfigError, "conv bias",
        _float32),
    "PwaParams.pos_bias": (_ints(PWA.pos_bias[0].shape), _pwa, ConfigError, "position bias table 0", _float32),
    "MadInput": (PERMUTATION, lambda w, _: mad(MadInput(w, (2, 2, 2))), DomainError, "attention weights", _float32),
    "gram": (_ints((3, 40)), lambda x, _: gram(x), DomainError, "features", _promoted),
    "sdkt_loss.features": (
        _ints((3, 40)), lambda x, _: sdkt_loss(x, [(SEG, 1.0)]), DomainError, "segmentation features", _promoted),
    "sdkt_loss.teacher": (
        _ints((3, 40)), lambda x, _: sdkt_loss(SEG, [(SEG, 1.0), (x, 0.5)]), DomainError, "teacher 1 features",
        _promoted),
    "sdkt_grad": (
        _ints((3, 40)), lambda x, _: sdkt_grad(x, [(SEG, 1.0)]), DomainError, "segmentation features", _promoted),
    "mmd_poly2.x": (_ints((3, 40)), lambda x, _: mmd_poly2(x, SEG), DomainError, "x features", _promoted),
    "mmd_poly2.y": (_ints((3, 40)), lambda y, _: mmd_poly2(SEG, y), DomainError, "y features", _promoted),
}


def _identical(got, want) -> bool:
    """Bit for bit: equal file bytes, or equal arrays and scalars of one dtype."""
    if isinstance(want, bytes):
        return got == want
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# A bias of None is a conv without bias, not a bad array.
CASES = [(entry, bad) for entry in ENTRIES for bad in BAD if (entry, bad) != ("ConvParams.bias", "none")]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_bad_array_rejected(entry, bad, tmp_path):
    """The error names the argument and shows the dtype; a ragged list is a ShapeError; no file is made."""
    good, call, error, name, _ = ENTRIES[entry]
    value = BAD[bad](good)
    with pytest.raises(ShapeError if bad == "ragged" else error) as caught:
        call(value, tmp_path)
    assert name in str(caught.value)
    if bad != "ragged":
        assert f"must be real numbers, got dtype {np.asarray(value).dtype}" in str(caught.value)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("form", list(REAL))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_real_forms_taken_as_their_values(entry, form, tmp_path):
    """bool, int64, float16 and float64 give the result of the same values in the type the entry computes in."""
    good, call, _, _, as_float = ENTRIES[entry]
    value = REAL[form](good)
    assert _identical(call(value, tmp_path), call(as_float(value), tmp_path))


def test_real_array_neither_copies_nor_casts():
    """An ndarray comes back as itself; a nested list becomes the array numpy makes of it."""
    a = np.arange(6, dtype=np.int16).reshape(2, 3)
    assert real_array(a, "a", DomainError) is a
    got = real_array([[1, 2], [3, 4]], "a", DomainError)
    assert got.dtype == np.asarray([[1, 2], [3, 4]]).dtype and got.tolist() == [[1, 2], [3, 4]]
