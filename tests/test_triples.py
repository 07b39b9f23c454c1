"""One parser for every (D, H, W) triple, checked at each public entry that takes one.

Every extent, window and grid goes through ``tensor.spatial_triple``.  A triple
that does not hold exactly three integral, non-bool numbers raises ShapeError
naming the argument, and is never truncated; integral floats and numpy
integers give the same result as plain ints.  A config field's triple is
checked in full by ``NetworkConfig`` when the config is made: an entry of the
wrong kind (or a scalar in place of the triple) raises ConfigError naming the
field, and a wrong length raises the input extent's ShapeError, or for a window
minimum a ConfigError naming the stage.  ``SyntheticSpec`` parses its extent
when it is made, too.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pwseg.analysis import MadInput, mad
from pwseg.errors import ConfigError, ShapeError
from pwseg.network import NetworkConfig, build, flop_breakdown, param_count
from pwseg.pwa import fit_big_window, pwa_flops, window_schedule
from pwseg.tensor import max_pool3, spatial_triple
from pwseg.volume_io import SyntheticSpec, gen_synthetic

# Each bad form of a good triple t.
BAD = {
    "fraction": lambda t: (*t[:2], t[2] + 0.5),
    "nan": lambda t: (*t[:2], math.nan),
    "inf": lambda t: (*t[:2], math.inf),
    "bool": lambda t: (*t[:2], True),
    "string": lambda t: (*t[:2], "3"),
    "two": lambda t: t[:2],
    "four": lambda t: (*t, t[2]),
    "scalar": lambda t: t[0],
}

CFG = NetworkConfig(input_extent=(32, 32, 32))
SCHEDULE = window_schedule((24, 24, 24), (3, 3, 3))
W8 = np.random.default_rng(0).random((8, 8))
W8 /= W8.sum(axis=1, keepdims=True)


def _built(**fields):
    net = build(replace(CFG, **fields), seed=0)
    return param_count(net), flop_breakdown(net), net.config.stage_schedules


def _volumes(spec):
    return tuple((a.shape, hashlib.sha256(a.tobytes()).hexdigest()) for a in gen_synthetic(spec, seed=1))


# entry -> (good triple, call on a triple, error type, text the error names)
ENTRIES = {
    "spatial_triple": ((4, 5, 6), lambda t: spatial_triple(t, "what"), ShapeError, "what"),
    "build.input_extent": ((32, 32, 32), lambda t: _built(input_extent=t), ShapeError, "input_extent"),
    "build.big_window_minima": (
        (3, 3, 3), lambda t: _built(big_window_minima=(t,) * 4), ConfigError, "stage 1"),
    "build.small_window_minima": (
        (1, 1, 1), lambda t: _built(small_window_minima=(t,) * 4), ConfigError, "stage 1"),
    "flop_breakdown": ((64, 64, 64), lambda t: flop_breakdown(build(CFG, seed=0), t), ShapeError, "extent"),
    "window_schedule.extent": ((24, 24, 24), lambda t: window_schedule(t, (3, 3, 3)), ShapeError, "extent"),
    "window_schedule.big1": ((3, 3, 3), lambda t: window_schedule((24, 24, 24), t), ShapeError, "big1"),
    "window_schedule.small1": (
        (1, 1, 1), lambda t: window_schedule((24, 24, 24), (6, 6, 6), t), ShapeError, "small1"),
    "fit_big_window.extent": ((24, 24, 24), lambda t: fit_big_window(t, (3, 3, 3)), ShapeError, "extent"),
    "fit_big_window.minimum": ((3, 3, 3), lambda t: fit_big_window((24, 24, 24), t), ShapeError, "minimum"),
    "pwa_flops": ((24, 24, 24), lambda t: pwa_flops(t, SCHEDULE, 16, 2), ShapeError, "extent"),
    "MadInput": ((2, 2, 2), lambda t: (MadInput(W8, t).grid, mad(MadInput(W8, t))), ShapeError, "grid"),
    "gen_synthetic": ((32, 32, 32), lambda t: _volumes(SyntheticSpec(extent=t)), ShapeError, "extent"),
    "max_pool3": ((1, 2, 2), lambda t: max_pool3(W8.reshape(1, 1, 8, 8), t).tolist(), ShapeError, "pool"),
}


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bad_triple_rejected(entry, bad):
    """The error names the argument and shows the triple as given, not a truncated one."""
    good, call, error, name = ENTRIES[entry]
    if entry.startswith("build.") and bad not in ("two", "four"):
        error, name = ConfigError, f"config field {entry.removeprefix('build.')!r}"
    triple = BAD[bad](good)
    with pytest.raises(error) as caught:
        call(triple)
    assert name in str(caught.value) and repr(triple) in str(caught.value)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_integral_entries_read_as_ints(entry):
    """64.0 and np.int64(64) give the result of plain ints, ints included (a float would show in the repr)."""
    good, call, _, _ = ENTRIES[entry]
    want = call(good)
    got = call((float(good[0]), np.int64(good[1]), good[2]))
    assert got == want and repr(got) == repr(want)
