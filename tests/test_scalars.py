"""One rule for every count and every real scalar, checked at each public entry that takes one.

Every count goes through ``tensor.count`` and every real scalar through
``tensor.real``.  A count is an integral number that is not a bool (3.0 and
``np.int64(3)`` read as 3); a real is a finite real number that is not a bool.
Anything else, or a value below the entry's minimum, raises the entry's named
``pwseg.errors`` type, naming the argument and showing the value as given.  A
config field of the wrong kind meets the config's own field rule first, which
raises ConfigError naming the field and showing the value too.
"""

import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from pwseg import network
from pwseg.analysis import MadInput, bench, mad
from pwseg.cli import _parse_teacher
from pwseg.errors import ConfigError, DomainError, ScheduleError
from pwseg.jl import group_size_bound, head_channels, plan_stages
from pwseg.jlc import branch_channel_split
from pwseg.network import NetworkConfig
from pwseg.pwa import fit_big_window, pwa_flops, window_schedule
from pwseg.sdkt import sdkt_loss
from pwseg.tensor import ConvParams, seeded_rng
from pwseg.volume_io import SyntheticSpec

# Each bad form of a count; a real takes every one but the fraction.
BAD = {
    "fraction": 2.5,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "string": "3",
    "none": None,
}

CFG = NetworkConfig(input_extent=(32, 32, 32))
TINY = replace(CFG, attention_depth=(0, 0, 0, 0), conv_depth=(1, 1, 1, 1))
SCHEDULE = window_schedule((24, 24, 24), (3, 3, 3))
W8 = np.full((8, 8), 0.125)
X = np.random.default_rng(12).standard_normal((3, 10))


def _conv(**kw):
    p = ConvParams(weight=np.ones((4, 2, 2, 2, 2), dtype=np.float32), **{"groups": 2, "stride": 2, **kw})
    return p.stride, p.groups, p.c_in


# config field -> (good value, largest value below its minimum); a per-stage field takes them in its first stage
CONFIG_FIELDS = {
    "modalities": (2, 0), "num_classes": (2, 0), "c_min": (8, 0), "head_width": (4, 0), "decoder_depth": (1, 0),
    "patch_stride": (4, 1), "expansion_ratios": (3, 0), "n_head": (1, 0), "attention_depth": (1, -1),
    "conv_depth": (2, -1),
}


def _config(name, value):
    """Field ``name`` of the config made with ``value`` in it, or in its first stage for a per-stage field."""
    default = getattr(CFG, name)
    cfg = replace(CFG, **{name: (value, *default[1:]) if isinstance(default, tuple) else value})
    return getattr(cfg, name)


def _bench(**kw):
    report = bench(TINY, **{"threads": 1, "iters": 1, "warmup": 1, **kw})
    return report.threads, report.measure_iters, report.warmup_iters


def _mad(spacing):
    inp = MadInput(W8, (2, 2, 2), spacing=spacing)
    return inp.spacing, mad(inp)


def _spec(**kw):
    return SyntheticSpec(extent=(32, 32, 32), **kw)


# entry -> (good value, call on a value, error type, text the error names, largest value below the minimum)
COUNTS = {
    "seeded_rng": (3, lambda v: seeded_rng(v).integers(1000, size=3).tolist(), DomainError, "seed", -1),
    "ConvParams.stride": (2, lambda v: _conv(stride=v), ConfigError, "conv stride", 0),
    "ConvParams.groups": (2, lambda v: _conv(groups=v), ConfigError, "conv groups", 0),
    **{
        f"NetworkConfig.{name}": (good, lambda v, name=name: _config(name, v), ConfigError, name, low)
        for name, (good, low) in CONFIG_FIELDS.items()
    },
    "SyntheticSpec.modalities": (2, lambda v: _spec(modalities=v), ConfigError, "modalities", 0),
    "SyntheticSpec.blob_count": (3, lambda v: _spec(blob_count=v), ConfigError, "blob_count", -1),
    "bench.threads": (2, lambda v: _bench(threads=v), DomainError, "threads", 0),
    "bench.iters": (2, lambda v: _bench(iters=v), DomainError, "iters", 0),
    "bench.warmup": (2, lambda v: _bench(warmup=v), DomainError, "warmup", 0),
    "group_size_bound.modalities": (2, lambda v: group_size_bound(v, 64, 1.0), DomainError, "modalities", 0),
    "group_size_bound.volume_ratio": (64, lambda v: group_size_bound(2, v, 1.0), DomainError, "volume_ratio", 0),
    "plan_stages.modalities": (2, lambda v: plan_stages(v), DomainError, "modalities", 0),
    "plan_stages.n": (2, lambda v: plan_stages(2, n=v), DomainError, "base unit n", 0),
    "head_channels.channels": (16, lambda v: head_channels(v, 8, 4, 1), DomainError, "channels", 0),
    "head_channels.c_min": (8, lambda v: head_channels(16, v, 4, 1), DomainError, "c_min", 0),
    "head_channels.n_win": (4, lambda v: head_channels(16, 8, v, 1), DomainError, "n_win", 0),
    "head_channels.n_head": (1, lambda v: head_channels(16, 8, 4, v), DomainError, "n_head", 0),
    "branch_channel_split.channels": (24, lambda v: branch_channel_split(v, 4), ConfigError, "channels", 0),
    "branch_channel_split.group_size": (4, lambda v: branch_channel_split(24, v), ConfigError, "group_size", 0),
    "branch_channel_split.n_branches": (
        3, lambda v: branch_channel_split(24, 4, v), ConfigError, "n_branches", 0),
    "window_schedule.r": (
        2, lambda v: window_schedule((24, 24, 24), (3, 3, 3), r=v), ScheduleError, "expansion rate r", 1),
    "fit_big_window.r": (2, lambda v: fit_big_window((24, 24, 24), (3, 3, 3), r=v), ScheduleError, "rate r", 1),
    "pwa_flops.channels": (16, lambda v: pwa_flops((24, 24, 24), SCHEDULE, v, 2), DomainError, "channels", 0),
    "pwa_flops.modalities": (2, lambda v: pwa_flops((24, 24, 24), SCHEDULE, 16, v), DomainError, "modalities", 0),
}

# entry -> (good integral value, call on a value, error type, text the error names, a value below the minimum or None)
REALS = {
    "MadInput.spacing": (2, _mad, DomainError, "spacing", 0.0),
    "SyntheticSpec.blob_radius": (6, lambda v: _spec(blob_radius=v), ConfigError, "blob_radius", 0.0),
    "SyntheticSpec.blob_intensity": (4, lambda v: _spec(blob_intensity=v), ConfigError, "blob_intensity", None),
    "SyntheticSpec.noise_sigma": (0, lambda v: _spec(noise_sigma=v), ConfigError, "noise_sigma", -0.5),
    "group_size_bound.alpha": (1, lambda v: group_size_bound(2, 64, v), DomainError, "alpha", 0.0),
    "plan_stages.alpha": (1, lambda v: plan_stages(2, alpha=v), DomainError, "alpha", 0.0),
    "sdkt_loss.weight": (2, lambda v: sdkt_loss(X, [(X, 1.0), (2 * X, v)]), DomainError, "teacher 1 weight", -0.5),
}

CASES = [(entry, bad) for entry in COUNTS for bad in [*BAD, "below"]] + [
    (entry, bad) for entry, row in REALS.items() for bad in [*BAD, "below"]
    if bad != "fraction" and not (bad == "below" and row[4] is None)
]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_bad_scalar_rejected(monkeypatch, entry, bad):
    """The error names the argument and shows the value as given; ``bench`` refuses it before building."""
    monkeypatch.setattr(network, "build", lambda *a, **kw: pytest.fail("built before the check"))
    _, call, error, name, below = {**COUNTS, **REALS}[entry]
    value = below if bad == "below" else BAD[bad]
    with pytest.raises(error) as caught:
        call(value)
    assert name in str(caught.value) and repr(value) in str(caught.value)


@pytest.mark.parametrize("entry", [*COUNTS, *REALS])
def test_integral_values_read_as_plain_ints(entry):
    """3.0 and np.int64(3) give the result of 3, ints included (a float would show in the repr)."""
    good, call, _, _, _ = {**COUNTS, **REALS}[entry]
    want = repr(call(good))
    assert repr(call(float(good))) == want and repr(call(np.int64(good))) == want


def test_bench_threads_capped_at_cpu_count(monkeypatch):
    """More threads than CPUs is refused, naming both numbers, before anything is built or any thread starts."""
    monkeypatch.setattr(network, "build", lambda *a, **kw: pytest.fail("built before the check"))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(DomainError, match=re.escape("threads must be at most os.cpu_count() = 1, got 2")):
        bench(TINY, threads=2, iters=1, warmup=1)


@pytest.mark.parametrize("profile", [["medical3d"], ("medical3d",), None, 3, b"medical3d", "mri"])
def test_unknown_profile_rejected(profile):
    """A profile that is not one of the names, of any kind, is refused with today's message."""
    message = f"unknown profile {profile!r}; expected one of ['medical3d', 'natural2d']"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        plan_stages(2, profile=profile)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "True", "None", "-1", "abc", ""])
def test_cli_teacher_weight_rejected(text):
    """The CLI's teacher weight meets the same rule; the message names the spec and shows the weight."""
    spec = f"t.vxs:{text}"
    with pytest.raises(DomainError) as caught:
        _parse_teacher(spec)
    assert f"teacher {spec!r} weight must be a finite real number >= 0, got " in str(caught.value)
