"""Johnson-Lindenstrauss guided planning of convolution group sizes.

Preserving pairwise feature distances for N points needs O(log N) embedding
dimensions.  With N approximated as (modalities * volume_ratio) ** alpha,
the lower bound on channels per convolution group becomes

    bound(M, v, alpha) = alpha * ln(M * v)

where v is the input-voxels-per-feature-voxel ratio of a network stage.
``plan_stages`` rounds the four raw bounds to a hardware-friendly profile
({n, 2n, 2n, 4n} for 3D volumes, {n, 2n, 4n, 4n} for 2D natural images).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, NonFiniteError
from .tensor import POSITIVE, count, real

MEDICAL3D_VOLUME_RATIOS = (4**3, 8**3, 16**3, 32**3)
NATURAL2D_VOLUME_RATIOS = (1**2, 2**2, 4**2, 8**2)

# profile -> (stage volume ratios, group sizes in base units of n)
_PROFILES = {
    "medical3d": (MEDICAL3D_VOLUME_RATIOS, (1, 2, 2, 4)),
    "natural2d": (NATURAL2D_VOLUME_RATIOS, (1, 2, 4, 4)),
}


@dataclass(frozen=True)
class GroupPlan:
    """Per-stage convolution group sizes derived from the JL bound."""

    alpha: float
    modalities: int
    stage_volume_ratios: tuple[int, ...]
    raw_bounds: tuple[float, ...]
    group_sizes: tuple[int, ...]
    n: int
    profile: str


def group_size_bound(modalities: int, volume_ratio: int, alpha: float) -> float:
    """Lower bound alpha * ln(modalities * volume_ratio) on channels per group.

    Monotone nondecreasing in every argument and exactly linear in alpha.
    NonFiniteError if the bound overflows a float.
    """
    modalities = count(modalities, "modalities", 1, DomainError)
    volume_ratio = count(volume_ratio, "volume_ratio", 1, DomainError)
    bound = real(alpha, "alpha", POSITIVE, DomainError) * math.log(modalities * volume_ratio)
    if math.isinf(bound):  # a Python float overflows without an error
        raise NonFiniteError(f"group size bound alpha * ln({modalities * volume_ratio}) overflows at alpha {alpha!r}")
    return bound


def plan_stages(modalities: int, n: int = 4, alpha: float = 1.0, profile: str = "medical3d") -> GroupPlan:
    """Build the per-stage group plan for a 4-stage network.

    The profile fixes the stage volume ratios, whose raw bounds are recorded
    for audit, and the rounding rule that gives the published sizes in base
    units of ``n``.
    """
    modalities = count(modalities, "modalities", 1, DomainError)
    n = count(n, "base unit n", 1, DomainError)
    alpha = real(alpha, "alpha", POSITIVE, DomainError)
    if not (isinstance(profile, str) and profile in _PROFILES):
        raise ConfigError(f"unknown profile {profile!r}; expected one of {sorted(_PROFILES)}")
    ratios, units = _PROFILES[profile]
    raw = tuple(group_size_bound(modalities, v, alpha) for v in ratios)
    sizes = tuple(u * n for u in units)
    return GroupPlan(
        alpha=alpha,
        modalities=modalities,
        stage_volume_ratios=ratios,
        raw_bounds=raw,
        group_sizes=sizes,
        n=n,
        profile=profile,
    )


def head_channels(channels: int, c_min: int, n_win: int, n_head: int) -> int:
    """Smallest multiple of c_min whose product with n_win*n_head covers channels.

    Returns hat_C = c_min * ceil(channels / (c_min * n_win * n_head)), i.e. the
    least m in {c_min, 2*c_min, ...} with n_win * n_head * m >= channels.
    """
    channels, c_min, n_win, n_head = (
        count(value, name, 1, DomainError)
        for name, value in (("channels", channels), ("c_min", c_min), ("n_win", n_win), ("n_head", n_head))
    )
    return c_min * math.ceil(channels / (c_min * n_win * n_head))
