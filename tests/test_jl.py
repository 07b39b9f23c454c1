"""Group-size planner tests: bounds, published tables, head sizing."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwseg.errors import ConfigError, DomainError, NonFiniteError
from pwseg.jl import (
    MEDICAL3D_VOLUME_RATIOS,
    NATURAL2D_VOLUME_RATIOS,
    group_size_bound,
    head_channels,
    plan_stages,
)

# Rounded per-stage bound coefficients (alpha = 1) for the two deployment
# profiles; reproduced to within +/- 0.05.
MEDICAL_COEFFS = {
    1: (4.2, 6.2, 8.3, 10.4),
    2: (4.9, 6.9, 9.0, 11.1),
    4: (5.5, 7.6, 9.7, 11.8),
}
NATURAL_COEFFS = (1.1, 2.5, 3.9, 5.3)


class TestGroupSizeBound:
    def test_reference_values(self):
        assert group_size_bound(1, 4**3, 1.0) == pytest.approx(4.159, abs=1e-3)
        assert group_size_bound(4, 32**3, 1.0) == pytest.approx(11.78, abs=5e-3)
        assert group_size_bound(3, 1, 1.0) == pytest.approx(1.0986, abs=1e-4)

    def test_medical_tables(self):
        for m, coeffs in MEDICAL_COEFFS.items():
            for v, want in zip(MEDICAL3D_VOLUME_RATIOS, coeffs):
                assert group_size_bound(m, v, 1.0) == pytest.approx(want, abs=0.05)

    def test_natural_table(self):
        for v, want in zip(NATURAL2D_VOLUME_RATIOS, NATURAL_COEFFS):
            assert group_size_bound(3, v, 1.0) == pytest.approx(want, abs=0.05)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            group_size_bound(0, 8, 1.0)
        with pytest.raises(DomainError):
            group_size_bound(1, 0, 1.0)
        with pytest.raises(DomainError):
            group_size_bound(1, 8, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(DomainError, match="alpha"):
            group_size_bound(2, 8, alpha)

    def test_overflowing_bound(self):
        """alpha * ln(128) overflows a float at alpha 1e308: a named error, not an infinite bound."""
        assert math.isfinite(group_size_bound(2, 64, 1e300))
        with pytest.raises(NonFiniteError, match=re.escape("alpha * ln(128) overflows at alpha 1e+308")):
            group_size_bound(2, 64, 1e308)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 10**6), st.floats(0.01, 50.0))
    def test_alpha_linearity(self, m, v, alpha):
        assert group_size_bound(m, v, alpha) == pytest.approx(
            alpha * group_size_bound(m, v, 1.0), rel=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 10**5), st.floats(0.01, 10.0))
    def test_doubling_adds_ln2(self, m, v, alpha):
        base = group_size_bound(m, v, alpha)
        assert group_size_bound(m, 2 * v, alpha) == pytest.approx(base + alpha * math.log(2), rel=1e-9)

    def test_monotone_in_each_argument(self):
        assert group_size_bound(2, 64, 1.0) > group_size_bound(1, 64, 1.0)
        assert group_size_bound(2, 128, 1.0) > group_size_bound(2, 64, 1.0)


class TestPlanStages:
    def test_published_rows(self):
        assert plan_stages(2, n=4).group_sizes == (4, 8, 8, 16)
        assert plan_stages(2, n=1).group_sizes == (1, 2, 2, 4)
        assert plan_stages(2, n=2).group_sizes == (2, 4, 4, 8)

    def test_raw_bounds_recorded_and_increasing(self):
        plan = plan_stages(2, n=4, alpha=1.3)
        assert len(plan.raw_bounds) == 4
        assert all(b2 > b1 for b1, b2 in zip(plan.raw_bounds, plan.raw_bounds[1:]))
        for bound, v in zip(plan.raw_bounds, plan.stage_volume_ratios):
            assert bound == pytest.approx(1.3 * math.log(2 * v))

    def test_natural_profile_shape(self):
        plan = plan_stages(3, n=2, profile="natural2d")
        assert plan.group_sizes == (2, 4, 8, 8)

    @pytest.mark.parametrize(
        "profile, ratios", [("medical3d", MEDICAL3D_VOLUME_RATIOS), ("natural2d", NATURAL2D_VOLUME_RATIOS)]
    )
    def test_profile_fixes_ratios_and_bounds(self, profile, ratios):
        plan = plan_stages(3, n=1, alpha=0.5, profile=profile)
        assert plan.profile == profile
        assert plan.stage_volume_ratios == ratios
        assert plan.raw_bounds == tuple(group_size_bound(3, v, 0.5) for v in ratios)

    def test_errors(self):
        with pytest.raises(DomainError):
            plan_stages(2, n=0)
        with pytest.raises(ConfigError):
            plan_stages(2, n=1, profile="nope")


class TestHeadChannels:
    def test_examples(self):
        assert head_channels(64, 8, 2, 2) == 16
        assert head_channels(16, 8, 4, 1) == 8
        assert head_channels(8, 8, 1, 1) == 8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 512), st.integers(1, 32), st.integers(1, 8), st.integers(1, 8))
    def test_minimality(self, c, c_min, n_win, n_head):
        got = head_channels(c, c_min, n_win, n_head)
        assert got % c_min == 0
        assert got * n_win * n_head >= c
        assert (got - c_min) * n_win * n_head < c

    def test_domain(self):
        with pytest.raises(DomainError):
            head_channels(0, 8, 1, 1)
        with pytest.raises(DomainError, match="channels must be an integer >= 1, got nan"):
            head_channels(float("nan"), 8, 1, 1)
