"""Mean-attention-distance, Dice, and benchmark harness tests."""

import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest

from pwseg.analysis import BenchReport, MadInput, bench, dice, mad
from pwseg.errors import ConfigError, DomainError, ShapeError
from pwseg.network import NetworkConfig, conv_only


def index_to_coords(i: int, grid) -> tuple[int, int, int]:
    """Map a flattened voxel index to (x, y, z) with x (width) fastest.

    ``grid`` is (D, H, W); z = i // (H*W), y = (i % (H*W)) // W, x = i % W.
    """
    d, h, w = (int(g) for g in grid)
    l = d * h * w
    if not 0 <= i < l:
        raise IndexError(f"index {i} out of range for grid {tuple(grid)} with {l} voxels")
    z = i // (h * w)
    y = (i % (h * w)) // w
    x = i % w
    return (x, y, z)


def brute_force_mad(weights, grid, spacing):
    """Exhaustive double sum over all voxel pairs."""
    d, h, w = grid
    l = d * h * w
    total = 0.0
    for i in range(l):
        xi, yi, zi = index_to_coords(i, grid)
        for j in range(l):
            xj, yj, zj = index_to_coords(j, grid)
            dist = spacing * np.sqrt((xi - xj) ** 2 + (yi - yj) ** 2 + (zi - zj) ** 2)
            total += weights[i, j] * dist
    return total / l


class TestIndexToCoords:
    def test_origin(self):
        assert index_to_coords(0, (3, 4, 5)) == (0, 0, 0)

    def test_one_row(self):
        assert index_to_coords(5, (3, 4, 5)) == (0, 1, 0)

    def test_one_slab(self):
        assert index_to_coords(20, (3, 4, 5)) == (0, 0, 1)

    def test_x_fastest(self):
        assert index_to_coords(1, (2, 2, 2)) == (1, 0, 0)
        assert index_to_coords(7, (2, 2, 2)) == (1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            index_to_coords(8, (2, 2, 2))
        with pytest.raises(IndexError):
            index_to_coords(-1, (2, 2, 2))


def _mad_peak(grid) -> int:
    """tracemalloc peak of one mad call on uniform weights over ``grid``; W is allocated before tracing."""
    l = math.prod(grid)
    inp = MadInput(np.full((l, l), 1.0 / l), grid)
    tracemalloc.start()
    try:
        mad(inp)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _exact_sum_weights(grid) -> np.ndarray:
    """Skewed row-stochastic weights (seed 5) over ``grid``, the inputs of the exact-sum and pinned-value tests."""
    l = math.prod(grid)
    w = np.random.default_rng(5).random((l, l)) ** 4
    return w / w.sum(axis=1, keepdims=True)


# mad of _exact_sum_weights(grid) at spacings 1.0 and 0.7, as returned before the checks moved into MadInput.
PINNED_MAD = {
    (6, 6, 6): (3.9044407423215777, 2.7331085196251044),
    (2, 3, 4): (1.8635882534631187, 1.304511777424183),
    (3, 5, 7): (3.3434533131939776, 2.3404173192357844),
    (7, 7, 7): (4.587553159409262, 3.2112872115864826),
    (1, 1, 301): (100.40847937886545, 70.28593556520582),
    (5, 13, 11): (6.623587025067413, 4.636510917547189),
    (3, 17, 6): (6.468621323315896, 4.528034926321127),
    (301, 1, 1): (100.40847937886548, 70.28593556520583),
}


class TestMad:
    def test_identity_weights(self):
        assert mad(MadInput(np.eye(8), (2, 2, 2))) == 0.0

    def test_uniform_two_voxels(self):
        inp = MadInput(np.full((2, 2), 0.5), (1, 1, 2))
        assert mad(inp) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for grid in [(2, 2, 2), (1, 2, 3), (4, 4, 4), (2, 3, 4)]:
            l = grid[0] * grid[1] * grid[2]
            w = rng.random((l, l))
            w /= w.sum(axis=1, keepdims=True)
            inp = MadInput(w, grid, spacing=1.25)
            np.testing.assert_allclose(mad(inp), brute_force_mad(w, grid, 1.25), rtol=1e-12)

    @pytest.mark.parametrize("spacing", [1.0, 0.7])
    @pytest.mark.parametrize("grid", list(PINNED_MAD), ids=lambda g: "x".join(map(str, g)))
    def test_matches_exact_sum(self, grid, spacing):
        """mad is within a relative 1e-14 of the exact sum (math.fsum) of the whole W * distance matrix.

        The anisotropic grids catch an offset table placed on the wrong axis; (1, 1, 301) is one
        z-plane and (301, 1, 1) one voxel per z-plane.
        """
        d, h, ww = grid
        l = d * h * ww
        w = _exact_sum_weights(grid)
        idx = np.arange(l)
        coords = np.stack([idx % ww, (idx % (h * ww)) // ww, idx // (h * ww)], axis=1).astype(np.float64)
        dist = spacing * np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        want = math.fsum((w * dist).ravel()) / l
        np.testing.assert_allclose(mad(MadInput(w, grid, spacing=spacing)), want, rtol=1e-14)

    @pytest.mark.parametrize("grid", list(PINNED_MAD), ids=lambda g: "x".join(map(str, g)))
    def test_value_pinned(self, grid):
        """Checking W in MadInput leaves mad's fold, and so its value, bit for bit as it was."""
        w = _exact_sum_weights(grid)
        assert (mad(MadInput(w, grid)), mad(MadInput(w, grid, spacing=0.7))) == PINNED_MAD[grid]

    def test_no_distance_matrix(self):
        """On a 12^3 grid mad's peak allocation is a few (H*W)^2 distance tables, not an L x L buffer."""
        assert _mad_peak((12, 12, 12)) < 4 * (12 * 12) ** 2 * 8

    def test_one_table_at_a_time(self):
        """On a one-plane grid the (H*W)^2 table is as large as W; mad holds one table, not two.

        The 1 MiB slack covers the row-sum checks and einsum's iteration buffers.
        """
        assert _mad_peak((1, 40, 40)) < (40 * 40) ** 2 * 8 + 2**20

    @pytest.mark.parametrize("grid", [(-1, -2, 2), (1, -4, -1), (0, 2, 2), (2, 0, 0), (2, 2), (2, 2, 1, 1)])
    def test_grid_not_three_extents_of_at_least_one_rejected(self, grid):
        l = abs(math.prod(grid))
        with pytest.raises(ShapeError, match=re.escape(str(grid))):
            MadInput(np.full((l, l), 1.0 / max(l, 1)), grid)

    def test_bounded_by_diameter(self):
        rng = np.random.default_rng(1)
        grid = (3, 3, 3)
        w = rng.random((27, 27))
        w /= w.sum(axis=1, keepdims=True)
        diameter = np.sqrt(3) * 2
        value = mad(MadInput(w, grid))
        assert 0.0 <= value <= diameter

    def test_spacing_scales_linearly(self):
        rng = np.random.default_rng(2)
        w = rng.random((8, 8))
        w /= w.sum(axis=1, keepdims=True)
        base = mad(MadInput(w, (2, 2, 2), spacing=1.0))
        assert mad(MadInput(w, (2, 2, 2), spacing=3.5)) == pytest.approx(3.5 * base)

    def test_permutation_invariance(self):
        """Relabeling voxels consistently in W and the coordinate map keeps MAD."""
        rng = np.random.default_rng(3)
        grid = (2, 2, 2)
        w = rng.random((8, 8))
        w /= w.sum(axis=1, keepdims=True)
        base = mad(MadInput(w, grid))
        perm = rng.permutation(8)
        coords = np.array([index_to_coords(i, grid) for i in range(8)], dtype=float)
        deltas = coords[perm][:, None, :] - coords[perm][None, :, :]
        dist = np.sqrt((deltas**2).sum(axis=2))
        permuted = float((w[np.ix_(perm, perm)] * dist).sum() / 8)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_row_sum_validation(self):
        bad = np.full((8, 8), 0.2)
        with pytest.raises(DomainError, match="sums to"):
            MadInput(bad, (2, 2, 2))

    def test_negative_weights_rejected(self):
        w = np.eye(8)
        w[0, 0] = 2.0
        w[0, 1] = -1.0
        with pytest.raises(DomainError, match="non-negative"):
            MadInput(w, (2, 2, 2))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            MadInput(np.eye(7), (2, 2, 2))

    def test_nan_weight_rejected(self):
        w = np.full((8, 8), 0.125)
        w[3, 5] = np.nan
        with pytest.raises(DomainError, match="row 3 sums to nan"):
            MadInput(w, (2, 2, 2))

    def test_weights_are_a_read_only_view(self):
        """MadInput holds a C-contiguous float64 W by reference and cannot write through it."""
        w = np.full((8, 8), 0.125)
        inp = MadInput(w, (2, 2, 2))
        assert np.shares_memory(inp.weights, w) and w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            inp.weights[0, 0] = 1.0

    @pytest.mark.parametrize("spacing", [np.nan, np.inf, 0.0])
    def test_spacing_must_be_positive_and_finite(self, spacing):
        with pytest.raises(DomainError, match="spacing"):
            MadInput(np.eye(8), (2, 2, 2), spacing=spacing)


class TestDice:
    def test_perfect_overlap(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        a[1:3] = True
        assert dice(a, a.copy()) == 1.0

    def test_disjoint(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[0] = True
        b[1] = True
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        pred = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.float32)
        gt = np.array([0, 0, 1, 1, 1, 1, 0, 0], dtype=np.float32)
        assert dice(pred, gt) == pytest.approx(0.5)

    def test_both_empty(self):
        assert dice(np.zeros(5), np.zeros(5)) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice(np.zeros(4), np.zeros(5))


TINY = NetworkConfig(
    input_extent=(32, 32, 32),
    attention_depth=(0, 0, 0, 0),
    conv_depth=(1, 1, 1, 1),
)


def _seconds(times) -> str:
    """Measured iteration times, for a timing test's failure message."""
    return "[" + ", ".join(f"{t:.4f}" for t in times) + "] s"


def _interleaved(cfg_a, cfg_b):
    """Iteration times of ``cfg_a`` and ``cfg_b`` from 6 rounds of 3-iteration bench runs taken in turn, A B B A ...

    The host's speed drifts over a few hundred milliseconds, so two back-to-back
    runs can each fall into a different phase; taking the runs in turn lets a
    phase hit both sides alike.  Returns (times of A, times of B, flop ratio B / A).
    """
    times, flops = ([], []), [0, 0]
    for r in range(6):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            report = bench((cfg_a, cfg_b)[side], threads=1, iters=3, warmup=1, seed=0)
            times[side].extend(report.iteration_seconds)
            flops[side] = report.flops_per_patch
    return times[0], times[1], flops[1] / flops[0]


class TestBench:
    def test_report_contract(self):
        report = bench(TINY, threads=1, iters=2, warmup=1, seed=0)
        assert isinstance(report, BenchReport)
        assert report.patches_per_second > 0
        assert report.measure_iters == len(report.iteration_seconds) == 2
        assert report.median_iteration_seconds == statistics.median(report.iteration_seconds)
        assert report.extent == (32, 32, 32)
        assert abs(sum(report.stage_flop_shares.values()) - 1.0) < 1e-9
        assert report.config_digest == bench(TINY, threads=1, iters=1, warmup=1).config_digest

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(DomainError, match="threads"):
            bench(TINY, threads=threads, iters=1, warmup=1)

    def test_not_a_config_rejected(self):
        with pytest.raises(ConfigError, match="build needs a NetworkConfig, got dict"):
            bench({"modalities": 2}, iters=1)

    def test_threaded_run(self):
        report = bench(TINY, threads=2, iters=2, warmup=1, seed=0)
        assert report.threads == 2
        assert report.patches_per_second > 0

    def test_integral_float_extent(self):
        """An extent of integral floats and numpy ints builds, runs and is reported (and digested) as ints."""
        report = bench(NetworkConfig(input_extent=(32.0, 32, np.int64(32))), iters=1, warmup=1)
        assert report.extent == (32, 32, 32) and all(type(e) is int for e in report.extent)
        plain = bench(NetworkConfig(input_extent=(32, 32, 32)), iters=1, warmup=1)
        assert report.config_digest == plain.config_digest

    def test_repeatability(self):
        """Two measurements of one workload agree within the machine-noise bound.

        Uses a 64^3 conv-only workload so each iteration is long enough to
        swamp scheduler jitter; the two sides' runs are taken in turn and
        their pooled medians compared.
        """
        cfg = conv_only(NetworkConfig(input_extent=(64, 64, 64)))
        first, second, _ = _interleaved(cfg, cfg)
        ratio = statistics.median(second) / statistics.median(first)
        lo, hi = 1 / 1.2, 1.2
        assert lo <= ratio <= hi, (
            f"ratio {ratio:.4f} outside [{lo:.4f}, {hi:.4f}]: median iteration "
            f"{statistics.median(second):.4f} s (second side) / {statistics.median(first):.4f} s (first side); "
            f"iterations {_seconds(second)} (second side), {_seconds(first)} (first side)"
        )

    def test_runtime_tracks_cost_model(self):
        """Runtime ratio between extents approximates the flop ratio.

        Uses 64^3 vs 96^3 (both stride-32 compatible; the model cannot run
        at 48^3).  Conv-only keeps the measurement quick; the two extents'
        runs are taken in turn and their pooled medians compared.
        """
        cfg_small = conv_only(NetworkConfig(input_extent=(64, 64, 64)))
        cfg_big = conv_only(NetworkConfig(input_extent=(96, 96, 96)))
        small, big, flop_ratio = _interleaved(cfg_small, cfg_big)
        runtime_ratio = statistics.median(big) / statistics.median(small)
        lo, hi = flop_ratio * 0.7, flop_ratio * 1.3
        assert lo <= runtime_ratio <= hi, (
            f"runtime ratio {runtime_ratio:.4f} outside [{lo:.4f}, {hi:.4f}] (flop ratio {flop_ratio:.4f}): "
            f"median iteration {statistics.median(big):.4f} s (96^3) / {statistics.median(small):.4f} s (64^3); "
            f"iterations {_seconds(big)} (96^3), {_seconds(small)} (64^3)"
        )
