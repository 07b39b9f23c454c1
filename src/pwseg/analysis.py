"""Attention-locality analysis and the throughput benchmark.

Mean attention distance (MAD) measures how far an attention head looks: the
attention-weighted average physical distance between query voxels and the
voxels they attend to, averaged over queries.  The benchmark harness times
whole-network forwards and reports patches per second plus the cost-model
breakdown for the measured configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError
from .tensor import DTYPE, POSITIVE, count, real, real_array, seeded_rng, spatial_triple


@dataclass(frozen=True)
class MadInput:
    """A row-stochastic attention matrix over a voxel grid with physical spacing.

    Construction checks that the weights are an array of real numbers
    (:func:`~pwseg.tensor.real_array`, DomainError), that rows sum to 1
    within 1e-3 and that entries are >= -1e-9; ``weights`` is a read-only
    float64 view (of the input itself when it is one).
    """

    weights: np.ndarray
    grid: tuple[int, int, int]
    spacing: float = 1.0

    def __post_init__(self):
        w = real_array(self.weights, "attention weights", DomainError)
        w = np.ascontiguousarray(w, dtype=np.float64).view()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "grid", spatial_triple(self.grid, "grid"))
        if min(self.grid) < 1:
            raise ShapeError(f"grid must be three extents >= 1, got {self.grid}")
        l = self.grid[0] * self.grid[1] * self.grid[2]
        if w.shape != (l, l):
            raise ShapeError(f"weights shape {w.shape} != ({l}, {l}) for grid {self.grid}")
        object.__setattr__(self, "spacing", real(self.spacing, "spacing", POSITIVE, DomainError))
        row_sums = w.sum(axis=1)
        # Written as "not (ok)" so that a NaN anywhere fails the check.
        if not (np.max(np.abs(row_sums - 1.0)) <= 1e-3):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise DomainError(f"attention row {worst} sums to {row_sums[worst]:.6f}, not 1")
        if not (w.min() >= -1e-9):
            raise DomainError(f"attention weights must be non-negative, min is {w.min():.3e}")


def mad(inp: MadInput) -> float:
    """Mean attention distance: (1/L) sum_ij W_ij * distance(i, j).

    Distances are voxel-center Euclidean distances scaled by the physical
    spacing.  A distance depends only on the z offset delta and the (y, x)
    pair, so W's [D, H*W, D, H*W] view is folded once per delta, its
    diagonal at that offset against one (H*W) x (H*W) distance table.  The
    result is within a relative 1e-14 of the exact sum (math.fsum) of
    W * distance, not that sum bit for bit.  ``MadInput`` checked W;
    NonFiniteError if the spacing makes the result overflow float64.
    """
    w = inp.weights
    d, h, ww = inp.grid
    # Squared offsets along y and x: integers, so their sums are exact.
    dy, dx = (np.subtract.outer(a, a) ** 2 for a in (np.arange(n, dtype=np.float64) for n in (h, ww)))
    w4 = w.reshape(d, h * ww, d, h * ww)
    dist = np.empty((h, ww, h, ww))
    total = 0.0
    for delta in range(1 - d, d):
        np.add((dy + delta * delta)[:, None, :, None], dx[None, :, None, :], out=dist)
        np.sqrt(dist, out=dist)
        total += np.einsum("ab,abz->", dist.reshape(h * ww, h * ww), np.diagonal(w4, delta, 0, 2))
    with np.errstate(over="raise"):
        try:
            return float(total * inp.spacing / w.shape[0])
        except FloatingPointError:
            raise NonFiniteError(f"mean attention distance overflows float64 at spacing {inp.spacing!r}") from None


@dataclass
class BenchReport:
    """Result of one throughput measurement."""

    config_digest: str
    extent: tuple[int, int, int]
    threads: int
    warmup_iters: int
    measure_iters: int
    patches_per_second: float
    median_iteration_seconds: float
    iteration_seconds: list[float]
    total_seconds: float
    flops_per_patch: int
    stage_flop_shares: dict = field(default_factory=dict)


def config_digest(cfg) -> str:
    """Stable digest of a network configuration for report provenance."""
    return hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()[:16]


def bench(cfg, threads: int = 1, iters: int = 10, warmup: int = 1, seed: int = 0) -> BenchReport:
    """Measure forward throughput of the network built from ``cfg``.

    Runs ``warmup`` discarded forwards, then ``iters`` measured ones on
    ``threads`` worker threads (each iteration is one full patch forward on
    its own input copy).  Wall time uses the monotonic performance counter.
    DomainError, before anything is built, for more threads than ``os.cpu_count()``.
    """
    from .network import build, flop_breakdown, forward

    threads = count(threads, "threads", 1, DomainError)
    cpus = os.cpu_count() or 1
    if threads > cpus:
        raise DomainError(f"threads must be at most os.cpu_count() = {cpus}, got {threads}")
    iters = count(iters, "iters", 1, DomainError)
    warmup = count(warmup, "warmup", 1, DomainError)
    net = build(cfg, seed=seed)
    rng = seeded_rng(seed + 1)
    extent = net.config.input_extent
    volumes = [rng.standard_normal((1, *extent), dtype=DTYPE) for _ in range(cfg.modalities)]

    for _ in range(warmup):
        forward(net, volumes)

    def one_iteration(_):
        t0 = time.perf_counter()
        forward(net, volumes)
        return time.perf_counter() - t0

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        times = list(pool.map(one_iteration, range(iters)))
    total = time.perf_counter() - start

    breakdown = flop_breakdown(net)
    total_cost = sum(breakdown.values())
    shares = {k: v / total_cost for k, v in breakdown.items()}
    return BenchReport(
        config_digest=config_digest(cfg),
        extent=extent,
        threads=threads,
        warmup_iters=warmup,
        measure_iters=iters,
        patches_per_second=iters / total,
        median_iteration_seconds=statistics.median(times),
        iteration_seconds=times,
        total_seconds=total,
        flops_per_patch=total_cost,
        stage_flop_shares=shares,
    )
