"""Seeded inputs, one op per workload, and the check of every op's output.

Every workload is a closed loop: each client sends its next op only after
the previous one completes.  Inputs come only from the run's seed:

* ``seg*`` workloads draw ``CASES_PER_RUN`` phantom cases from a bank of
  ``BANK_SIZE`` ``gen_synthetic`` seeds and visit them in a seeded order.
  The bank is fixed so that every case has a reference summary of its
  logits committed in ``reference.json`` (see ``make_reference.py``).
* ``analysis`` draws its feature maps and attention matrices directly from
  the seed; its checks are oracles computed here in float64.

The engine is reached only through its public module functions, looked up
on the module at call time so that a traced pass can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NET_SEED = 0
BANK_SIZE = 32
CASES_PER_RUN = 4
SUMMARY_VOXELS = 16
# Fast paths change float32 summation order, so the logit summary is compared
# within this share of the case's largest per-class logit RMS, not bit for bit.
# Computing GELU and the pointwise convs in float64 moves it by <= 1.5e-6;
# scaling the logits by 1 + 1e-4 moves it by 1.6e-4.
SUMMARY_TOL = 5e-5
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# analysis op: sdkt_loss + sdkt_grad over two teachers, then mad
SDKT_CHANNELS = 16
SDKT_EXTENT = 48
TEACHER_WEIGHTS = (1.0, 0.5)
MAD_GRID = (12, 12, 12)
MAD_SPACING = 1.5
ANALYSIS_CASES = 2
ANALYSIS_RTOL = 1e-4


def schedule(rng: np.random.Generator, cases, clients: int) -> list[list]:
    """One seeded visiting order of ``cases`` per client."""
    return [[cases[i] for i in rng.permutation(len(cases))] for _ in range(clients)]


def digest_bytes(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
    return h.hexdigest()


class Workload:
    """Interface shared by the workloads.

    ``prepare`` makes the seeded inputs (untimed); ``setup`` builds the
    state ops run against (timed, with the first op, as ``setup_s``); ``op`` runs one op; ``check`` returns an error
    message or None; ``digest`` fingerprints an output for bit-identity.
    """

    name: str
    clients: int = 1

    def case_for(self, client: int, i: int):
        order = self.orders[client]
        return order[i % len(order)]

    @property
    def n_cases(self) -> int:
        return len(self.orders[0])


@dataclass(frozen=True)
class SegShape:
    modalities: int
    extent: int

    @property
    def bank(self) -> str:
        return f"m{self.modalities}_{self.extent}"


def bank_volumes(pw, shape: SegShape, case: int) -> np.ndarray:
    spec = pw["volume_io"].SyntheticSpec(extent=(shape.extent,) * 3, modalities=shape.modalities)
    volumes, _label = pw["volume_io"].gen_synthetic(spec, seed=case)
    return volumes


def summarize(logits: np.ndarray, case: int) -> dict:
    """Per-class mean and RMS plus a few seeded voxels, in float64."""
    flat = logits.reshape(logits.shape[0], -1).astype(np.float64)
    picks = np.random.default_rng(case).integers(0, logits.size, SUMMARY_VOXELS)
    return {
        "mean": flat.mean(axis=1).tolist(),
        "rms": np.sqrt((flat * flat).mean(axis=1)).tolist(),
        "voxels": logits.reshape(-1)[picks].astype(np.float64).tolist(),
    }


def compare_summary(got: dict, ref: dict, tol: float = SUMMARY_TOL) -> str | None:
    scale = max(ref["rms"])
    for field in ("mean", "rms", "voxels"):
        diff = np.max(np.abs(np.asarray(got[field]) - np.asarray(ref[field])))
        if not diff <= tol * scale:
            return f"logit {field} off by {diff:.3e} (> {tol:g} x RMS {scale:.3e})"
    return None


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


class SegWorkload(Workload):
    """Read a phantom ``.vxs``, run ``forward`` on a seed-built network, write logits."""

    def __init__(self, name: str, pw: dict, shape: SegShape, clients: int = 1):
        self.name = name
        self.pw = pw
        self.shape = shape
        self.clients = clients
        self.config = pw["network"].NetworkConfig(
            modalities=shape.modalities, input_extent=(shape.extent,) * 3
        )

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        cases = sorted(int(c) for c in rng.choice(BANK_SIZE, CASES_PER_RUN, replace=False))
        self.orders = schedule(rng, cases, self.clients)
        self.reference = load_reference()[self.shape.bank]
        self.workdir = workdir
        for case in cases:
            self.pw["volume_io"].write(self.input_path(case), bank_volumes(self.pw, self.shape, case))

    def input_path(self, case: int) -> Path:
        return self.workdir / f"in-{case}.vxs"

    def output_path(self, client: int) -> Path:
        return self.workdir / f"logits-{client}.vxs"

    def setup(self):
        return self.pw["network"].build(self.config, NET_SEED)

    def op(self, net, client: int, case: int) -> np.ndarray:
        volume_io = self.pw["volume_io"]
        volumes = volume_io.read(self.input_path(case))
        logits = self.pw["network"].forward(net, list(volumes))
        volume_io.write(self.output_path(client), logits[None])
        return logits

    def check(self, case: int, logits: np.ndarray) -> str | None:
        expected = (self.config.num_classes, *self.config.input_extent)
        if logits.shape != expected:
            return f"logits shape {logits.shape} != {expected}"
        if not np.all(np.isfinite(logits)):
            return "logits contain non-finite values"
        return compare_summary(summarize(logits, case), self.reference[str(case)])

    def digest(self, logits: np.ndarray) -> str:
        return digest_bytes(logits.tobytes())


def _mixed_features(rng: np.random.Generator) -> np.ndarray:
    """Seeded features with correlated channels, so each Gram is distinct."""
    c, e = SDKT_CHANNELS, SDKT_EXTENT
    z = rng.standard_normal((c, e**3))
    mix = rng.standard_normal((c, c)) / np.sqrt(c) + np.eye(c)
    return (mix @ z).astype(np.float32).reshape(c, e, e, e)


def _row_stochastic(rng: np.random.Generator, l: int) -> np.ndarray:
    w = rng.random((l, l)) ** 4
    return w / w.sum(axis=1, keepdims=True)


def oracle_gram(x: np.ndarray) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64).reshape(x.shape[0], -1)
    return (m @ m.T) / m.size


def oracle_sdkt(seg: np.ndarray, teachers) -> tuple[float, np.ndarray]:
    """Loss and gradient from float64 Grams computed without pwseg."""
    m = np.asarray(seg, dtype=np.float64).reshape(seg.shape[0], -1)
    g_seg = oracle_gram(seg)
    loss = 0.0
    acc = np.zeros_like(g_seg)
    for feat, weight in teachers:
        diff = oracle_gram(feat) - g_seg
        loss += weight * float(np.sum(diff * diff))
        acc -= weight * diff
    grad = (4.0 / m.size) * (acc @ m)
    return loss, grad.reshape(seg.shape)


def oracle_distances(grid, spacing: float) -> np.ndarray:
    """Voxel-centre distances, one Python loop iteration per query row."""
    d, h, w = grid
    coords = [(i % w, (i // w) % h, i // (w * h)) for i in range(d * h * w)]
    xs = np.array(coords, dtype=np.float64)
    rows = np.empty((len(coords), len(coords)))
    for i, (x, y, z) in enumerate(coords):
        rows[i] = spacing * np.sqrt((xs[:, 0] - x) ** 2 + (xs[:, 1] - y) ** 2 + (xs[:, 2] - z) ** 2)
    return rows


@dataclass
class AnalysisCase:
    seg: np.ndarray
    teachers: list
    mad_input: object
    loss: float
    grad: np.ndarray
    mad: float


class AnalysisWorkload(Workload):
    """``sdkt_loss`` + ``sdkt_grad`` with two teachers, then ``mad`` on a 12^3-grid matrix."""

    def __init__(self, name: str, pw: dict):
        self.name = name
        self.pw = pw

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        distances = oracle_distances(MAD_GRID, MAD_SPACING)
        l = distances.shape[0]
        self.cases = []
        for _ in range(ANALYSIS_CASES):
            seg = _mixed_features(rng)
            teachers = [(_mixed_features(rng), w) for w in TEACHER_WEIGHTS]
            weights = _row_stochastic(rng, l)
            loss, grad = oracle_sdkt(seg, teachers)
            self.cases.append(AnalysisCase(
                seg=seg,
                teachers=teachers,
                mad_input=self.pw["analysis"].MadInput(weights, MAD_GRID, MAD_SPACING),
                loss=loss,
                grad=grad,
                mad=float((weights * distances).sum() / l),
            ))
        self.orders = schedule(rng, list(range(ANALYSIS_CASES)), self.clients)

    def setup(self):
        return None

    def op(self, state, client: int, case: int):
        c = self.cases[case]
        sdkt = self.pw["sdkt"]
        loss = sdkt.sdkt_loss(c.seg, c.teachers)
        grad = sdkt.sdkt_grad(c.seg, c.teachers)
        return loss, grad, self.pw["analysis"].mad(c.mad_input)

    def check(self, case: int, out) -> str | None:
        loss, grad, mad = out
        c = self.cases[case]
        if not abs(loss - c.loss) <= ANALYSIS_RTOL * abs(c.loss):
            return f"sdkt loss {loss!r} != float64 oracle {c.loss!r}"
        scale = float(np.max(np.abs(c.grad)))
        if grad.shape != c.grad.shape or not np.max(np.abs(grad - c.grad)) <= ANALYSIS_RTOL * scale:
            return "sdkt gradient differs from the float64 oracle"
        if not abs(mad - c.mad) <= 1e-9 * abs(c.mad):
            return f"mad {mad!r} != loop oracle {c.mad!r}"
        return None

    def digest(self, out) -> str:
        loss, grad, mad = out
        return digest_bytes(struct.pack("<dd", loss, mad), np.ascontiguousarray(grad).tobytes())


def make(name: str, pw: dict) -> Workload:
    if name == "seg96_m2":
        return SegWorkload(name, pw, SegShape(2, 96))
    if name == "seg64_m4":
        return SegWorkload(name, pw, SegShape(4, 64))
    if name == "seg96_m2_2c":
        return SegWorkload(name, pw, SegShape(2, 96), clients=2)
    if name == "analysis":
        return AnalysisWorkload(name, pw)
    raise KeyError(f"unknown workload {name!r}")


def pwseg_modules() -> dict:
    """The pwseg modules the benchmark calls through (and wraps when tracing)."""
    from pwseg import analysis, jlc, network, pwa, sdkt, volume_io

    return {
        "analysis": analysis, "jlc": jlc, "network": network,
        "pwa": pwa, "sdkt": sdkt, "volume_io": volume_io,
    }
