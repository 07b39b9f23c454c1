"""Binary volume file format and seeded synthetic-volume generation.

Files are little-endian and padding-free so they are byte-portable:

    bytes 0..3    magic "VXSG"
    bytes 4..7    version (u32, currently 1)
    bytes 8..27   dims M, C, D, H, W (u32 each)
    remainder     M*C*D*H*W float32 values, [M, C, D, H, W] order (W fastest)
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DomainError,
    ShapeError,
    TruncatedFileError,
    UnsupportedVersionError,
    VolumeFormatError,
)
from .tensor import (
    DTYPE,
    POSITIVE,
    SPATIAL_AXES,
    as_dtype,
    count,
    real,
    real_array,
    require_finite,
    seeded_rng,
    spatial_triple,
)

MAGIC = b"VXSG"
VERSION = 1
_HEADER = struct.Struct("<4sI5I")


def _file_path(path):
    """``os.fspath(path)``: a str or bytes path; DomainError naming ``path`` for anything else.

    An int is refused too, so ``read`` and ``write`` never take over (and close) a caller's descriptor.
    """
    try:
        return os.fspath(path)
    except TypeError:
        raise DomainError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}") from None


def write(path, t: np.ndarray) -> None:
    """Serialize a rank-5 tensor; read(write(t)) is bit-exact.

    An existing regular file is rewritten in place, not truncated first (on
    ext4 a truncate makes the rewrite wait for the old blocks' writeback):
    the header goes out with a zero magic, then the payload, then a longer
    file is cut to its new size and the magic is written last, so ``read``
    refuses a write that was interrupted.  Any other destination (a FIFO,
    ``/dev/null``) gets the header, magic included, then the payload.  A payload
    that is not real (DomainError) or not finite in float32 (NonFiniteError),
    or a ``path`` that is not a path (DomainError), is refused before the
    file is opened.
    """
    path = _file_path(path)
    given = real_array(t, "volume payload", DomainError)
    t = as_dtype(given)
    if t.ndim != 5:
        raise ShapeError(f"expected rank-5 [M, C, D, H, W] array, got rank {t.ndim}")
    require_finite(t, "volume payload", source=given)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        st = os.fstat(f.fileno())
        regular = stat.S_ISREG(st.st_mode)
        f.write(_HEADER.pack(bytes(len(MAGIC)) if regular else MAGIC, VERSION, *t.shape))
        f.write(t.astype("<f4", copy=False).data)  # no copy on a little-endian host
        if regular:
            if st.st_size > f.tell():
                f.truncate()
            f.seek(0)
            f.write(MAGIC)


def read(path) -> np.ndarray:
    """Parse a volume file back into a rank-5 float32 array.

    Raises NonFiniteError if the payload holds NaN or Inf, and DomainError,
    before opening anything, if ``path`` is not a path.
    """
    path = _file_path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise TruncatedFileError(f"{path}: file shorter than the {_HEADER.size}-byte header")
        magic, version, m, c, d, h, w = _HEADER.unpack(f.read(_HEADER.size))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: version {version} unsupported (expected {VERSION})")
        expected = _HEADER.size + 4 * m * c * d * h * w
        if size < expected:
            raise TruncatedFileError(f"{path}: payload needs {expected} bytes, file has {size}")
        if size > expected:
            raise VolumeFormatError(f"{path}: {size - expected} trailing bytes after payload")
        data = np.empty((m, c, d, h, w), dtype="<f4")
        got = f.readinto(data)
    if got != data.nbytes:  # the file shrank after its size was read
        raise TruncatedFileError(f"{path}: payload needs {data.nbytes} bytes, read {got}")
    require_finite(data, f"{path}: volume payload")
    return data.astype(DTYPE, copy=False)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic PET/CT-like phantom generator.

    Making one checks every field: ShapeError unless ``extent`` is a (D, H, W)
    triple, ConfigError naming the field on any other bad value.  The extent
    and the two counts are stored as ints, the other knobs as floats.
    """

    extent: tuple[int, int, int] = (96, 96, 96)
    modalities: int = 2
    blob_count: int = 3
    blob_radius: float = 6.0
    blob_intensity: float = 4.0
    noise_sigma: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "extent", spatial_triple(self.extent, "extent"))
        for name, minimum in (("modalities", 1), ("blob_count", 0)):
            object.__setattr__(self, name, count(getattr(self, name), name, minimum, ConfigError))
        for name, minimum in (("blob_radius", POSITIVE), ("blob_intensity", -np.inf), ("noise_sigma", 0)):
            object.__setattr__(self, name, real(getattr(self, name), name, minimum, ConfigError))
        for axis, e in zip(SPATIAL_AXES, self.extent):
            if e <= 0 or e % 32 != 0:
                raise ConfigError(f"{axis} extent {e} must be a positive multiple of 32")
        half = min(self.extent) / 2
        if self.blob_radius > half:
            raise ConfigError(f"blob_radius must lie in (0, {half}], got {self.blob_radius!r}")


def gen_synthetic(spec: SyntheticSpec, seed: int):
    """Deterministic phantom volumes plus a blob label mask.

    Modality 1 carries smooth structure plus noise with faint blob contrast;
    modality 2 (when present) carries high-intensity blobs on a dim noisy
    background, mimicking metabolic hotspots.  The label marks exactly the
    voxels within a blob radius of some blob center.  Returns
    (volumes [M, 1, D, H, W], label [1, 1, D, H, W]).  ``spec`` checked
    itself when it was made; DomainError unless ``seed`` is an integer >= 0.
    """
    d, h, w = spec.extent
    rng = seeded_rng(seed)

    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(h), np.arange(w), indexing="ij")
    label = np.zeros((d, h, w), dtype=bool)
    blob_field = np.zeros((d, h, w), dtype=np.float64)
    margin = spec.blob_radius
    for _ in range(spec.blob_count):
        center = rng.uniform([margin, margin, margin], [d - margin, h - margin, w - margin])
        dist2 = (zz - center[0]) ** 2 + (yy - center[1]) ** 2 + (xx - center[2]) ** 2
        label |= dist2 <= spec.blob_radius**2
        blob_field += np.exp(-dist2 / (2.0 * (spec.blob_radius / 2.0) ** 2))

    gradient = (zz / max(d - 1, 1) + yy / max(h - 1, 1) + xx / max(w - 1, 1)) / 3.0
    volumes = np.empty((spec.modalities, 1, d, h, w), dtype=DTYPE)
    structure = gradient + 0.5 * blob_field + rng.normal(0.0, spec.noise_sigma, size=(d, h, w))
    volumes[0, 0] = structure.astype(DTYPE)
    for m in range(1, spec.modalities):
        hot = spec.blob_intensity * blob_field + rng.normal(0.0, spec.noise_sigma, size=(d, h, w))
        volumes[m, 0] = hot.astype(DTYPE)

    return volumes, label[None, None].astype(DTYPE)
