"""Volume file format and synthetic-phantom generator tests."""

import os
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from pwseg.errors import (
    BadMagicError,
    ConfigError,
    DomainError,
    NonFiniteError,
    TruncatedFileError,
    UnsupportedVersionError,
    VolumeFormatError,
)
from pwseg import volume_io
from pwseg.volume_io import SyntheticSpec, gen_synthetic, read, write


class TestFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32)
        path = tmp_path / "vol.vxs"
        write(path, t)
        np.testing.assert_array_equal(read(path), t)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vxs"
        blob = b"XXXX" + struct.pack("<6I", 1, 1, 1, 1, 1, 1) + b"\x00" * 4
        path.write_bytes(blob)
        with pytest.raises(BadMagicError):
            read(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.vxs"
        blob = b"VXSG" + struct.pack("<6I", 9, 1, 1, 1, 1, 1) + b"\x00" * 4
        path.write_bytes(blob)
        with pytest.raises(UnsupportedVersionError):
            read(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.vxs"
        blob = b"VXSG" + struct.pack("<6I", 1, 1, 2, 2, 2, 2) + b"\x00" * 8
        path.write_bytes(blob)
        with pytest.raises(TruncatedFileError):
            read(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.vxs"
        path.write_bytes(b"VXSG\x01")
        with pytest.raises(TruncatedFileError):
            read(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "fat.vxs"
        blob = b"VXSG" + struct.pack("<6I", 1, 1, 1, 1, 1, 1) + b"\x00" * 8
        path.write_bytes(blob)
        with pytest.raises(VolumeFormatError):
            read(path)

    def test_little_endian_layout(self, tmp_path):
        """Header and payload bytes are fixed-endianness, fully specified."""
        t = np.array([[[[[1.0]]]]], dtype=np.float32)
        path = tmp_path / "one.vxs"
        write(path, t)
        blob = path.read_bytes()
        assert blob[:4] == b"VXSG"
        assert struct.unpack("<I", blob[4:8])[0] == 1
        assert struct.unpack("<5I", blob[8:28]) == (1, 1, 1, 1, 1)
        assert struct.unpack("<f", blob[28:32])[0] == 1.0

    def test_read_rejects_non_finite_payload(self, tmp_path):
        path = tmp_path / "inf.vxs"
        path.write_bytes(b"VXSG" + struct.pack("<6I", 1, 1, 1, 1, 1, 2) + struct.pack("<2f", 1.0, np.inf))
        with pytest.raises(NonFiniteError, match="inf.vxs"):
            read(path)

    def test_rejects_non_finite(self, tmp_path):
        t = np.full((1, 1, 1, 1, 1), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            write(tmp_path / "nan.vxs", t)

    def test_rejects_beyond_float32_range(self, tmp_path):
        """A finite float64 payload that float32 cannot hold is named as such, and nothing is written."""
        with pytest.raises(NonFiniteError, match="volume payload holds finite values beyond the float32 range"):
            write(tmp_path / "big.vxs", np.full((1, 1, 1, 1, 2), 1e39))
        assert not (tmp_path / "big.vxs").exists()

    @pytest.mark.parametrize("form", [str, os.fsencode, Path])
    def test_path_forms_roundtrip(self, tmp_path, form):
        t = volume(3, (1, 2, 3, 4, 5))
        write(form(str(tmp_path / "vol.vxs")), t)
        got = read(form(str(tmp_path / "vol.vxs")))
        assert got.tobytes() == t.tobytes() and got.shape == t.shape

    def test_descriptor_refused_and_left_open(self, tmp_path):
        """An int is not a path: nothing reads it as a volume, and the caller's descriptor stays open."""
        path = tmp_path / "vol.vxs"
        write(path, volume(3, (1, 1, 2, 2, 2)))
        blob = path.read_bytes()
        fd = os.open(path, os.O_RDWR)
        try:
            with pytest.raises(DomainError, match="path must be a str, bytes or os.PathLike, got int"):
                read(fd)
            with pytest.raises(DomainError, match="path must be a str, bytes or os.PathLike, got int"):
                write(fd, volume(4, (1, 1, 2, 2, 2)))
            os.fstat(fd)
        finally:
            os.close(fd)
        assert path.read_bytes() == blob

    @pytest.mark.parametrize("path", [None, 1.5, True, ["vol.vxs"]], ids=["None", "float", "bool", "list"])
    def test_not_a_path_refused_before_open(self, path):
        with pytest.raises(DomainError, match=f"path must .*got {type(path).__name__}"):
            read(path)
        with pytest.raises(DomainError, match=f"path must .*got {type(path).__name__}"):
            write(path, np.full((1, 1, 1, 1, 1), np.nan, dtype=np.float32))


class PayloadWriteFails:
    """A file whose second write, the payload's, raises: a write cut short after its header."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.f.write(data)


def volume(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestRewrite:
    """``write`` rewrites an existing file in place, magic last, and reaches every destination it did."""

    def test_longer_and_shorter_existing_files(self, tmp_path):
        path = tmp_path / "vol.vxs"
        small, large = volume(1, (1, 1, 2, 3, 4)), volume(2, (2, 1, 4, 4, 4))
        write(path, large)
        inode = path.stat().st_ino
        for t in (small, large, small):
            write(path, t)
            np.testing.assert_array_equal(read(path), t)
            assert path.stat().st_size == 28 + t.nbytes
        assert path.stat().st_ino == inode

    def test_non_finite_leaves_existing_file(self, tmp_path):
        path = tmp_path / "vol.vxs"
        write(path, volume(3, (1, 1, 2, 2, 2)))
        before = path.read_bytes()
        with pytest.raises(NonFiniteError):
            write(path, np.full((1, 1, 1, 1, 1), np.inf, dtype=np.float32))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("existing", [None, (1, 1, 1, 1, 1), (1, 1, 4, 4, 4)], ids=["new", "shorter", "longer"])
    def test_interrupted_write_refused(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "vol.vxs"
        if existing is not None:
            write(path, volume(4, existing))
        monkeypatch.setattr(volume_io, "open", lambda *a, **kw: PayloadWriteFails(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="no space left"):
            write(path, volume(5, (1, 1, 2, 2, 2)))
        monkeypatch.undo()
        with pytest.raises(BadMagicError):
            read(path)

    def test_dev_null(self):
        if not os.path.exists(os.devnull):
            pytest.skip(f"{os.devnull} does not exist")
        write(os.devnull, volume(6, (1, 1, 2, 2, 2)))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_read_by_a_thread(self, tmp_path):
        t = volume(7, (2, 1, 3, 3, 3))
        write(tmp_path / "file.vxs", t)
        fifo = tmp_path / "pipe.vxs"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(fifo, t)
        reader.join(timeout=10)
        assert got == [(tmp_path / "file.vxs").read_bytes()]


# (field, value of the wrong kind, the whole ConfigError message) for each SyntheticSpec field.
WRONG_KINDS = [
    ("modalities", 2.5, "modalities must be an integer >= 1, got 2.5"),
    ("modalities", True, "modalities must be an integer >= 1, got True"),
    ("modalities", "2", "modalities must be an integer >= 1, got '2'"),
    ("blob_count", 1.5, "blob_count must be an integer >= 0, got 1.5"),
    ("blob_count", None, "blob_count must be an integer >= 0, got None"),
    ("blob_radius", "6", "blob_radius must be a finite real number > 0, got '6'"),
    ("blob_intensity", True, "blob_intensity must be a finite real number, got True"),
    ("noise_sigma", 0.1j, "noise_sigma must be a finite real number >= 0, got 0.1j"),
]


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(extent=(32, 32, 32))
        vols_a, label_a = gen_synthetic(spec, seed=7)
        vols_b, label_b = gen_synthetic(spec, seed=7)
        np.testing.assert_array_equal(vols_a, vols_b)
        np.testing.assert_array_equal(label_a, label_b)

    def test_seed_changes_output(self):
        spec = SyntheticSpec(extent=(32, 32, 32))
        vols_a, _ = gen_synthetic(spec, seed=1)
        vols_b, _ = gen_synthetic(spec, seed=2)
        assert not np.array_equal(vols_a, vols_b)

    def test_zero_blobs_empty_label(self):
        spec = SyntheticSpec(extent=(32, 32, 32), blob_count=0)
        _, label = gen_synthetic(spec, seed=0)
        assert label.sum() == 0

    def test_single_blob_voxel_count(self):
        """The label counts exactly the voxels within the blob radius.

        The center reproduces the generator's documented first draw; the
        expected count is an independent brute-force in-radius enumeration.
        """
        radius = 5.0
        spec = SyntheticSpec(extent=(32, 32, 32), blob_count=1, blob_radius=radius)
        _, label = gen_synthetic(spec, seed=3)
        center = np.random.default_rng(3).uniform([radius] * 3, [32 - radius] * 3)
        want = 0
        for z in range(32):
            for y in range(32):
                for x in range(32):
                    if (z - center[0]) ** 2 + (y - center[1]) ** 2 + (x - center[2]) ** 2 <= radius**2:
                        want += 1
        assert int(label.sum()) == want

    def test_modality_contrast(self):
        """Hotspot modality carries far stronger blob signal than structure."""
        spec = SyntheticSpec(extent=(32, 32, 32), blob_count=2, blob_intensity=5.0)
        vols, label = gen_synthetic(spec, seed=4)
        mask = label[0, 0].astype(bool)
        hot = vols[1, 0]
        assert hot[mask].mean() > hot[~mask].mean() + 1.0

    def test_invalid_extent(self):
        with pytest.raises(ConfigError):
            gen_synthetic(SyntheticSpec(extent=(30, 32, 32)), seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(SyntheticSpec(extent=(32, 32, 32), modalities=0), seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("blob_count", -1),
            ("blob_radius", 17.0),
            ("blob_radius", 0.0),
            ("blob_radius", float("nan")),
            ("noise_sigma", -1.0),
            ("noise_sigma", float("inf")),
            ("blob_intensity", float("nan")),
        ],
    )
    def test_invalid_spec_field_named(self, field, value):
        """A spec out of range fails when it is made, not in ``gen_synthetic``."""
        with pytest.raises(ConfigError, match=field):
            SyntheticSpec(extent=(32, 32, 32), **{field: value})

    @pytest.mark.parametrize(
        "field, value, message", WRONG_KINDS, ids=[f"{field}-{value}" for field, value, _ in WRONG_KINDS]
    )
    def test_wrong_kind_named(self, field, value, message):
        """A spec field of the wrong kind is a ConfigError naming it, not numpy's TypeError."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(extent=(32, 32, 32), **{field: value})

    def test_numbers_normalised(self):
        """Integral floats and numpy numbers read as ints and floats: the volumes match plain values."""
        spec = SyntheticSpec(extent=(32.0, np.int64(32), 32), modalities=np.int64(2), blob_count=3.0,
                             blob_radius=np.float32(6.0), blob_intensity=4, noise_sigma=np.float64(0.1))
        plain = SyntheticSpec(extent=(32, 32, 32))
        assert spec == plain and repr(spec) == repr(plain)
        for got, want in zip(gen_synthetic(spec, seed=2), gen_synthetic(plain, seed=2)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(DomainError, match=f"seed must be an integer >= 0, got {re.escape(repr(seed))}"):
            gen_synthetic(SyntheticSpec(extent=(32, 32, 32)), seed=seed)

    def test_integral_seed_accepted(self):
        spec = SyntheticSpec(extent=(32, 32, 32))
        for got, want in zip(gen_synthetic(spec, seed=np.int64(4)), gen_synthetic(spec, seed=4.0)):
            np.testing.assert_array_equal(got, want)

    def test_radius_up_to_half_the_smallest_extent(self):
        _, label = gen_synthetic(SyntheticSpec(extent=(32, 64, 64), blob_count=1, blob_radius=16.0), seed=0)
        assert label.sum() > 0
