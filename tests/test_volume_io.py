"""Volume file format and synthetic-phantom generator tests."""

import re
import struct

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
