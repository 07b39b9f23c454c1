"""End-to-end CLI tests driving every subcommand in-process."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwseg
from pwseg import volume_io
from pwseg.cli import main

TINY_CONFIG = {
    "input_extent": [32, 32, 32],
    "conv_depth": [1, 1, 1, 1],
    "attention_depth": [1, 1, 1, 1],
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPlanGroups:
    def test_medical_plan(self, capsys):
        code, got = run_cli(capsys, "plan-groups", "--modalities", "2", "--alpha", "1.0", "--n", "4")
        assert code == 0
        assert got["group_sizes"] == [4, 8, 8, 16]
        assert got["raw_bounds"] == pytest.approx([4.8520, 6.9315, 9.0109, 11.0904], abs=1e-3)

    def test_natural_plan(self, capsys):
        code, got = run_cli(
            capsys, "plan-groups", "--modalities", "3", "--profile", "natural2d", "--n", "1"
        )
        assert code == 0
        assert got["group_sizes"] == [1, 2, 4, 4]
        assert got["raw_bounds"][0] == pytest.approx(1.0986, abs=1e-3)


class TestFlops:
    def test_report_shape(self, capsys, tiny_config_path):
        code, got = run_cli(capsys, "flops", "--config", tiny_config_path)
        assert code == 0
        assert len(got["per_stage_attention_flops"]) == 4
        assert got["total_flops"] == sum(got["breakdown"].values())
        assert got["param_count"] > 0


class TestForwardPipeline:
    def test_gen_synthetic_then_forward(self, capsys, tmp_path, tiny_config_path):
        code, got = run_cli(
            capsys,
            "gen-synthetic",
            "--extent", "32x32x32",
            "--seed", "5",
            "--out-prefix", str(tmp_path / "case"),
        )
        assert code == 0
        assert len(got["written"]) == 3

        # pack the two modality files into one [M, 1, D, H, W] input volume
        mod1 = volume_io.read(tmp_path / "case_mod1.vxs")
        mod2 = volume_io.read(tmp_path / "case_mod2.vxs")
        stacked = np.concatenate([mod1, mod2], axis=0)
        volume_io.write(tmp_path / "input.vxs", stacked)

        out_path = tmp_path / "logits.vxs"
        code, got = run_cli(
            capsys,
            "forward",
            "--config", tiny_config_path,
            "--input", str(tmp_path / "input.vxs"),
            "--output", str(out_path),
            "--seed", "0",
        )
        assert code == 0
        logits = volume_io.read(out_path)
        assert logits.shape == (1, 2, 32, 32, 32)
        assert np.all(np.isfinite(logits))

    def test_forward_modality_mismatch(self, capsys, tmp_path, tiny_config_path):
        volume_io.write(tmp_path / "one.vxs", np.zeros((1, 1, 32, 32, 32), dtype=np.float32))
        code = main([
            "forward",
            "--config", tiny_config_path,
            "--input", str(tmp_path / "one.vxs"),
            "--output", str(tmp_path / "out.vxs"),
        ])
        assert code == 2


def run_cli_process(*argv):
    """Run ``python -m pwseg.cli`` in a fresh process; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(pwseg.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "pwseg.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stderr


class TestErrorExit:
    """A pwseg.errors failure exits 2 with one ``error:`` line, never a traceback."""

    def test_nan_volume_forward(self, tmp_path, tiny_config_path):
        # write refuses NaN, so write zeros and set the last payload float by hand
        path = tmp_path / "nan.vxs"
        volume_io.write(path, np.zeros((2, 1, 32, 32, 32), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        code, err = run_cli_process(
            "forward", "--config", tiny_config_path,
            "--input", str(tmp_path / "nan.vxs"), "--output", str(tmp_path / "out.vxs"),
        )
        assert code == 2
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err

    def test_mistyped_config_field(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, modalities="2")))
        code, err = run_cli_process("flops", "--config", str(cfg_path))
        assert code == 2
        assert err.startswith("error:") and "'modalities'" in err
        assert "Traceback" not in err


def test_every_export_resolves():
    """No name in ``pwseg.__all__`` is left behind by a deletion."""
    for name in pwseg.__all__:
        assert getattr(pwseg, name) is not None, name


class TestSdktLoss:
    def test_loss_and_grad(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        seg = rng.standard_normal((1, 4, 3, 3, 3)).astype(np.float32)
        teacher = rng.standard_normal((1, 4, 3, 3, 3)).astype(np.float32)
        volume_io.write(tmp_path / "seg.vxs", seg)
        volume_io.write(tmp_path / "t.vxs", teacher)
        grad_path = tmp_path / "grad.vxs"
        code, got = run_cli(
            capsys,
            "sdkt-loss",
            "--seg", str(tmp_path / "seg.vxs"),
            "--teacher", f"{tmp_path / 't.vxs'}:2.0",
            "--grad", str(grad_path),
        )
        assert code == 0
        assert got["loss"] > 0
        grad = volume_io.read(grad_path)
        assert grad.shape == (1, 4, 3, 3, 3)

    def test_self_teacher_zero(self, capsys, tmp_path):
        x = np.random.default_rng(1).standard_normal((1, 3, 2, 2, 2)).astype(np.float32)
        volume_io.write(tmp_path / "x.vxs", x)
        code, got = run_cli(
            capsys, "sdkt-loss", "--seg", str(tmp_path / "x.vxs"), "--teacher", str(tmp_path / "x.vxs")
        )
        assert code == 0
        assert got["loss"] == pytest.approx(0.0, abs=1e-12)


class TestMad:
    def test_uniform_pair(self, capsys, tmp_path):
        w = np.full((1, 1, 1, 2, 2), 0.5, dtype=np.float32)
        volume_io.write(tmp_path / "w.vxs", w)
        code, got = run_cli(
            capsys, "mad", "--weights", str(tmp_path / "w.vxs"), "--grid", "1x1x2", "--spacing", "1.0"
        )
        assert code == 0
        assert got["mad"] == pytest.approx(0.5)


class TestBenchCli:
    def test_bench_writes_report(self, capsys, tmp_path):
        cfg = dict(TINY_CONFIG, attention_depth=[0, 0, 0, 0])
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.json"
        code, got = run_cli(
            capsys,
            "bench",
            "--config", str(cfg_path),
            "--threads", "1",
            "--iters", "2",
            "--warmup", "1",
            "--report", str(report_path),
        )
        assert code == 0
        assert got["patches_per_second"] > 0
        on_disk = json.loads(report_path.read_text())
        assert on_disk["config_digest"] == got["config_digest"]

    def test_threads_assigned_over_exported_value(self, capsys, tmp_path, monkeypatch):
        """An exported OMP_NUM_THREADS cannot re-thread BLAS: each worker gets one."""
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, attention_depth=[0, 0, 0, 0])))
        code, got = run_cli(
            capsys, "bench", "--config", str(cfg_path), "--threads", "1", "--iters", "1", "--warmup", "1"
        )
        assert code == 0 and got["threads"] == 1
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_cli_import_leaves_numpy_unloaded(self):
        """The pinning only takes effect if numpy loads after it."""
        probe = "import sys, pwseg.cli; sys.exit('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(pwseg.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
        assert done.returncode == 0
