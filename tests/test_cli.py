"""End-to-end CLI tests driving every subcommand in-process."""

import ast
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pwseg
from pwseg import cli, volume_io
from pwseg.cli import _parse_teacher, build_parser, main
from pwseg.errors import DomainError

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
    """Run the CLI in-process; returns (exit code, the report), after checking the report's one text form."""
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    return code, report


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

    @pytest.mark.parametrize("argv, sizes", [(["--n", "1"], [1, 2, 2, 4]), (["--n", "2"], [2, 4, 4, 8]),
                                             ([], [4, 8, 8, 16])], ids=["n1", "n2", "unset"])
    def test_design_table_rows(self, capsys, argv, sizes):
        """The rounded plans of the design tables (natural2d n = 1 is above); an unset --n is n = 4."""
        code, got = run_cli(capsys, "plan-groups", "--modalities", "2", *argv)
        assert code == 0 and got["group_sizes"] == sizes

    def test_unknown_profile(self, capsys):
        """plan_stages names the known profiles; the CLI keeps no list of its own."""
        code, lines = run_cli_error(capsys, "plan-groups", "--modalities", "2", "--profile", "flat")
        assert code == 2 and len(lines) == 1
        assert lines[0] == "error: unknown profile 'flat'; expected one of ['medical3d', 'natural2d']"


def schedule_row(extent, bigs, seq_len):
    return {"extent": [extent] * 3, "big_windows": [[b] * 3 for b in bigs], "seq_len": seq_len}


# The default network's window schedules, one row per stage: flops options -> (input extent, rows).
SCHEDULES = {
    (): (96, [schedule_row(24, (3, 6, 12, 24), 27), schedule_row(12, (6, 12), 216),
              schedule_row(6, (3, 6), 27), schedule_row(3, (3,), 27)]),
    ("--extent", "64x64x64"): (64, [schedule_row(16, (4, 8, 16), 64), schedule_row(8, (8,), 512),
                                    schedule_row(4, (4,), 64), schedule_row(2, (2,), 8)]),
}


class TestFlops:
    def test_report_shape(self, capsys, tiny_config_path):
        code, got = run_cli(capsys, "flops", "--config", tiny_config_path)
        assert code == 0
        assert len(got["per_stage_attention_flops"]) == 4
        assert got["total_flops"] == sum(got["breakdown"].values())
        assert got["param_count"] > 0

    def test_seed_is_a_usage_error(self, capsys, tiny_config_path):
        """Costs and parameter counts depend only on shapes, so ``flops`` takes no seed."""
        with pytest.raises(SystemExit) as caught:
            main(["flops", "--config", tiny_config_path, "--seed", "5"])
        assert caught.value.code == 2
        code, got = run_cli(capsys, "flops", "--config", tiny_config_path)
        assert (code, got["total_flops"], got["param_count"]) == (0, 61140224, 903886)

    @pytest.mark.parametrize("options", list(SCHEDULES), ids=["96", "64"])
    def test_window_schedules(self, capsys, tmp_path, options):
        """The default config's schedules, at its 96^3 input extent or at --extent."""
        path = tmp_path / "default.json"
        path.write_text("{}")
        code, got = run_cli(capsys, "flops", "--config", str(path), *options)
        extent, rows = SCHEDULES[options]
        assert code == 0 and got["extent"] == [extent] * 3
        assert got["window_schedules"] == rows


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


def run_cli_error(capsys, *argv):
    """Run the CLI in-process; returns (exit code, stderr lines)."""
    code = main(list(argv))
    return code, capsys.readouterr().err.splitlines()


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

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("missing.json", None, "cannot read config"),
            ("truncated.json", '{"input_extent": [32, 32', "cannot read config"),
            ("list.json", "[1, 2]", "JSON object"),
        ],
    )
    def test_unreadable_config_file(self, capsys, tmp_path, name, text, message):
        cfg_path = tmp_path / name
        if text is not None:
            cfg_path.write_text(text)
        code, lines = run_cli_error(capsys, "flops", "--config", str(cfg_path))
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and message in lines[0]

    @pytest.mark.parametrize("shape", [(3, 1, 32, 32, 32), (2, 2, 32, 32, 32)])
    def test_forward_input_shape(self, capsys, tmp_path, tiny_config_path, shape):
        """Three modalities, or two channels per modality, for a two-modality config."""
        volume_io.write(tmp_path / "in.vxs", np.zeros(shape, dtype=np.float32))
        code, lines = run_cli_error(
            capsys, "forward", "--config", tiny_config_path,
            "--input", str(tmp_path / "in.vxs"), "--output", str(tmp_path / "out.vxs"),
        )
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out.vxs").exists()

    @pytest.mark.parametrize("weight", ["heavy", "nan", "-1"])
    def test_bad_teacher_weight(self, capsys, tmp_path, weight):
        volume_io.write(tmp_path / "x.vxs", np.ones((1, 2, 2, 2, 2), dtype=np.float32))
        code, lines = run_cli_error(
            capsys, "sdkt-loss", "--seg", str(tmp_path / "x.vxs"), "--teacher", f"{tmp_path / 'x.vxs'}:{weight}"
        )
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and f":{weight}'" in lines[0]

    @pytest.mark.parametrize("spec", ["f.vxs:abc", "f.vxs:-1"])
    def test_teacher_weight_is_domain_error(self, spec):
        with pytest.raises(DomainError, match=spec):
            _parse_teacher(spec)

    def test_grid_not_three_extents(self, capsys):
        """parse_extent's ArgumentTypeError is an argparse usage error: exit 2 before any handler runs."""
        with pytest.raises(SystemExit) as exc:
            main(["mad", "--weights", "w.vxs", "--grid", "4x4"])
        assert exc.value.code == 2
        assert "expected DxHxW, got '4x4'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--blobs", "-1", "blob_count"),
            ("--blob-radius", "17", "blob_radius"),
            ("--blob-radius", "0", "blob_radius"),
            ("--blob-radius", "nan", "blob_radius"),
            ("--noise-sigma", "-1", "noise_sigma"),
            ("--blob-intensity", "inf", "blob_intensity"),
        ],
    )
    def test_bad_synthetic_spec(self, capsys, tmp_path, flag, value, field):
        code, lines = run_cli_error(
            capsys, "gen-synthetic", "--extent", "32x32x32", flag, value, "--out-prefix", str(tmp_path / "c")
        )
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and field in lines[0]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "fill, corner, message", [(0.5, 0.5, "sums to"), (0.125, -0.25, "non-negative")]
    )
    def test_mad_non_stochastic_matrix(self, capsys, tmp_path, fill, corner, message):
        """Rows summing to 4, or a negative weight in rows that sum to 1."""
        w = np.full((8, 8), fill, dtype=np.float32)
        w[0, :2] = corner, 2 * fill - corner
        volume_io.write(tmp_path / "w.vxs", w[None, None, None])
        code, lines = run_cli_error(capsys, "mad", "--weights", str(tmp_path / "w.vxs"), "--grid", "2x2x2")
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and message in lines[0]

    @pytest.mark.parametrize("grid", ["-1x-2x2", "1x-4x-1"])
    def test_mad_grid_below_one(self, tmp_path, grid):
        """A 4 x 4 matrix of 0.25s fits |D*H*W| = 4, but no extent may be below 1."""
        volume_io.write(tmp_path / "w.vxs", np.full((1, 1, 1, 4, 4), 0.25, dtype=np.float32))
        code, err = run_cli_process("mad", "--weights", str(tmp_path / "w.vxs"), f"--grid={grid}")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_plan_groups_non_finite_alpha(self, capsys, alpha):
        code, lines = run_cli_error(capsys, "plan-groups", "--modalities", "2", "--alpha", alpha)
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and "alpha" in lines[0]

    @pytest.mark.parametrize("case", ["sdkt-gap", "sdkt-gram", "plan-groups", "mad"])
    def test_overflow_is_one_error_line(self, capsys, tmp_path, case):
        """A finite input whose result overflows exits 2 and prints no report: NaN and infinity are not JSON."""
        seg, teacher, weights = (tmp_path / name for name in ("seg.vxs", "t.vxs", "w.vxs"))
        volume_io.write(seg, np.ones((1, 2, 2, 2, 2), dtype=np.float32))
        volume_io.write(teacher, np.full((1, 2, 2, 2, 2), 1e18 if case == "sdkt-gap" else 1e19, dtype=np.float32))
        volume_io.write(weights, np.full((1, 1, 1, 8, 8), 0.125, dtype=np.float32))
        argv, message = {
            "sdkt-gap": (["sdkt-loss", "--seg", str(seg), "--teacher", str(teacher)], "teacher 0: overflow"),
            "sdkt-gram": (["sdkt-loss", "--seg", str(seg), "--teacher", str(teacher)], "teacher 0: Gram product"),
            "plan-groups": (["plan-groups", "--modalities", "2", "--alpha", "1e308"], "overflows at alpha"),
            "mad": (["mad", "--weights", str(weights), "--grid", "2x2x2", "--spacing", "1.7e308"], "overflows"),
        }[case]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err

    def test_mistyped_config_field(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, modalities="2")))
        code, err = run_cli_process("flops", "--config", str(cfg_path))
        assert code == 2
        assert err.startswith("error:") and "'modalities'" in err
        assert "Traceback" not in err


    # subcommand -> (argv with {ok} for a readable volume and {gone} for a path in a missing directory)
    FILE_ERRORS = {
        "forward.input": ["forward", "--config", "{cfg}", "--input", "{gone}", "--output", "{out}"],
        "forward.output": ["forward", "--config", "{cfg}", "--input", "{ok}", "--output", "{gone}"],
        "sdkt-loss.seg": ["sdkt-loss", "--seg", "{gone}", "--teacher", "{feat}"],
        "sdkt-loss.teacher": ["sdkt-loss", "--seg", "{feat}", "--teacher", "{gone}:2.0"],
        "sdkt-loss.grad": ["sdkt-loss", "--seg", "{feat}", "--teacher", "{feat}", "--grad", "{gone}"],
        "mad.weights": ["mad", "--weights", "{gone}", "--grid", "2x2x2"],
        "bench.report": ["bench", "--config", "{bench_cfg}", "--iters", "1", "--report", "{gone}"],
        "gen-synthetic.out-prefix": ["gen-synthetic", "--extent", "32x32x32", "--out-prefix", "{gone}"],
    }

    # output case -> the work its handler must not start before the output is checked
    WORK = {
        "forward.output": "pwseg.network.build",
        "sdkt-loss.grad": "pwseg.sdkt.sdkt_loss",
        "bench.report": "pwseg.analysis.bench",
        "gen-synthetic.out-prefix": "pwseg.volume_io.gen_synthetic",
    }

    @pytest.mark.parametrize("case", list(FILE_ERRORS))
    def test_file_error(self, capsys, monkeypatch, tmp_path, tiny_config_path, case):
        """A missing input, or an output in a missing directory, exits 2 with one line naming the path.

        An output is checked before the work, so the error comes first.
        """
        if case in self.WORK:
            monkeypatch.setattr(self.WORK[case], lambda *a, **kw: pytest.fail(f"{case}: work ran first"))
        volume_io.write(tmp_path / "ok.vxs", np.zeros((2, 1, 32, 32, 32), dtype=np.float32))
        volume_io.write(tmp_path / "feat.vxs", np.ones((1, 2, 2, 2, 2), dtype=np.float32))
        bench_cfg = tmp_path / "bench.json"
        bench_cfg.write_text(json.dumps(dict(TINY_CONFIG, attention_depth=[0, 0, 0, 0])))
        gone = tmp_path / "missing" / "f.vxs"
        paths = {"cfg": tiny_config_path, "ok": tmp_path / "ok.vxs", "feat": tmp_path / "feat.vxs",
                 "out": tmp_path / "out.vxs", "bench_cfg": bench_cfg, "gone": gone}
        argv = [arg.format(**paths) for arg in self.FILE_ERRORS[case]]
        code, lines = run_cli_error(capsys, *argv)
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith("error:") and str(gone) in lines[0]

    @pytest.mark.parametrize("command", ["forward", "bench", "gen-synthetic"])
    def test_negative_seed(self, capsys, tmp_path, tiny_config_path, command):
        """A seed below 0 is a DomainError naming it, not numpy's ValueError."""
        volume_io.write(tmp_path / "in.vxs", np.zeros((2, 1, 32, 32, 32), dtype=np.float32))
        argv = {
            "forward": ["--config", tiny_config_path, "--input", str(tmp_path / "in.vxs"),
                        "--output", str(tmp_path / "out.vxs")],
            "bench": ["--config", tiny_config_path, "--iters", "1"],
            "gen-synthetic": ["--extent", "32x32x32", "--out-prefix", str(tmp_path / "case")],
        }[command]
        code, lines = run_cli_error(capsys, command, *argv, "--seed", "-1")
        assert code == 2 and lines == ["error: seed must be an integer >= 0, got -1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.vxs"]

    def test_output_check_keeps_existing_file(self, capsys, tmp_path, tiny_config_path):
        """Checking an output before the work does not truncate it, so a run that fails later keeps it."""
        report = tmp_path / "report.json"
        report.write_text("kept")
        argv = ["--config", tiny_config_path, "--iters", "1", "--seed", "-1", "--report", str(report)]
        code, lines = run_cli_error(capsys, "bench", *argv)
        assert code == 2 and lines == ["error: seed must be an integer >= 0, got -1"]
        assert report.read_text() == "kept"


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


class Recorded(Exception):
    """Raised by a recording stand-in for an entry point, so no work runs after the call."""


class TestUnsetFlags:
    """A flag the command line does not set passes no value, so the entry point's default applies.

    subcommand -> (entry point, required argv, optional argv, the keywords that optional argv passes)
    """

    CASES = {
        "plan-groups": ("pwseg.jl.plan_stages", ["--modalities", "2"],
                        ["--n", "2", "--alpha", "0.5", "--profile", "natural2d"],
                        {"n": 2, "alpha": 0.5, "profile": "natural2d"}),
        "mad": ("pwseg.analysis.MadInput", ["--weights", "{weights}", "--grid", "1x1x2"],
                ["--spacing", "2.5"], {"spacing": 2.5}),
        "bench": ("pwseg.analysis.bench", ["--config", "{cfg}"],
                  ["--threads", "2", "--iters", "3", "--warmup", "4", "--seed", "5"],
                  {"threads": 2, "iters": 3, "warmup": 4, "seed": 5}),
        "gen-synthetic": ("pwseg.volume_io.SyntheticSpec", ["--out-prefix", "{prefix}"],
                          ["--extent", "32x64x32", "--modalities", "3", "--blobs", "0", "--blob-radius", "2.5",
                           "--blob-intensity", "-1", "--noise-sigma", "0.5"],
                          {"extent": (32, 64, 32), "modalities": 3, "blob_count": 0, "blob_radius": 2.5,
                           "blob_intensity": -1.0, "noise_sigma": 0.5}),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_only_set_flags_pass(self, monkeypatch, tmp_path, tiny_config_path, command):
        target, required, optional, keywords = self.CASES[command]
        calls = []

        def stand_in(*args, **kwargs):
            calls.append(kwargs)
            raise Recorded

        monkeypatch.setattr(target, stand_in)
        volume_io.write(tmp_path / "w.vxs", np.full((1, 1, 1, 2, 2), 0.5, dtype=np.float32))
        paths = {"weights": tmp_path / "w.vxs", "cfg": tiny_config_path, "prefix": tmp_path / "case"}
        required = [arg.format(**paths) for arg in required]
        for argv in ([command, *required], [command, *required, *optional]):
            with pytest.raises(Recorded):
                main(argv)
        unset, given = ({k: v for k, v in kwargs.items() if k not in ("weights", "grid")} for kwargs in calls)
        assert unset == {} and given == keywords


class TestBenchCli:
    def test_bench_writes_report(self, capsys, tmp_path):
        cfg = dict(TINY_CONFIG, attention_depth=[0, 0, 0, 0])
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        report_path = tmp_path / "report.json"
        argv = ["--config", str(cfg_path), "--threads", "1", "--iters", "2", "--warmup", "1"]
        code = main(["bench", *argv, "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["patches_per_second"] > 0
        assert report_path.read_bytes() == out.encode()

    def test_extent_overrides_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, input_extent=[64, 64, 64], attention_depth=[0, 0, 0, 0])))
        code, got = run_cli(
            capsys, "bench", "--config", str(cfg_path), "--extent", "32x32x32", "--iters", "1", "--warmup", "1"
        )
        assert code == 0 and got["extent"] == [32, 32, 32]

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

    def test_threads_above_cpu_count(self, capsys, monkeypatch, tiny_config_path):
        """Refused with one error line before anything is built, so no thread starts."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr("pwseg.network.build", lambda *a, **kw: pytest.fail("built before the check"))
        code, lines = run_cli_error(capsys, "bench", "--config", tiny_config_path, "--threads", "2")
        assert code == 2 and lines == ["error: threads must be at most os.cpu_count() = 1, got 2"]

    def test_cli_import_leaves_numpy_unloaded(self):
        """The pinning only takes effect if numpy loads after it."""
        probe = "import sys, pwseg.cli; sys.exit('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(pwseg.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
        assert done.returncode == 0


class TestOneExitPath:
    """Handlers return their report and ``main`` alone prints it; a closed stdout is not a file error."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["plan-groups", "gen-synthetic"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, command, unbuffered):
        """Stdout is a pipe whose reader has gone: exit 1, nothing on stderr, and the work is done."""
        argv = {
            "plan-groups": ["--modalities", "2"],
            "gen-synthetic": ["--extent", "32x32x32", "--out-prefix", str(tmp_path / "case")],
        }[command]
        env = dict(os.environ, PYTHONPATH=str(Path(pwseg.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "pwseg.cli", command, *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")
        if command == "gen-synthetic":
            written = sorted(p.name for p in tmp_path.iterdir())
            assert written == ["case_label.vxs", "case_mod1.vxs", "case_mod2.vxs"]

    def test_only_main_prints(self):
        """``print`` is called only in ``main``, ``json.dumps`` only in the one formatter.

        So a new subcommand cannot bring back an output path of its own.
        """
        callers = {"print": set(), "json.dumps": set()}
        for top in ast.parse(Path(cli.__file__).read_text()).body:
            where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in callers:
                    callers[ast.unparse(node.func)].add(where)
        assert callers == {"print": {"main"}, "json.dumps": {"_report_text"}}


def readme_cli_lines():
    """Every ``pwseg ...`` line of README's shell blocks; a loop variable reads as its loop's first value."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        first = dict(re.findall(r"for (\w+) in (\S+)", block))
        for line in block.splitlines():
            if line.strip().startswith("pwseg "):
                lines.append(re.sub(r"\$(\w+)", lambda m: first[m.group(1)], line.strip()))
    return lines


def readme_line_ids(lines):
    """Each line's subcommand, numbered from its second line on: plan-groups, plan-groups-2, ..."""
    seen = Counter()
    ids = []
    for line in lines:
        command = line.split()[1]
        seen[command] += 1
        ids.append(command if seen[command] == 1 else f"{command}-{seen[command]}")
    return ids


README_LINES = readme_cli_lines()


class TestReadme:
    """README's CLI lines stay runnable: a renamed or dropped flag fails here; only plan-groups lines run."""

    def test_block_covers_every_subcommand(self):
        subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
        assert {shlex.split(line)[1] for line in README_LINES} == set(subcommands)

    @pytest.mark.parametrize("line", README_LINES, ids=readme_line_ids(README_LINES))
    def test_line_parses(self, line, capsys):
        """Each line parses; a plan-groups line reads no file, so it also runs (a profile is checked then)."""
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.handler.__name__ == "_cmd_" + args.command.replace("-", "_")
        if args.command == "plan-groups":
            assert run_cli(capsys, *shlex.split(line)[1:])[0] == 0
