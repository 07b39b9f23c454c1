"""Command-line interface.

Subcommands:
    plan-groups    JL group-size bounds and the rounded per-stage plan
    flops          per-stage attention cost, window schedules and network totals for a config
    forward        run inference on a volume file
    sdkt-loss      Gram-matrix transfer loss (and optional gradient) on features
    mad            mean attention distance of a stored attention matrix
    bench          forward-throughput measurement
    gen-synthetic  seeded phantom volumes + label

Heavy numeric imports happen inside the handlers (importing ``pwseg`` loads
no submodule, and ``pwseg.errors`` imports nothing), so ``bench`` can pin
BLAS thread counts via environment variables before numpy loads.  Any
``pwseg.errors`` failure, and any ``OSError`` on a file named on the command
line (missing input, output in a missing directory), prints a one-line
``error:`` message and exits 2; a stdout closed before the report is out
exits 1 quietly.  A handler checks that it can open each output before it
builds, runs or generates anything.  An unset flag passes
nothing, so the entry point's own default applies; only ``--seed`` of
``forward`` and ``gen-synthetic`` defaults to 0, as ``build`` and
``gen_synthetic`` have no seed default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .errors import ConfigError, DomainError, PwsegError

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Give each worker thread a single-threaded BLAS.

    Assigns (never defaults) the thread-pool variables, so an exported
    ``OMP_NUM_THREADS`` cannot change a run.  Takes effect only if numpy has
    not been loaded yet in this process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_extent(text: str) -> tuple[int, int, int]:
    """``DxHxW`` (or ``D,H,W``) -> an integer triple; the argparse type of the extent and grid flags."""
    parts = text.lower().replace("x", ",").split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected DxHxW, got {text!r}")
    return tuple(int(p) for p in parts)


def _load_config(path: str):
    from .network import config_from_dict

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(payload)


def _check_output(path: str) -> None:
    """Raise the OSError that writing ``path`` would, without truncating it or leaving a new file."""
    existed = os.path.lexists(path)
    open(path, "ab").close()
    if not existed:
        os.remove(path)


def _given(args, *names) -> dict:
    """The options among ``names`` that the command line set, as keyword arguments; an unset one stays out."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _report_text(report: dict) -> str:
    """A report as ``main`` prints it and ``bench --report`` writes it: one JSON document, two-space indent.

    NaN and infinity are not JSON (RFC 8259), so a non-finite number in a report is a bug and raises ValueError.
    """
    return json.dumps(report, indent=2, allow_nan=False)


def _cmd_plan_groups(args) -> dict:
    from .jl import plan_stages

    plan = plan_stages(args.modalities, **_given(args, "n", "alpha", "profile"))
    return dict(plan.__dict__, raw_bounds=[round(b, 4) for b in plan.raw_bounds])


def _cmd_flops(args) -> dict:
    from .network import attention_stage_flops, build, flop_breakdown, param_count

    cfg = _load_config(args.config)
    net = build(cfg, seed=0)
    if args.extent is not None:
        cfg = replace(cfg, input_extent=args.extent)
    breakdown = flop_breakdown(net, cfg.input_extent)
    return {
        "extent": list(cfg.input_extent),
        "per_stage_attention_flops": attention_stage_flops(cfg),
        "breakdown": breakdown,
        "total_flops": sum(breakdown.values()),
        "param_count": param_count(net),
        "window_schedules": [
            {"extent": sched.extent, "big_windows": [big for big, _ in sched.pairs], "seq_len": sched.seq_len}
            for sched in cfg.stage_schedules
        ],
    }


def _cmd_forward(args) -> dict:
    from . import volume_io
    from .network import build, forward

    cfg = _load_config(args.config)
    _check_output(args.output)
    net = build(cfg, seed=args.seed)
    logits = forward(net, list(volume_io.read(args.input)))
    volume_io.write(args.output, logits[None])
    return {"output": args.output, "logits_shape": list(logits.shape)}


def _parse_teacher(spec: str):
    """``PATH[:WEIGHT]`` -> (path, weight); the weight must be a finite number >= 0."""
    from .tensor import real

    if ":" not in spec:
        return spec, 1.0
    path, text = spec.rsplit(":", 1)
    try:
        weight = float(text)
    except ValueError:
        weight = text
    return path, real(weight, f"teacher {spec!r} weight", 0, DomainError)


def _cmd_sdkt_loss(args) -> dict:
    from . import volume_io
    from .sdkt import sdkt_grad, sdkt_loss

    seg = volume_io.read(args.seg)[0]
    teachers = []
    for spec in args.teacher:
        path, weight = _parse_teacher(spec)
        teachers.append((volume_io.read(path)[0], weight))
    if args.grad:
        _check_output(args.grad)
    loss = sdkt_loss(seg, teachers)
    if args.grad:
        grad = sdkt_grad(seg, teachers)
        volume_io.write(args.grad, grad[None])
    return {"loss": loss, "teachers": len(teachers), "grad": args.grad}


def _cmd_mad(args) -> dict:
    from . import volume_io
    from .analysis import MadInput, mad

    stored = volume_io.read(args.weights)
    l = stored.shape[-1]
    weights = stored.reshape(-1, l)
    inp = MadInput(weights=weights, grid=args.grid, **_given(args, "spacing"))
    return {"mad": mad(inp), "grid": inp.grid, "spacing": inp.spacing}


def _cmd_bench(args) -> dict:
    # --threads N runs N forward workers, each on a one-thread BLAS.
    pin_blas_threads()
    from .analysis import bench

    cfg = _load_config(args.config)
    if args.extent is not None:
        cfg = replace(cfg, input_extent=args.extent)
    if args.report:
        _check_output(args.report)
    report = asdict(bench(cfg, **_given(args, "threads", "iters", "warmup", "seed")))
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(_report_text(report) + "\n")
    return report


def _cmd_gen_synthetic(args) -> dict:
    from . import volume_io
    from .volume_io import SyntheticSpec, gen_synthetic

    spec = SyntheticSpec(
        **_given(args, "extent", "modalities", "blob_count", "blob_radius", "blob_intensity", "noise_sigma")
    )
    paths = [f"{args.out_prefix}_mod{m + 1}.vxs" for m in range(spec.modalities)] + [f"{args.out_prefix}_label.vxs"]
    for path in paths:
        _check_output(path)
    volumes, label = gen_synthetic(spec, seed=args.seed)
    for path, t in zip(paths, [*(v[None] for v in volumes), label]):
        volume_io.write(path, t)
    return {"written": paths, "label_voxels": int(label.sum())}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-groups", help="JL group-size bounds and per-stage plan")
    p.add_argument("--modalities", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--profile")
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_plan_groups)

    p = sub.add_parser("flops", help="attention cost and window schedule per stage, network totals")
    p.add_argument("--config", required=True)
    p.add_argument("--extent", type=parse_extent)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("forward", help="run inference on a volume file")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("sdkt-loss", help="Gram-matrix transfer loss on stored features")
    p.add_argument("--seg", required=True)
    p.add_argument("--teacher", action="append", required=True, metavar="PATH[:WEIGHT]")
    p.add_argument("--grad", help="write d(loss)/d(seg) to this path")
    p.set_defaults(handler=_cmd_sdkt_loss)

    p = sub.add_parser("mad", help="mean attention distance of a stored matrix")
    p.add_argument("--weights", required=True)
    p.add_argument("--grid", type=parse_extent, required=True)
    p.add_argument("--spacing", type=float)
    p.set_defaults(handler=_cmd_mad)

    p = sub.add_parser("bench", help="forward throughput measurement")
    p.add_argument("--config", required=True)
    p.add_argument("--extent", type=parse_extent)
    p.add_argument("--threads", type=int, help="forward worker threads (at most the CPU count), one BLAS thread each")
    p.add_argument("--iters", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("gen-synthetic", help="seeded phantom volumes plus label")
    p.add_argument("--extent", type=parse_extent)
    p.add_argument("--modalities", type=int)
    p.add_argument("--blobs", type=int, dest="blob_count")
    p.add_argument("--blob-radius", type=float)
    p.add_argument("--blob-intensity", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(handler=_cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    """Print the report a subcommand's handler returns: 0, or 2 on a pwseg or file error, 1 on a closed stdout."""
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (PwsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(_report_text(report), flush=True)  # flushed here, so a closed pipe raises inside the try
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull, as the signal docs advise for SIGPIPE.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
