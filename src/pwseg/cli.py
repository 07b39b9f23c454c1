"""Command-line interface.

Subcommands:
    plan-groups    JL group-size bounds and the rounded per-stage plan
    flops          per-stage attention cost and network totals for a config
    forward        run inference on a volume file
    sdkt-loss      Gram-matrix transfer loss (and optional gradient) on features
    mad            mean attention distance of a stored attention matrix
    bench          forward-throughput measurement
    gen-synthetic  seeded phantom volumes + label

Heavy numeric imports happen inside the handlers (importing ``pwseg`` loads
no submodule, and ``pwseg.errors`` imports nothing), so ``bench`` can pin
BLAS thread counts via environment variables before numpy loads.  Any
``pwseg.errors`` failure prints a one-line ``error:`` message and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import PwsegError, ShapeError

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


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.lower().replace("x", ",").split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected DxHxW, got {text!r}")
    return tuple(int(p) for p in parts)


def _load_config(path: str):
    from .network import config_from_dict

    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _cmd_plan_groups(args) -> int:
    from .jl import MEDICAL3D_VOLUME_RATIOS, NATURAL2D_VOLUME_RATIOS, plan_stages

    ratios = MEDICAL3D_VOLUME_RATIOS if args.profile == "medical3d" else NATURAL2D_VOLUME_RATIOS
    plan = plan_stages(args.modalities, ratios, n=args.n, alpha=args.alpha, profile=args.profile)
    print(
        json.dumps(
            {
                "profile": plan.profile,
                "modalities": plan.modalities,
                "alpha": plan.alpha,
                "n": plan.n,
                "stage_volume_ratios": list(plan.stage_volume_ratios),
                "raw_bounds": [round(b, 4) for b in plan.raw_bounds],
                "group_sizes": list(plan.group_sizes),
            },
            indent=2,
        )
    )
    return 0


def _cmd_flops(args) -> int:
    from .network import attention_stage_flops, build, flop_breakdown, param_count

    cfg = _load_config(args.config)
    extent = args.extent or cfg.input_extent
    net = build(cfg, seed=args.seed)
    breakdown = flop_breakdown(net, extent)
    report = {
        "extent": list(extent),
        "per_stage_attention_flops": attention_stage_flops(cfg, extent),
        "breakdown": breakdown,
        "total_flops": sum(breakdown.values()),
        "param_count": param_count(net),
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_forward(args) -> int:
    from . import volume_io
    from .network import build, forward

    cfg = _load_config(args.config)
    net = build(cfg, seed=args.seed)
    vol = volume_io.read(args.input)
    if vol.shape[0] != cfg.modalities or vol.shape[1] != 1:
        raise ShapeError(
            f"input holds [{vol.shape[0]}, {vol.shape[1]}] modality/channel volumes, "
            f"config expects [{cfg.modalities}, 1]"
        )
    logits = forward(net, [vol[m] for m in range(cfg.modalities)])
    volume_io.write(args.output, logits[None])
    print(json.dumps({"output": args.output, "logits_shape": list(logits.shape)}))
    return 0


def _parse_teacher(spec: str):
    if ":" in spec:
        path, weight = spec.rsplit(":", 1)
        return path, float(weight)
    return spec, 1.0


def _cmd_sdkt_loss(args) -> int:
    from . import volume_io
    from .sdkt import sdkt_grad, sdkt_loss

    seg = volume_io.read(args.seg)[0]
    teachers = []
    for spec in args.teacher:
        path, weight = _parse_teacher(spec)
        teachers.append((volume_io.read(path)[0], weight))
    loss = sdkt_loss(seg, teachers)
    if args.grad:
        grad = sdkt_grad(seg, teachers)
        volume_io.write(args.grad, grad[None])
    print(json.dumps({"loss": loss, "teachers": len(teachers), "grad": args.grad}))
    return 0


def _cmd_mad(args) -> int:
    from . import volume_io
    from .analysis import MadInput, mad

    stored = volume_io.read(args.weights)
    l = stored.shape[-1]
    weights = stored.reshape(-1, l)
    result = mad(MadInput(weights=weights, grid=args.grid, spacing=args.spacing))
    print(json.dumps({"mad": result, "grid": list(args.grid), "spacing": args.spacing}))
    return 0


def _cmd_bench(args) -> int:
    # --threads N runs N forward workers, each on a one-thread BLAS.
    pin_blas_threads()
    from .analysis import bench

    cfg = _load_config(args.config)
    report = bench(
        cfg,
        extent=args.extent,
        threads=args.threads,
        iters=args.iters,
        warmup=args.warmup,
        seed=args.seed,
    )
    text = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_gen_synthetic(args) -> int:
    from . import volume_io
    from .volume_io import SyntheticSpec, gen_synthetic

    spec = SyntheticSpec(
        extent=args.extent,
        modalities=args.modalities,
        blob_count=args.blobs,
        blob_radius=args.blob_radius,
        blob_intensity=args.blob_intensity,
        noise_sigma=args.noise_sigma,
    )
    volumes, label = gen_synthetic(spec, seed=args.seed)
    paths = []
    for m in range(spec.modalities):
        path = f"{args.out_prefix}_mod{m + 1}.vxs"
        volume_io.write(path, volumes[m][None])
        paths.append(path)
    label_path = f"{args.out_prefix}_label.vxs"
    volume_io.write(label_path, label)
    paths.append(label_path)
    print(json.dumps({"written": paths, "label_voxels": int(label.sum())}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-groups", help="JL group-size bounds and per-stage plan")
    p.add_argument("--modalities", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--profile", choices=("medical3d", "natural2d"), default="medical3d")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(handler=_cmd_plan_groups)

    p = sub.add_parser("flops", help="attention cost per stage and network totals")
    p.add_argument("--config", required=True)
    p.add_argument("--extent", type=_triple, default=None)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--grad", default=None, help="write d(loss)/d(seg) to this path")
    p.set_defaults(handler=_cmd_sdkt_loss)

    p = sub.add_parser("mad", help="mean attention distance of a stored matrix")
    p.add_argument("--weights", required=True)
    p.add_argument("--grid", type=_triple, required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.set_defaults(handler=_cmd_mad)

    p = sub.add_parser("bench", help="forward throughput measurement")
    p.add_argument("--config", required=True)
    p.add_argument("--extent", type=_triple, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="forward worker threads; BLAS runs one thread per worker")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("gen-synthetic", help="seeded phantom volumes plus label")
    p.add_argument("--extent", type=_triple, default=(96, 96, 96))
    p.add_argument("--modalities", type=int, default=2)
    p.add_argument("--blobs", type=int, default=3)
    p.add_argument("--blob-radius", type=float, default=6.0)
    p.add_argument("--blob-intensity", type=float, default=4.0)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(handler=_cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a pwseg error prints ``error: <message>`` and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PwsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
