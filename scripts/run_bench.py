#!/usr/bin/env python3
"""Throughput experiment: patches/second across extents and thread counts.

Pins BLAS to one thread per worker before numpy loads, then runs the
benchmark harness once per (extent, threads) combination and prints one
JSON line per run; ``--threads N`` runs N forward workers.
"""

import argparse

from pwseg.cli import parse_extent, pin_blas_threads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--extent", type=parse_extent, action="append", default=None)
    parser.add_argument("--threads", type=int, nargs="+", default=[1])
    parser.add_argument("--iters", type=int, default=10)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--conv-only", action="store_true", help="disable attention blocks")
    args = parser.parse_args()

    pin_blas_threads()

    from pwseg.analysis import bench
    from pwseg.network import NetworkConfig, conv_only

    extents = args.extent or [(96, 96, 96)]
    for extent in extents:
        cfg = NetworkConfig(input_extent=extent)
        if args.conv_only:
            cfg = conv_only(cfg)
        for threads in args.threads:
            report = bench(cfg, threads=threads, iters=args.iters, warmup=args.warmup, seed=args.seed)
            print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
