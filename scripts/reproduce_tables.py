#!/usr/bin/env python3
"""Reproduce the design-point tables: JL bounds, window schedules, cost sheet.

Prints the per-stage group-size bounds for the volumetric and natural-image
profiles, the rounded group plans, the default window schedules, and the
parameter/FLOP summary of the default and conv-only configurations against
their reference envelopes.
"""

import argparse
import math

from pwseg.jl import MEDICAL3D_VOLUME_RATIOS, NATURAL2D_VOLUME_RATIOS, group_size_bound, plan_stages
from pwseg.network import NetworkConfig, build, conv_only, flop_breakdown, param_count


def print_bound_tables() -> None:
    print("Group-size lower bounds, alpha = 1 (channels per group >= alpha * ln(M*v))")
    print("  volumetric profile, stage volume ratios", MEDICAL3D_VOLUME_RATIOS)
    for m in (1, 2, 4):
        row = ", ".join(f"{group_size_bound(m, v, 1.0):5.2f}" for v in MEDICAL3D_VOLUME_RATIOS)
        print(f"    M={m}:  {row}")
    print("  natural-image profile, stage area ratios", NATURAL2D_VOLUME_RATIOS)
    row = ", ".join(f"{group_size_bound(3, v, 1.0):5.2f}" for v in NATURAL2D_VOLUME_RATIOS)
    print(f"    M=3:  {row}")
    print()
    print("Rounded plans (base unit n):")
    for n in (1, 2, 4):
        plan = plan_stages(2, n=n)
        print(f"    n={n}: {plan.group_sizes}")
    plan = plan_stages(3, n=1, profile="natural2d")
    print(f"    natural2d, n=1: {plan.group_sizes}")
    print()


def print_schedules(cfg: NetworkConfig) -> None:
    print(f"Window schedules for input extent {cfg.input_extent}:")
    for k, sched in enumerate(cfg.stage_schedules):
        bigs = [p[0] for p in sched.pairs]
        print(f"    stage {k + 1}: extent {sched.extent}, big windows {bigs}, L={sched.seq_len}")
    print()


def print_cost_sheet(cfg: NetworkConfig, seed: int) -> None:
    for name, c, p_target, f_target in (
        ("default", cfg, 1.66e6, 1.79e9),
        ("conv-only", conv_only(cfg), 1.18e6, None),
    ):
        net = build(c, seed=seed)
        params = param_count(net)
        breakdown = flop_breakdown(net)
        total = sum(breakdown.values())
        print(f"{name} configuration:")
        print(f"    params: {params:,} ({params / 1e6:.3f}M, reference {p_target / 1e6:.2f}M ±20%)")
        suffix = f" (reference {f_target / 1e9:.2f}G ±20%)" if f_target else ""
        print(f"    flops @ {c.input_extent}: {total:,} ({total / 1e9:.3f}G{suffix})")
        for key, value in breakdown.items():
            print(f"        {key:14s} {value / 1e9:7.4f} G   {100 * value / total:5.1f}%")
        print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print_bound_tables()
    print_schedules(NetworkConfig())
    print_cost_sheet(NetworkConfig(), args.seed)
    # sanity: ln reproduces the highest-modality coefficient to table precision
    assert abs(group_size_bound(4, 32**3, 1.0) - 11.78) < 0.005 + 1e-9, "bound drifted"
    assert abs(group_size_bound(3, 1, 1.0) - math.log(3)) < 1e-12
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
