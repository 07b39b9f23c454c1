#!/usr/bin/env python3
"""Regenerate reference.json: logit summaries of every bank case.

Run from the root of a pwseg source tree, on the commit whose outputs are
the reference:

    python3 perfbench/make_reference.py

For each seg network shape (2 modalities at 96^3, 4 at 64^3) it builds the
network with the benchmark's seed, runs ``forward`` on each of the
``BANK_SIZE`` phantom cases and stores ``workloads.summarize`` of the logits.
"""

import json
import sys

from run import ROOT, pin_threads


def main() -> int:
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pw = workloads.pwseg_modules()
    network = pw["network"]
    out = {}
    for shape in (workloads.SegShape(2, 96), workloads.SegShape(4, 64)):
        cfg = network.NetworkConfig(modalities=shape.modalities, input_extent=(shape.extent,) * 3)
        net = network.build(cfg, workloads.NET_SEED)
        bank = {}
        for case in range(workloads.BANK_SIZE):
            logits = network.forward(net, list(workloads.bank_volumes(pw, shape, case)))
            bank[str(case)] = workloads.summarize(logits, case)
        out[shape.bank] = bank
        print(f"{shape.bank}: {len(bank)} cases", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
