#!/usr/bin/env python3
"""pwseg benchmark: one seeded workload, closed loop, every output checked.

Run from the root of a pwseg source tree:

    python3 perfbench/run.py --workload seg96_m2 --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(network build plus the first, untimed op; repeated, median reported), then
a closed loop for ``--seconds``.  ``--trace 1`` makes one set-up, measures
alternating untraced and traced blocks, and reports the per-layer metrics,
the tracing overhead and coverage, and whether traced outputs are
bit-identical to untraced ones.  Human-readable lines come first; the last
line of standard output is the JSON result.  A full report and the traced
spans are written under ``.perfbench_out/`` in the source tree.

BLAS and OpenMP pools are pinned to one thread per client by assignment
before numpy loads, so an exported ``OMP_NUM_THREADS`` cannot change a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
TRACE_BLOCKS = 4
WORKLOADS = ("seg96_m2", "seg64_m4", "seg96_m2_2c", "analysis")


def pin_threads() -> bool:
    """Pin every BLAS/OpenMP pool to one thread; True if numpy was already loaded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return "numpy" in sys.modules


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the source tree, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "pwseg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(numpy_preloaded: bool, clients: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_per_client": "1 (inferred from the thread variables, set before numpy "
        "loaded; threadpoolctl is not installed, so not read from the library)",
        "numpy_loaded_before_pinning": numpy_preloaded,
        "worker_threads": clients,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT),
        "pwseg_source_digest": source_digest(ROOT),
    }


@dataclass
class Window:
    """One closed-loop measurement window, all clients together."""

    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # (case, digest) of every correct op
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    @classmethod
    def merge(cls, parts: list["Window"], cpu_s: float = 0.0) -> "Window":
        """Pool windows that ran side by side (clients) or one after another."""
        total = cls(cpu_s=cpu_s, wall_s=max(p.wall_s for p in parts))
        for p in parts:
            total.latencies += p.latencies
            total.digests += p.digests
            total.errors += p.errors
            total.attempted += p.attempted
            total.failed += p.failed
        return total


def run_window(wl, state, seconds: float, min_ops: int, tracer=None, label: str = "",
               digests: bool = False) -> Window:
    """Each client runs ops back to back until ``seconds`` pass and it has done ``min_ops``.

    With ``digests`` every correct output is fingerprinted (outside its latency).
    """
    clock = time.perf_counter

    def client(j: int) -> Window:
        res = Window()
        i = 0
        while i < min_ops or clock() < deadline:
            case = wl.case_for(j, i)
            t0 = clock()
            try:
                if tracer is None:
                    out = wl.op(state, j, case)
                else:
                    with tracer.op(f"{label}{j}:{i}"):
                        out = wl.op(state, j, case)
                latency = clock() - t0
                error = wl.check(case, out)
            except Exception as exc:  # a failed op is counted, not raised
                error = f"{type(exc).__name__}: {exc}"
            res.attempted += 1
            if error:
                res.failed += 1
                res.errors.append(error)
            else:
                res.latencies.append(latency)
                if digests:
                    res.digests.append((case, wl.digest(out)))
            i += 1
        res.wall_s = clock() - start
        return res

    cpu0 = time.process_time()
    start = clock()
    deadline = start + seconds
    if wl.clients == 1:
        parts = [client(0)]
    else:
        with ThreadPoolExecutor(max_workers=wl.clients) as pool:
            futures = [pool.submit(client, j) for j in range(wl.clients)]
            parts = [f.result() for f in futures]
    return Window.merge(parts, cpu_s=time.process_time() - cpu0)


def timed_setup(wl):
    """Build the workload's state and run its first op; returns (state, seconds, error)."""
    case = wl.case_for(0, 0)
    t0 = time.perf_counter()
    state = wl.setup()
    try:
        out = wl.op(state, 0, case)
        elapsed = time.perf_counter() - t0
        error = wl.check(case, out)
    except Exception as exc:  # a failed op is counted, not raised
        elapsed = time.perf_counter() - t0
        error = f"first op: {type(exc).__name__}: {exc}"
    return state, elapsed, error


def count_setup(win, errors) -> None:
    win.attempted += len(errors)
    for e in errors:
        if e:
            win.failed += 1
            win.errors.append(e)


def end_to_end(wl, seconds: float) -> tuple[dict, Window, dict]:
    import metrics

    setups, errors = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up before paying for the next
        state, s, error = timed_setup(wl)
        setups.append(s)
        errors.append(error)
    win = run_window(wl, state, seconds, min_ops=1)
    lat = win.latencies or [0.0]  # no correct op: the result says correct false
    tail_value, tail_pct, beyond = metrics.tail(lat)
    values = {
        "ops_per_s": win.ok / win.wall_s,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "cpu_s_per_op": win.cpu_s / max(win.ok, 1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB -> MiB
    }
    count_setup(win, errors)
    detail = {
        "failed_frac": win.failed / win.attempted,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(win.latencies),
        "setup_samples_s": setups,
        "window_wall_s": win.wall_s,
        "latencies_s": win.latencies,
    }
    return values, win, detail


def traced(wl, pw: dict, seconds: float, spans_path: Path) -> tuple[dict, Window, dict]:
    import metrics
    import tracing

    state, _, setup_error = timed_setup(wl)
    net = state  # the seg workloads' state is their Network; analysis has none
    tracer = tracing.Tracer()
    plain_parts, traced_parts = [], []
    # Untraced and traced blocks alternate, so host drift cancels in the overhead.
    for block in range(TRACE_BLOCKS):
        span = seconds / TRACE_BLOCKS
        if block % 2 == 0:
            plain_parts.append(run_window(wl, state, span, min_ops=wl.n_cases, digests=True))
            continue
        with tracing.Instrument(tracer, pw, net):
            traced_parts.append(run_window(wl, state, span, min_ops=wl.n_cases, tracer=tracer,
                                           label=f"b{block}-", digests=True))
    plain, traced_win = Window.merge(plain_parts), Window.merge(traced_parts)
    with spans_path.open("w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.as_dict()) + "\n")

    reference = {}
    for case, d in plain.digests:
        reference.setdefault(case, set()).add(d)
    identical = all(len(ds) == 1 for ds in reference.values()) and all(
        reference.get(case) == {d} for case, d in traced_win.digests
    )

    ops = list(tracing.per_op_layers(tracer.spans).values())
    if net is not None:
        network = pw["network"]
        model = network.flop_breakdown(net)
        pwa_model = dict(enumerate(network.attention_stage_flops(net.config), start=1))
    else:
        model, pwa_model = {}, {}
    p_plain = statistics.median(plain.latencies or [0.0])
    p_traced = statistics.median(traced_win.latencies or [0.0])
    overhead = (p_traced - p_plain) / p_plain if p_plain > 0 else 0.0
    values = metrics.per_layer_values(ops, model, pwa_model, overhead)

    both = Window(
        errors=plain.errors + traced_win.errors,
        attempted=plain.attempted + traced_win.attempted,
        failed=plain.failed + traced_win.failed,
    )
    count_setup(both, [setup_error])
    detail = {
        "bit_identical": identical,
        "counts_repeat": tracing.counts_repeat(ops),
        "untraced_latency_p50_s": p_plain,
        "traced_latency_p50_s": p_traced,
        "tracing_overhead_s": p_traced - p_plain,
        "traced_ops": len(ops),
        "spans": len(tracer.spans),
        "layers": layer_table(ops),
    }
    return values, both, detail


def layer_table(ops) -> dict:
    """Every traced layer: median self time, calls, multiplies, bytes, GFLOP/s, GB/s."""
    import metrics
    import tracing

    first = ops[0]
    table = {}
    for key in sorted(first.calls):
        s = tracing.median_of(ops, "self_s", key)
        table[key] = {
            "self_s": s,
            "calls": first.calls[key],
            "mults": first.mults[key],
            "bytes_computed": first.nbytes[key],
            "gflop_s": metrics.gflop_s(first.mults[key], s),
            "gb_s_computed": first.nbytes[key] / s / 1e9 if s > 0 else 0.0,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pwseg" / "__init__.py").is_file():
        print(f"perfbench: no pwseg sources at {ROOT / 'src' / 'pwseg'}", file=sys.stderr)
        return 2
    numpy_preloaded = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import metrics
    import workloads

    pw = workloads.pwseg_modules()
    wl = workloads.make(args.workload, pw)
    out_dir = ROOT / ".perfbench_out"
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(numpy_preloaded, wl.clients)
    try:
        wl.prepare(args.seed, work_dir)
        if args.trace:
            values, win, detail = traced(wl, pw, args.seconds, out_dir / f"{stem}-spans.jsonl")
            spec = metrics.per_layer_spec()
            correct = win.failed == 0 and detail["bit_identical"] and detail["counts_repeat"]
        else:
            values, win, detail = end_to_end(wl, args.seconds)
            spec = metrics.END_TO_END
            correct = win.failed == 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {name: unit for name, unit, _ in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_clients": wl.clients,
        "environment": env,
        "correct": correct,
        "attempted": win.attempted,
        "failed": win.failed,
        "errors": win.errors[:10],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
        "detail": detail,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({wl.clients} closed-loop client(s), {args.seconds:g} s)")
    print("# environment " + json.dumps(env))
    print(f"# ops attempted {win.attempted}, failed {win.failed} "
          f"(failed_frac {win.failed / max(win.attempted, 1):.4f})")
    for e in win.errors[:3]:
        print(f"#   error: {e}")
    if args.trace:
        print(f"# tracing: bit_identical {detail['bit_identical']}, counts_repeat "
              f"{detail['counts_repeat']}, overhead {detail['tracing_overhead_s']:+.4f} s/op "
              f"over {detail['traced_ops']} traced ops")
        print(f"# {'layer':40s} {'self_s':>9s} {'calls':>6s} {'mults':>12s} {'bytes':>12s} {'GFLOP/s':>8s}")
        for key, row in detail["layers"].items():
            print(f"# {key:40s} {row['self_s']:9.5f} {row['calls']:6d} {row['mults']:12d} "
                  f"{row['bytes_computed']:12d} {row['gflop_s']:8.3f}")
    else:
        print(f"# latency_tail_s is p{detail['latency_tail_percentile']:.1f} of "
              f"{detail['latency_samples']} samples ({detail['latency_tail_samples_beyond']} beyond)")
    for name, _unit, _ in spec:
        print(f"# {name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": win.attempted,
        "failed": win.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
