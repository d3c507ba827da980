"""cnslab benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  Earlier lines carry the provenance
block, the determinism fingerprints and the raw samples.  See
perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import hostspeed  # imports numpy only in its helper process

# BLAS threading is fixed before numpy is first imported, identically for
# this process and for every interpreter it starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "CNS_LOG": "WARNING"}

# Set-up is repeated this many times in fresh interpreters; setup_s is the median.
SETUP_RUNS = 5
# Every run makes at least this many operations, so a repeated input's
# fingerprints are compared at least once.
MIN_OPS = 2
# Seeds used while the benchmark was built and made steady.
TUNING_SEEDS = range(0, 60)
# Later work must not tune on this seed; it is kept for confirming a claim.
HELD_OUT_SEED = 7919

SETUP_SNIPPET = ("import sys, cnslab.cli; "
                 "sys.exit(cnslab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)")


@dataclass
class Tally:
    """What the operations of one run produced."""

    seconds: Dict[str, List[float]] = field(
        default_factory=lambda: {"untraced": [], "traced": []})
    attempted: int = 0
    failed: int = 0
    quality: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fingerprints: Dict[str, Dict[str, str]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    # Median host-speed kernel time around each untraced operation.
    kernel: List[float] = field(default_factory=list)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_default", "ablate_standard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _timed_setup(root: Path, argv) -> float:
    """Wall time of one fresh interpreter importing cnslab and building inputs."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, *map(str, argv)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr}")
    return seconds


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(root: Path, seed: int) -> dict:
    """Where and on what the run was made; recorded, never a metric."""
    import numpy
    import scipy
    import workloads

    sha = None  # a checkout without git metadata has no sha
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    lines = sum(len(path.read_text().splitlines())
                for path in sorted((root / "src" / "cnslab").glob("*.py")))
    return {
        "git_sha": sha, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "seed": seed, "scene_seed": workloads.DEFAULT_SCENE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "src_cnslab_lines": lines,
    }


def measure(workload, seconds: float, trace: bool, work: Path,
            speed=None) -> Tally:
    """Run operations until ``seconds`` would be exceeded (at least MIN_OPS).

    A traced run alternates untraced and traced operations, so the two
    can be compared for the tracing overhead.  With a ``speed`` helper,
    the host's speed is sampled around each operation.
    """
    tally = Tally()
    start = time.perf_counter()
    index = 0
    if speed is not None:
        speed.start()
    while True:
        workload.traced = trace and index % 2 == 1
        op_start = time.perf_counter()
        out = work / f"op{index}"
        tally.attempted += workload.per_op
        op = None
        try:
            op = workload.op(index, out)
        except Exception as exc:  # a crash is a failed operation, not the end
            traceback.print_exc()
            tally.failed += workload.per_op
            tally.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        else:
            tally.seconds["traced" if workload.traced else "untraced"].append(
                op.seconds)
            tally.quality.setdefault(op.key, op.quality)
            tally.fingerprints.setdefault(op.key, op.fingerprints)
        shutil.rmtree(out, ignore_errors=True)
        if speed is not None:
            kernel = speed.after(time.perf_counter() - op_start)
            if op is not None:
                tally.kernel.append(kernel)
        index += 1
        done = tally.seconds["untraced"] + tally.seconds["traced"]
        if index >= MIN_OPS and (not done or time.perf_counter() - start
                                 + statistics.median(done) > seconds):
            return tally


def end_to_end(tally: Tally, setup: List[float],
               setup_kernel: List[float]) -> Dict[str, tuple]:
    """End-to-end metrics; each set-up run and operation time is scaled
    by the host's speed around it (hostspeed.py) before the median."""
    def median_quality(name):
        return statistics.median(q[name] for q in tally.quality.values())

    plain = tally.seconds["untraced"]
    ok = tally.attempted - tally.failed
    metrics = {
        "setup_s": (statistics.median(map(hostspeed.scale, setup,
                                          setup_kernel)), "s"),
        "wall_s": (statistics.median(map(hostspeed.scale, plain, tally.kernel))
                   if plain else 0.0, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": (ok / tally.attempted, "1"),
    }
    for name in ("miou2d", "miou3d", "refined_err3d"):
        metrics[name] = (median_quality(name) if tally.quality else 0.0, "1")
    return metrics


def per_layer(tally: Tally, tracer, workload) -> Dict[str, tuple]:
    import tracer as tracing

    traced, plain = tally.seconds["traced"], tally.seconds["untraced"]
    values = tracing.layer_metrics(tracer.spans, max(len(traced), 1))
    silent = [name for name, value in values.items()
              if value == 0 and not name.startswith(workload.idle)]
    if traced and silent:
        raise RuntimeError(f"traced layers recorded nothing: {silent}")
    if traced and plain:
        values["trace.traced_op_s"] = statistics.median(traced)
        values["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(plain))
    else:
        values["trace.traced_op_s"] = values["trace.overhead_s"] = 0.0
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "1"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def run(args, root: Path):
    import tracer as tracing
    import workloads

    base = root / ".perfbench_work"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, args.seed, tracer, bool(args.trace))
    # A traced run reports no end-to-end times: it needs no host speed,
    # and it builds its inputs once.
    speed = None if args.trace else hostspeed.HostSpeed()
    try:
        runs = 1 if args.trace else SETUP_RUNS
        setup, setup_kernel = [], []
        if speed is not None:
            speed.start()
        for i in range(runs):
            setup.append(_timed_setup(root, workload.setup_argv(work / f"setup{i}")))
            if speed is not None:
                setup_kernel.append(speed.after(setup[-1]))
        import cnslab.cli  # noqa: F401  (for the in-process operations)

        with tracing.Patcher() as patcher:
            workload.prepare(work / f"setup{runs - 1}", patcher)
            if args.trace:
                tracer.install(patcher)
            tally = measure(workload, args.seconds, bool(args.trace), work,
                            speed)
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench provenance: {json.dumps(provenance(root, args.seed))}")
    print(f"perfbench fingerprints: {json.dumps(tally.fingerprints)}")
    print(f"perfbench samples: {json.dumps({'setup_s': setup, **tally.seconds})}")
    if not args.trace:
        print("perfbench host speed: " + json.dumps({
            "nominal_s": hostspeed.NOMINAL_S, "setup_kernel_s": setup_kernel,
            "op_kernel_s": tally.kernel, "samples": len(speed.samples)}))
    print(f"perfbench failures: {json.dumps(tally.failures)}")
    if args.trace:
        trace_file = base / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_file)
        print(f"perfbench trace: {trace_file.relative_to(root)}")
        metrics = per_layer(tally, tracer, workload)
    else:
        metrics = end_to_end(tally, setup, setup_kernel)
    return tally, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_ENV)
    # One CPU for this process and every process it starts, so that the
    # host-speed helper runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "cnslab" / "__init__.py").is_file():
        print(f"perfbench: no cnslab sources under {root / 'src'}; run from "
              f"the root of a cnslab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    tally, metrics = run(args, root)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
