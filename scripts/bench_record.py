"""Run the benchmark on fixed training seeds and record it as BENCH_<n>.json.

Each of the two workloads runs once per seed through
``perfbench/run.py --trace 0``.  The record keeps, per workload and seed,
what the run's own output states: the end-to-end metrics of its final
JSON line, its provenance and its fingerprints; and once, the line count
and a sha256 digest of ``src/cnslab`` and the passed and failed counts
and seconds of one Tier-1 run, as pytest prints them.  The provenance's
``git_sha`` is the commit checked out, which is the parent of a change
recorded before it is committed; the digest names the code measured.
Every run lasts ``run_seconds`` of BENCHMARK.json, so records stay
comparable.  The held-out seed 7919 is never run: it is kept
for confirming a claim.

Usage, from anywhere:
    python3 scripts/bench_record.py --out BENCH_14.json
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train_default", "ablate_standard")
SEEDS = (0, 1, 2)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the JSON record")
    return parser.parse_args()


def assemble(stdout: str) -> dict:
    """The record of one run from its standard output."""
    lines = stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        for tag in ("provenance", "fingerprints"):
            prefix = f"perfbench {tag}: "
            if line.startswith(prefix):
                tagged[tag] = json.loads(line[len(prefix):])
    missing = {"provenance", "fingerprints"} - set(tagged)
    if missing:
        raise ValueError(f"perfbench output has no {sorted(missing)} line")
    final = json.loads(lines[-1])
    return {"correct": final["correct"], "attempted": final["attempted"],
            "failed": final["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in final["metrics"].items()},
            "provenance": tagged["provenance"],
            "fingerprints": tagged["fingerprints"]}


def tier1_summary(stdout: str) -> dict:
    """Passed and failed counts and seconds of pytest's summary line."""
    lines = [line for line in stdout.splitlines()
             if re.search(r" in [0-9.]+s\b", line)]
    if not lines:
        raise ValueError("pytest output has no summary line")
    summary = lines[-1]
    counts = {word: int(n)
              for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "seconds": float(re.search(r" in ([0-9.]+)s", summary).group(1))}


def run_tier1() -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return tier1_summary(done.stdout)


def source_files() -> list:
    return sorted((ROOT / "src" / "cnslab").glob("*.py"))


def source_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in source_files())


def source_sha256() -> str:
    """sha256 of the ``sha256sum`` listing of the ``src/cnslab/*.py`` files,
    in sorted name order: ``cd src/cnslab && sha256sum *.py | sha256sum``
    under the C locale."""
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                      for path in source_files())
    return hashlib.sha256(listing.encode()).hexdigest()


def run_seconds() -> float:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return float(benchmark["run_seconds"])


def main():
    args = parse_args()
    seconds = run_seconds()
    record = {"seconds": seconds, "src_cnslab_lines": source_lines(),
              "src_cnslab_sha256": source_sha256(),
              "tier1": run_tier1(), "workloads": {}}
    print(f"tier1: {record['tier1']}", file=sys.stderr)
    for workload in WORKLOADS:
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n"
                         f"{done.stderr}")
            record["workloads"].setdefault(workload, {})[str(seed)] = \
                assemble(done.stdout)
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
