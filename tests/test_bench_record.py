"""Tests for scripts/bench_record.py, on canned benchmark output."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

PROVENANCE = {"git_sha": "abc123", "python": "3.11.7", "seed": 1,
              "src_cnslab_lines": 3700}
FINGERPRINTS = {"train1": {"eval.csv": "9f2c"}}
FINAL = {"correct": True, "attempted": 12, "failed": 0,
         "metrics": {"wall_s": {"value": 1.93, "unit": "s"},
                     "peak_rss_mb": {"value": 57.2, "unit": "MB"},
                     "ok_frac": {"value": 1.0, "unit": "1"}}}
CANNED = "\n".join([
    "perfbench provenance: " + json.dumps(PROVENANCE),
    "perfbench fingerprints: " + json.dumps(FINGERPRINTS),
    'perfbench samples: {"setup_s": [0.4], "untraced": [1.9], "traced": []}',
    "perfbench failures: []",
    json.dumps(FINAL),
]) + "\n"


def test_assemble_reads_metrics_provenance_and_fingerprints():
    assert bench_record.assemble(CANNED) == {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"wall_s": 1.93, "peak_rss_mb": 57.2, "ok_frac": 1.0},
        "provenance": PROVENANCE, "fingerprints": FINGERPRINTS}


def test_assemble_rejects_output_without_provenance():
    lines = CANNED.splitlines()
    with pytest.raises(ValueError, match="provenance"):
        bench_record.assemble("\n".join(lines[1:]))


@pytest.mark.parametrize("line, expected", [
    ("497 passed in 101.37s (0:01:41)",
     {"passed": 497, "failed": 0, "seconds": 101.37}),
    ("2 failed, 494 passed, 1 skipped in 98.20s (0:01:38)",
     {"passed": 494, "failed": 2, "seconds": 98.2}),
])
def test_tier1_summary_reads_the_last_pytest_line(line, expected):
    stdout = "....F.. [ 99%]\n" + "=" * 5 + " FAILURES " + "=" * 5 + "\n" + line + "\n"
    assert bench_record.tier1_summary(stdout) == expected


def test_tier1_summary_rejects_output_without_a_summary():
    with pytest.raises(ValueError, match="summary"):
        bench_record.tier1_summary("ERROR: file or directory not found\n")


def test_held_out_seed_is_never_recorded():
    assert 7919 not in bench_record.SEEDS


def test_source_digest_is_sha256sum_of_the_sorted_sources(tmp_path, monkeypatch):
    src = tmp_path / "src" / "cnslab"
    src.mkdir(parents=True)
    (src / "b.py").write_bytes(b"y = 2\n")
    (src / "a.py").write_bytes(b"x = 1\n")
    (src / "notes.txt").write_bytes(b"not source\n")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    # cd src/cnslab && sha256sum *.py | sha256sum
    listing = "".join(f"{hashlib.sha256(body).hexdigest()}  {name}\n"
                      for name, body in (("a.py", b"x = 1\n"), ("b.py", b"y = 2\n")))
    digest = bench_record.source_sha256()
    assert digest == hashlib.sha256(listing.encode()).hexdigest()
    assert bench_record.source_lines() == 2
    (src / "b.py").write_bytes(b"y = 3\n")
    assert bench_record.source_sha256() != digest
