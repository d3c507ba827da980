"""Tests for the tree comparison of scripts/compare_outputs.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_compare_trees_reports_same_differing_and_missing_files(tmp_path):
    this, other = tmp_path / "this", tmp_path / "other"
    for root in (this, other):
        (root / "run").mkdir(parents=True)
        (root / "run" / "equal.txt").write_text("a=1\nb=2\n")
    (this / "run" / "report.csv").write_text("row,hash\nfull,abc\nbase,x\n")
    (other / "run" / "report.csv").write_text("row,hash\nfull,def\nbase,x\n")
    (this / "new.bin").write_bytes(b"head\n\xff\xfe\n")
    (other / "old.txt").write_text("gone\n")
    assert compare_outputs.compare_trees(this, other) == [
        ("new.bin", "only in this", []),
        ("old.txt", "only in other", []),
        ("run/equal.txt", "same", []),
        ("run/report.csv", "differs", ["- full,def", "+ full,abc"]),
    ]


def test_diff_lines_shows_binary_lines_by_length():
    assert compare_outputs.diff_lines(b"x_hash=1\nEND\n\xff\xfe",
                                      b"x_hash=2\nEND\n\xff\xfe") == [
        "- x_hash=1", "+ x_hash=2"]
    assert compare_outputs.diff_lines(b"END\n\xff", b"END\n\xfe\xfe") == [
        "- <1 bytes, not text>", "+ <2 bytes, not text>"]
