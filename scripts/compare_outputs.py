"""Run one fixed set of CLI commands on two checkouts and compare the outputs.

Each command runs in a fresh interpreter, once with this checkout's
`src` and once with OTHER_CHECKOUT's `src` on PYTHONPATH, in a temporary
work directory per checkout.  The commands are `synth` at seeds 0 and 1,
`refine` of the seed-0 bundle, a short `train` and its `eval`, and a
one-seed `ablate` of all eight rows.  Every output file is then printed
as `same` or `differs` (or missing on one side), with the lines that
differ.  A line that is not UTF-8 text prints as its length.

Usage:
    python3 scripts/compare_outputs.py OTHER_CHECKOUT

Exits 0 when every file is the same, 1 otherwise.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in order, in the checkout's work directory; later commands read the
# first bundle and the trained checkpoint.
COMMANDS = [
    ["synth", "--out", "synth0", "--seed", "0"],
    ["synth", "--out", "synth1", "--seed", "1"],
    ["refine", "synth0/bundle", "--out", "refine"],
    ["train", "synth0/bundle", "--out", "train", "--stage1_epochs", "1",
     "--total_epochs", "3"],
    ["eval", "synth0/bundle", "train/checkpoint.ckpt", "--out", "eval"],
    ["ablate", "--out", "ablate", "--seeds", "0", "--stage1_epochs", "2",
     "--total_epochs", "4"],
]


def run_commands(checkout: Path, work: Path) -> list:
    """Run COMMANDS with checkout's src; returns a line per failed command."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    failures = []
    for args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "cnslab.cli", *args], cwd=work,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{' '.join(args)}: exit {done.returncode}: "
                            f"{done.stderr.strip()}")
    return failures


def _show(line: bytes) -> str:
    try:
        return line.decode()
    except UnicodeDecodeError:
        return f"<{len(line)} bytes, not text>"


def diff_lines(a: bytes, b: bytes) -> list:
    """The lines of a and b that differ, as '- ' / '+ ' lines."""
    out = []
    old, new = a.split(b"\n"), b.split(b"\n")
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            out += [f"- {_show(line)}" for line in old[i1:i2]]
            out += [f"+ {_show(line)}" for line in new[j1:j2]]
    return out


def compare_trees(this: Path, other: Path) -> list:
    """(relative path, status, differing lines) of every file in either tree.

    status is "same", "differs", "only in this" or "only in other".
    """
    names = sorted({p.relative_to(root).as_posix()
                    for root in (this, other) for p in root.rglob("*") if p.is_file()})
    result = []
    for name in names:
        a, b = this / name, other / name
        if not b.is_file():
            result.append((name, "only in this", []))
        elif not a.is_file():
            result.append((name, "only in other", []))
        elif a.read_bytes() == b.read_bytes():
            result.append((name, "same", []))
        else:
            result.append((name, "differs", diff_lines(b.read_bytes(), a.read_bytes())))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the other checkout's root")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "cnslab").is_dir():
        parser.error(f"{args.other} has no src/cnslab")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        failed = False
        for label, checkout in (("this", ROOT), ("other", args.other)):
            for line in run_commands(checkout, work / label):
                print(f"{label}: {line}")
                failed = True
        print("(- other, + this)")
        for name, status, lines in compare_trees(work / "this", work / "other"):
            print(f"{status:>13}  {name}")
            for line in lines:
                print(f"{'':15}{line}")
            failed |= status != "same"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
