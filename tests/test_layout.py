"""README's repository layout states the size of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_package_line_count():
    # What `wc -l src/cnslab/*.py` totals: the newlines of every module.
    total = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "cnslab").glob("*.py"))
    stated = re.search(r"^src/cnslab/\s+(\d+) lines of Python$",
                       (ROOT / "README.md").read_text(), re.M)
    assert stated is not None
    assert int(stated.group(1)) == total
