"""Docstrings and comments may only cite documents that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"[\w./-]*\w\.md\b")


def test_every_cited_markdown_file_exists():
    """A ``*.md`` name in a source, benchmark, ledger or test file is a
    path from the repository root (six docstrings cited a design
    document that was never written)."""
    missing = sorted({
        f"{path.relative_to(ROOT)}: {name}"
        for top in ("src", "benchmarks", "ledger", "tests")
        for path in (ROOT / top).rglob("*.py")
        for name in CITATION.findall(path.read_text(encoding="utf-8"))
        if not (ROOT / name).is_file()})
    assert missing == []
