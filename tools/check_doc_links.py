#!/usr/bin/env python3
"""Fail on broken intra-repository links in the documentation.

Scans ``README.md`` and ``docs/**/*.md`` for Markdown links and inline
references, and the Python sources under ``src/``, ``benchmarks/`` and
``examples/`` for ``*.md`` mentions, and checks that every *local* target
exists:

* ``[text](target)`` Markdown links — ``http(s)://`` and ``mailto:`` targets
  are skipped, ``#fragment`` suffixes are stripped, and targets are resolved
  relative to the file that mentions them;
* `` `path` `` inline-code references that look like repository paths
  (``docs/*.md``, ``examples/*.py``, ``benchmarks/*.py``, ``tools/*.py``) —
  the documentation's habitual way of pointing at code;
* ``NAME.md`` / ``docs/name.md`` mentions in a Python file's docstrings and
  comments — the code's habitual way of pointing at documentation.

Exit status 0 when everything resolves, 1 with one line per broken link —
which is what the CI docs job keys off.  Stdlib only; run from anywhere::

    python tools/check_doc_links.py
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — target captured lazily up to the first unescaped ')'.
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: `some/path.ext` inline-code references that name repository files.
CODE_REFERENCE = re.compile(
    r"`((?:docs|examples|benchmarks|tools|src|tests)/[A-Za-z0-9_./-]+"
    r"\.(?:md|py|json|txt|yml))`"
)

#: ``DESIGN.md`` / ``docs/server.md`` mentions anywhere in a Python source line.
PYTHON_MENTION = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")

#: Directories whose Python sources are scanned for ``*.md`` mentions.
PYTHON_ROOTS = ("src", "benchmarks", "examples")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def documentation_files() -> List[pathlib.Path]:
    files = sorted((REPO_ROOT / "docs").rglob("*.md"))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def python_files() -> List[pathlib.Path]:
    return sorted(path for root in PYTHON_ROOTS
                  for path in (REPO_ROOT / root).rglob("*.py"))


def link_targets(path: pathlib.Path) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(line_number, kind, target)`` for every checkable reference."""
    inside_fence = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
            continue
        if inside_fence:
            continue
        for match in MARKDOWN_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            yield number, "link", target
        for match in CODE_REFERENCE.finditer(line):
            yield number, "reference", match.group(1)


def python_mentions(path: pathlib.Path) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(line_number, "mention", target)`` for every ``*.md`` a Python file names."""
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for match in PYTHON_MENTION.finditer(line):
            yield number, "mention", match.group(1)


def resolve(path: pathlib.Path, target: str) -> pathlib.Path:
    target = target.split("#", 1)[0]
    if target.startswith("/"):
        return REPO_ROOT / target.lstrip("/")
    base = path.parent if target.startswith(".") else None
    if base is not None:
        return (base / target).resolve()
    # Bare targets: try relative to the mentioning file first, then the root
    # (inline-code references are written repo-root-relative by convention).
    candidate = (path.parent / target).resolve()
    return candidate if candidate.exists() else REPO_ROOT / target


def main() -> int:
    broken: List[str] = []
    checked = 0
    scanned = ([(path, link_targets) for path in documentation_files()]
               + [(path, python_mentions) for path in python_files()])
    for path, extract in scanned:
        for number, kind, target in extract(path):
            checked += 1
            if not resolve(path, target).exists():
                where = path.relative_to(REPO_ROOT)
                broken.append(f"{where}:{number}: broken {kind} -> {target}")
    if broken:
        print(f"{len(broken)} broken documentation link(s):")
        for line in broken:
            print(f"  {line}")
        return 1
    print(f"docs link check: {checked} links/references across "
          f"{len(scanned)} files, all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
