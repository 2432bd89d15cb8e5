#!/usr/bin/env python
"""Check that intra-repo markdown links and file pointers resolve.

Walks every ``*.md`` file in the repository (skipping virtualenvs and
caches), extracts ``[text](target)`` links and bare backticked file
pointers like ```src/repro/parallel/executor.py```, and verifies that
every repo-relative target exists.  External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#section``) are ignored;
anchored file links (``FILE.md#section``) are checked for the file
part only.

Exit status 1 when any link is dead — CI's ``docs`` job runs this on
every push so README/ARCHITECTURE file pointers cannot rot silently.

Usage::

    python tools/check_markdown_links.py [ROOT]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: [text](target) — excluding images is unnecessary; they resolve the same.
_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")

#: Backticked repo paths: at least one '/' and a known source suffix, so
#: prose like `pytest -q` or `popqc --transport shm` is not matched.
_BACKTICK_PATH = re.compile(
    r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+"
    r"\.(?:py|md|json|yml|yaml|toml|qasm|csv|txt))`"
)

_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "node_modules", ".ruff_cache"}

#: Harness-generated inputs, not repo documentation: their shorthand
#: pointers (and upstream image links) are outside our control.  And the
#: change log, whose entries name files as they were when written —
#: package-relative, and including ones later PRs deleted.
_SKIP_FILES = {
    "ISSUE.md", "ROADMAP.md", "SNIPPETS.md", "PAPER.md", "PAPERS.md", "CHANGES.md",
}

#: Backticked paths that name generated artifacts (or sit under a
#: ``DIR`` placeholder) rather than committed files are allowed to be
#: absent.
_GENERATED_OK = ("results/", "out/", "build/", "dist/", "figures/", "DIR/")


def iter_markdown(root: Path):
    """Yield every markdown file under ``root`` outside skipped dirs."""
    for path in sorted(root.rglob("*.md")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        if path.relative_to(root).as_posix() in _SKIP_FILES:
            continue
        yield path


def check_file(path: Path, root: Path) -> list[str]:
    """Dead link descriptions for one markdown file."""
    text = path.read_text(encoding="utf-8")
    problems = []
    targets: list[tuple[str, str]] = []
    for match in _LINK.finditer(text):
        targets.append(("link", match.group(1)))
    for match in _BACKTICK_PATH.finditer(text):
        targets.append(("pointer", match.group(1)))
    for kind, raw in targets:
        target = raw.split("#", 1)[0]
        if not target:  # pure in-page anchor
            continue
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
            continue
        if kind == "pointer" and target.startswith(_GENERATED_OK):
            continue
        if target.startswith("/"):
            candidates = [root / target.lstrip("/")]
        elif kind == "pointer":
            # prose pointers are conventionally repo-root-relative, but
            # accept file-relative too
            candidates = [root / target, path.parent / target]
        else:
            candidates = [path.parent / target]
        if not any(c.exists() for c in candidates):
            problems.append(f"{path.relative_to(root)}: dead {kind} -> {raw}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Scan the repo and report dead intra-repo links."""
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parent.parent
    problems: list[str] = []
    checked = 0
    for path in iter_markdown(root):
        checked += 1
        problems.extend(check_file(path, root))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{checked} markdown files checked, {len(problems)} dead links")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
