#!/usr/bin/env python
"""Check intra-repo links in README.md and docs/*.md.

Fails (exit 1) when a markdown link target that is not an external URL
does not resolve to an existing file or directory, relative to the
file containing the link, or when its ``#anchor`` names no heading of
the markdown file it points into (the linking file itself for a pure
in-page anchor; GitHub slugs; headings inside fenced code are not
headings). Run from anywhere:

    python scripts/check_docs_links.py

Used by the CI docs lane and mirrored by ``tests/test_docs.py`` so the
tier-1 suite catches broken links before CI does.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: inline markdown links: [text](target) — images share the syntax
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL = ("http://", "https://", "mailto:")

#: an ATX heading: its text, without an optional closing ``#`` run
HEADING = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")

#: the opening or closing line of a fenced code block
FENCE = re.compile(r"^\s*(```|~~~)")


def doc_files() -> "list[Path]":
    files = []
    readme = REPO / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return files


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: link text kept, lowercased,
    punctuation other than ``-`` and ``_`` dropped, spaces to ``-``."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(path: Path) -> "set[str]":
    """Every heading anchor of a markdown file; the n-th repeat of a
    slug gets GitHub's ``-n`` suffix."""
    found: "set[str]" = set()
    seen: "dict[str, int]" = {}
    fence = None
    for line in path.read_text().splitlines():
        opener = FENCE.match(line)
        if opener:
            if fence is None:
                fence = opener.group(1)
            elif opener.group(1) == fence:
                fence = None
            continue
        heading = HEADING.match(line) if fence is None else None
        if heading:
            base = slug(heading.group(1))
            repeat = seen.get(base, 0)
            seen[base] = repeat + 1
            found.add(f"{base}-{repeat}" if repeat else base)
    return found


def broken_links(path: Path) -> "list[tuple[int, str]]":
    bad = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for target in LINK.findall(line):
            if target.startswith(EXTERNAL):
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (path.parent / file_part).resolve() if file_part else path
            if not resolved.exists() or (
                anchor and resolved.suffix == ".md" and anchor not in anchors(resolved)
            ):
                bad.append((lineno, target))
    return bad


def main() -> int:
    failures = 0
    for path in doc_files():
        for lineno, target in broken_links(path):
            rel = path.relative_to(REPO)
            print(f"{rel}:{lineno}: broken link -> {target}")
            failures += 1
    if failures:
        print(f"{failures} broken link(s)")
        return 1
    print(f"checked {len(doc_files())} file(s): all intra-repo links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
