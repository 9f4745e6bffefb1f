"""Documentation checks: doctests + markdown link/anchor integrity.

Run from the repo root (CI does, via ``make docs-check``)::

    PYTHONPATH=src python scripts/check_docs.py

Two passes:

1. ``doctest.testmod`` over the documented modules listed in
   ``DOCTEST_MODULES`` (modules with executable examples in their
   docstrings; keep the list in sync when adding doctests elsewhere);
2. every relative link and ``#anchor`` in the markdown files listed in
   ``DOC_FILES`` must resolve — the target file must exist, and an
   anchor must match a heading slug (GitHub slugification) in the
   target.  External ``http(s)`` links are not fetched (CI has no
   business depending on the network);
3. the traced-op table in ``docs/ARCHITECTURE.md`` (the "Traced ops"
   section) must list exactly the op kinds registered in
   ``repro.nn.graph._FWD_FACTORY`` — an op added to the compiler
   without a table row (or a stale row for a removed op) fails the
   build.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DOCTEST_MODULES = [
    "repro.serve.cache",
    "repro.serve.faults",
    "repro.serve.journal",
    "repro.serve.net",
    "repro.serve.resilience",
    "repro.serve.scheduler",
    "repro.serve.session",
    "repro.serve.workload",
    "repro.benchrunner",
]

DOC_FILES = ["docs/*.md", "examples/README.md", "ROADMAP.md", "PAPER.md"]

_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->dashes.

    Code-span backticks and emphasis asterisks are formatting (removed);
    underscores are literal inside this repo's headings (kept).
    """
    text = re.sub(r"[`*]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(md_path: Path) -> set:
    text = _CODE_FENCE.sub("", md_path.read_text())
    return {github_slug(h) for h in _HEADING.findall(text)}


def _display(md: Path) -> str:
    try:
        return str(md.relative_to(ROOT))
    except ValueError:
        return str(md)


def check_markdown(paths) -> list:
    errors = []
    for md in paths:
        text = _CODE_FENCE.sub("", md.read_text())
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = (md.parent / path_part).resolve() if path_part else md
            if not dest.exists():
                errors.append(f"{_display(md)}: broken link -> {target}")
                continue
            if anchor:
                if dest.suffix != ".md":
                    continue        # anchors into source files: line refs
                if anchor not in heading_slugs(dest):
                    errors.append(f"{_display(md)}: missing anchor "
                                  f"#{anchor} in {path_part or md.name}")
    return errors


_OP_ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|", re.MULTILINE)


def check_traced_op_table() -> list:
    """The ARCHITECTURE.md op table must match the compiler registry."""
    from repro.nn.graph import _FWD_FACTORY
    md = ROOT / "docs" / "ARCHITECTURE.md"
    text = md.read_text()
    start = text.find("### Traced ops")
    if start < 0:
        return ["docs/ARCHITECTURE.md: missing 'Traced ops' section"]
    end = text.find("\n## ", start)
    section = text[start:end if end > 0 else len(text)]
    documented = set(_OP_ROW.findall(section)) - {"op"}
    registered = set(_FWD_FACTORY)
    errors = []
    for op in sorted(registered - documented):
        errors.append(f"docs/ARCHITECTURE.md: traced op `{op}` is "
                      "registered but missing from the Traced ops table")
    for op in sorted(documented - registered):
        errors.append(f"docs/ARCHITECTURE.md: Traced ops table lists "
                      f"`{op}`, which is not a registered op")
    return errors


def run_doctests(modules) -> int:
    failed = 0
    for name in modules:
        mod = importlib.import_module(name)
        result = doctest.testmod(mod)
        status = "ok" if result.failed == 0 else "FAILED"
        print(f"  doctest {name}: {result.attempted} examples, "
              f"{result.failed} failed [{status}]")
        failed += result.failed
    return failed


def main() -> int:
    print("== doctests ==")
    failed = run_doctests(DOCTEST_MODULES)

    print("== markdown links/anchors ==")
    paths = []
    for pattern in DOC_FILES:
        paths.extend(sorted(ROOT.glob(pattern)))
    errors = check_markdown(paths)
    for err in errors:
        print(f"  {err}")
    print(f"  checked {len(paths)} files, {len(errors)} broken "
          "links/anchors")

    print("== traced-op table ==")
    op_errors = check_traced_op_table()
    for err in op_errors:
        print(f"  {err}")
    print(f"  {len(op_errors)} drifted rows")
    return 1 if (failed or errors or op_errors) else 0


if __name__ == "__main__":
    sys.exit(main())
