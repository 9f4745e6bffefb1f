"""Documentation checks: doctests + markdown link/anchor integrity.

Run from the repo root (CI does, via ``make docs-check``)::

    PYTHONPATH=src python scripts/check_docs.py

Four passes:

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
   build — and each row's "Backward reads" cell must name the rule
   ``repro.nn.graph._BWD_READS`` gives that kind, the rule the buffer
   planner keeps its operands live by;
4. every backticked entry point in the "The four legs" table of
   ``docs/ARCHITECTURE.md`` (e.g. ``PairedExecutor``, ``lane_step``)
   must resolve as an attribute of that row's module, and every backticked
   ``rowrep.<name>`` in ``docs/*.md`` as an attribute of
   ``repro.nn.rowrep``, so a renamed or deleted entry point fails the
   build;
5. every method the "Adding an attack" list of ``docs/ARCHITECTURE.md``
   names must be defined on ``repro.attacks.base.Attack`` or one of its
   subclasses, so the documented attack contract cannot drift from the
   code.
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


_OP_ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|([^|]*)\|", re.MULTILINE)


def check_traced_op_table() -> list:
    """The ARCHITECTURE.md op table must match the compiler registry and
    its backward-reads table."""
    from repro.nn.graph import _BWD_READS, _FWD_FACTORY
    md = ROOT / "docs" / "ARCHITECTURE.md"
    text = md.read_text()
    start = text.find("### Traced ops")
    if start < 0:
        return ["docs/ARCHITECTURE.md: missing 'Traced ops' section"]
    end = text.find("\n## ", start)
    section = text[start:end if end > 0 else len(text)]
    rows = dict(_OP_ROW.findall(section))
    documented = set(rows)
    registered = set(_FWD_FACTORY)
    errors = []
    for op in sorted(documented & registered):
        cell = rows[op].strip()
        if cell != _BWD_READS.get(op):
            errors.append(f"docs/ARCHITECTURE.md: traced op `{op}` lists "
                          f"backward reads {cell!r}, the planner uses "
                          f"{_BWD_READS.get(op)!r}")
    for op in sorted(registered - documented):
        errors.append(f"docs/ARCHITECTURE.md: traced op `{op}` is "
                      "registered but missing from the Traced ops table")
    for op in sorted(documented - registered):
        errors.append(f"docs/ARCHITECTURE.md: Traced ops table lists "
                      f"`{op}`, which is not a registered op")
    return errors


_LEG_ROW = re.compile(
    r"^\|[^|]*\|\s*`src/([\w/]+)\.py`\s*\|[^|]*\|([^|]*)\|", re.MULTILINE)


def check_entry_points() -> list:
    """Each "four legs" row's entry points must exist in its module."""
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    start = text.find("## The four legs")
    if start < 0:
        return ["docs/ARCHITECTURE.md: missing 'The four legs' section"]
    end = text.find("\n## ", start + 1)
    rows = _LEG_ROW.findall(text[start:end if end > 0 else len(text)])
    if not rows:
        return ["docs/ARCHITECTURE.md: 'The four legs' table has no rows"]
    errors = []
    for path, cell in rows:
        module = importlib.import_module(path.replace("/", "."))
        errors += _unresolved("docs/ARCHITECTURE.md", module,
                              re.findall(r"`([\w.]+)`", cell))
    return errors


_ROWREP_REF = re.compile(r"`rowrep\.([\w.]+)")


def check_rowrep_refs() -> list:
    """Every backticked ``rowrep.<name>`` in ``docs/*.md`` must exist in
    ``repro.nn.rowrep``."""
    module = importlib.import_module("repro.nn.rowrep")
    errors = []
    for md in sorted((ROOT / "docs").glob("*.md")):
        errors += _unresolved(_display(md), module,
                              _ROWREP_REF.findall(md.read_text()))
    return errors


def _unresolved(where: str, module, names) -> list:
    """An error for each dotted name that is not an attribute of
    ``module``."""
    errors = []
    for name in names:
        obj = module
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            errors.append(f"{where}: entry point `{name}` is not an "
                          f"attribute of {module.__name__}")
    return errors


_CONTRACT_ITEM = re.compile(r"^- `(\w+)`", re.MULTILINE)


def check_attack_contract() -> list:
    """Each "Adding an attack" list item must name a method of
    ``Attack`` or of a class that defines it (a subclass)."""
    from repro.attacks.base import Attack
    import repro.attacks  # noqa: F401 - loads every attack subclass
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    start = text.find("## Adding an attack")
    if start < 0:
        return ["docs/ARCHITECTURE.md: missing 'Adding an attack' section"]
    end = text.find("\n## ", start + 1)
    names = _CONTRACT_ITEM.findall(text[start:end if end > 0 else len(text)])
    if not names:
        return ["docs/ARCHITECTURE.md: 'Adding an attack' lists no methods"]
    classes, todo = [], [Attack]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return [f"docs/ARCHITECTURE.md: attack method `{name}` is defined on "
            "neither Attack nor any subclass"
            for name in names
            if not any(name in vars(cls) for cls in classes)]


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

    print("== entry points (four legs, rowrep) ==")
    entry_errors = check_entry_points() + check_rowrep_refs()
    for err in entry_errors:
        print(f"  {err}")
    print(f"  {len(entry_errors)} unresolved entry points")

    print("== attack contract ==")
    contract_errors = check_attack_contract()
    for err in contract_errors:
        print(f"  {err}")
    print(f"  {len(contract_errors)} undefined attack methods")
    return 1 if (failed or errors or op_errors or entry_errors
                 or contract_errors) else 0


if __name__ == "__main__":
    sys.exit(main())
