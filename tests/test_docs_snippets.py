"""Execute every python snippet in the documentation tree.

``docs/architecture.md`` and ``docs/cookbook.md`` promise that their
code blocks run against the in-repo library.  This test extracts every
fenced ```python block and executes them *in file order within a
shared namespace per file* (the cookbook's later recipes reuse earlier
objects, exactly as a reader pasting them into one session would).
A snippet that raises — or an assertion inside one that fails — fails
the suite with the snippet's file, position, and first line in the
report.

``bash`` blocks are intentionally not executed (they are CLI mirrors of
python recipes already covered here and in the CI smoke steps).
``docs/paper_map.md``'s pod-fabric snippet runs here too — it pins the
block-vs-flat exactness claim live on every suite run.

Source anchors — ``src/…py:N``, and the short ``/ `:N``` form that
reuses the previous anchor's file — must land on a ``def`` or
``class`` line of the symbol the doc names: the defined name appears
as a word in a backticked span (other than an anchor) on the anchor's
line or the line before, so a reader following one lands on it.

Every fully qualified docstring cross-reference in ``src/repro``
(``:func:`repro.…```, ``:class:``, ``:meth:``, ...) must resolve by
import, as an API docs build would resolve it.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DOCS = ROOT / "docs"
DOC_FILES = ("architecture.md", "cookbook.md", "paper_map.md", "service.md")

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_ANCHOR = re.compile(r"`(src/[\w/]+\.py):(\d+)`|`:(\d+)`")
_SPAN = re.compile(r"`([^`]+)`")
_DEFINES = re.compile(r"(?:async\s+)?(?:def|class)\s+(\w+)")
_XREF = re.compile(r":(?:func|class|meth|attr|mod|exc|data):`~?(repro\.[\w.]+)`")


def python_snippets(name: str) -> list[str]:
    text = (DOCS / name).read_text()
    return [match.group(1) for match in _FENCE.finditer(text)]


def test_docs_tree_exists():
    for name in DOC_FILES:
        assert (DOCS / name).exists(), f"docs/{name} is missing"


def test_docs_have_snippets():
    # the two narrative docs must stay executable-example-driven
    assert len(python_snippets("architecture.md")) >= 3
    assert len(python_snippets("cookbook.md")) >= 8


@pytest.mark.parametrize("name", DOC_FILES)
def test_snippets_execute(name):
    snippets = python_snippets(name)
    if not snippets:
        pytest.skip(f"docs/{name} has no python snippets")
    namespace: dict = {"__name__": f"docs.{name}"}
    for index, snippet in enumerate(snippets):
        first_line = snippet.strip().splitlines()[0]
        try:
            exec(compile(snippet, f"docs/{name}[snippet {index}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"docs/{name} snippet {index} ({first_line!r}) failed: "
                f"{type(exc).__name__}: {exc}"
            )


def source_anchors() -> list[tuple[str, str, int, list[str]]]:
    """``(where, path, line, names)`` for every source anchor in
    ``docs/``; ``names`` are the backticked spans, anchors excepted, on
    the anchor's line and the line before."""
    anchors = []
    for doc in sorted(DOCS.glob("*.md")):
        previous = ""
        for number, text in enumerate(doc.read_text().splitlines(), 1):
            names = [
                span
                for span in _SPAN.findall(previous + "\n" + text)
                if not _ANCHOR.fullmatch(f"`{span}`")
            ]
            path = None
            for match in _ANCHOR.finditer(text):
                if match.group(1):
                    path, line = match.group(1), match.group(2)
                else:
                    assert path, f"{doc.name}:{number}: `:N` with no file before it"
                    line = match.group(3)
                anchors.append((f"{doc.name}:{number}", path, int(line), names))
            previous = text
    return anchors


def test_source_anchors_land_on_definitions():
    anchors = source_anchors()
    assert len(anchors) >= 40
    wrong = []
    for where, path, line, names in anchors:
        lines = (ROOT / path).read_text().splitlines()
        target = lines[line - 1].lstrip() if line <= len(lines) else ""
        defined = _DEFINES.match(target)
        if defined is None or not any(
            re.search(rf"\b{re.escape(defined.group(1))}\b", name)
            for name in names
        ):
            wrong.append(f"{where} -> {path}:{line}: {target!r}")
    assert not wrong, "\n".join(wrong)


def resolve(target: str, missing: object) -> object:
    """The object a dotted ``repro.…`` name refers to: the longest
    importable module prefix, then attribute lookups (``missing`` when
    one fails; a sentinel, since a class attribute may be ``None``)."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            found = getattr(found, name, missing)
        return found
    return missing


def test_docstring_cross_references_resolve():
    missing = object()
    checked, wrong = 0, []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        for match in _XREF.finditer(text):
            checked += 1
            if resolve(match.group(1), missing) is missing:
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(ROOT)}:{line}"
                wrong.append(f"{where}: {match.group(1)}")
    assert checked >= 200
    assert not wrong, "\n".join(wrong)
