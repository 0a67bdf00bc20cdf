"""Which statements of src/delpair the Tier-1 tests run.

Run from the repository root, on Python 3.12 or later:

    python tests/reach.py -q [more pytest arguments]

It registers a ``sys.monitoring`` (PEP 669) LINE callback that records each
line of ``src/delpair`` the first time it runs, and then runs pytest in this
same process, so tracing starts before ``conftest.py`` imports delpair.  It
then prints every statement in a function body, docstrings excluded, that
never ran.  Subprocess tests do not count: a statement that only a child
process runs reads as unrun.

``tests/unreached.txt`` lists the statements allowed to stay unrun.  An entry
is the statement's key, ``path:function:source text``, on one line, and its
reason, indented, on the next; the source text is the statement's first line.
The tool exits 1 when the tests fail, when an unrun statement is not listed,
or when a listed statement now runs.  Before Python 3.12 there is no
``sys.monitoring``, and it exits 2.  pytest does not collect this file.
"""
from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpair"
LISTED = Path(__file__).with_name("unreached.txt")


def statements(source: str) -> list[tuple[str, str, range]]:
    """(function, source text, lines) of every statement in a function body.

    The function is named by its qualified name, such as ``Frozen.__eq__``;
    docstrings and ``global`` or ``nonlocal`` declarations, which compile to
    no code, are left out.  A statement ran when one of its lines did: a
    simple statement's lines are all of its own, a compound one's those of
    its header, from its first decorator to the line before its body.
    """
    found = []

    def walk(body: list, scope: str, in_function: bool) -> None:
        for node in body:
            if in_function and not isinstance(node, (ast.Global, ast.Nonlocal)):
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                inner = getattr(node, "body", None)
                end = max(start, inner[0].lineno - 1) if inner else node.end_lineno
                text = ast.get_source_segment(source, node).split("\n", 1)[0]
                found.append((scope, text, range(start, end + 1)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{node.name}" if scope else node.name
                is_function = not isinstance(node, ast.ClassDef)
                body = node.body
                if is_function and ast.get_docstring(node, clean=False) is not None:
                    body = body[1:]
                walk(body, name, is_function)
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, ()), scope, in_function)
            for handler in getattr(node, "handlers", ()):
                walk(handler.body, scope, in_function)

    walk(ast.parse(source).body, "", False)
    return found


def unrun(path: str, source: str, ran: set[int]) -> list[tuple[int, str]]:
    """(first line, key) of each function-body statement of the module at
    ``path`` none of whose lines is in ``ran``."""
    return [(lines[0], f"{path}:{function}:{text}")
            for function, text, lines in statements(source) if ran.isdisjoint(lines)]


def compare(unrun_keys: list[str], listed_keys: list[str]) -> tuple[list[str], list[str]]:
    """(unrun statements the list lacks, listed statements that ran).

    A key names every statement with that text in that function, so a key
    listed k times allows k of them to stay unrun.
    """
    unrun_count, listed_count = Counter(unrun_keys), Counter(listed_keys)
    return (sorted((unrun_count - listed_count).elements()),
            sorted((listed_count - unrun_count).elements()))


def read_listed(text: str) -> list[str]:
    """The keys of an unreached list; raises ValueError on a key without
    exactly one reason line.  Blank lines and lines starting with # are skipped."""
    entries: list[list[str]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if not line[0].isspace():
            entries.append([line])
        elif entries and len(entries[-1]) == 1:
            entries[-1].append(line.strip())
        else:
            raise ValueError(f"line {number}: a reason line needs its own key line above it")
    missing = [key for key, *reason in entries if not reason]
    if missing:
        raise ValueError(f"no reason given for {missing[0]!r}")
    return [key for key, _ in entries]


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each module under PACKAGE,
    keyed by its path relative to ROOT."""
    import pytest

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    ran: dict[str, set[int]] = {}
    places: dict[str, set[int] | None] = {}     # code file name -> its line set, if ours

    def place(filename: str) -> set[int] | None:
        path = Path(filename).resolve()
        if not path.is_relative_to(PACKAGE):
            return None
        return ran.setdefault(path.relative_to(ROOT).as_posix(), set())

    def line(code, number: int):
        name = code.co_filename
        if name not in places:
            places[name] = place(name)
        lines = places[name]
        if lines is not None:
            lines.add(number)
        return mon.DISABLE

    mon.use_tool_id(tool, "delpair reach")
    mon.register_callback(tool, mon.events.LINE, line)
    mon.set_events(tool, mon.events.LINE)
    try:
        code = pytest.main(argv)
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return int(code), ran


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("error: reach.py needs sys.monitoring, which Python 3.12 added", file=sys.stderr)
        return 2
    try:
        listed = read_listed(LISTED.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"error: {LISTED.name}: {exc}", file=sys.stderr)
        return 1
    code, ran = run_traced(argv)
    total, missed = 0, []
    for module in sorted(PACKAGE.rglob("*.py")):
        path = module.relative_to(ROOT).as_posix()
        source = module.read_text(encoding="utf-8")
        total += len(statements(source))
        missed += [(path, first, key) for first, key in unrun(path, source, ran.get(path, set()))]
    print(f"\nreach: {total - len(missed)} of {total} statements in src/delpair function "
          f"bodies ran, {len(missed)} never ran; statements that only subprocess tests "
          f"run do not count")
    for path, first, key in missed:
        print(f"  {path}:{first}: {key.split(':', 2)[2]}")
    unlisted, stale = compare([key for _, _, key in missed], listed)
    for key in unlisted:
        print(f"not in {LISTED.name}: {key}")
    for key in stale:
        print(f"listed in {LISTED.name} but ran: {key}")
    if code != 0:
        print(f"error: pytest exited with code {code}", file=sys.stderr)
    return 1 if code != 0 or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
