"""Every library name feeds an artifact, a criterion or an oracle.

A top-level function or class, or a non-dunder method, of src/lowdisc
must occur as a word in src/lowdisc outside its own definition, or in
tests/test_acceptance.py. Occurrences inside a definition that fails
the rule do not count, so a name reached only from unreached code fails
too.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "lowdisc").glob("*.py"))
WORD = re.compile(r"\w+")


def _definitions():
    """(name, module, first line, last line) of each definition, 1-based
    and inclusive, decorators included."""
    out = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))]
            out += [(m.name, path.stem,
                     m.lineno - len(m.decorator_list), m.end_lineno)
                    for m in members]
    return out


def _occurrences():
    """word -> the (module, line) pairs where it occurs in src/lowdisc."""
    out = {}
    for path in SOURCES:
        for line, text in enumerate(path.read_text().splitlines(), 1):
            for word in WORD.findall(text):
                out.setdefault(word, []).append((path.stem, line))
    return out


def _unreached():
    definitions, occurs = _definitions(), _occurrences()
    acceptance = set(WORD.findall((TESTS / "test_acceptance.py").read_text()))

    def reached(d, dead):
        return any(not any(module == m and a <= line <= b
                           for _, m, a, b in [d, *dead])
                   for module, line in occurs[d[0]])

    dead = []
    while True:
        new = [d for d in definitions if d not in dead
               and d[0] not in acceptance
               and not reached(d, dead)]
        if not new:
            return dead
        dead += new


def test_every_library_name_is_reached():
    assert [f"{module}.{name}" for name, module, _, _ in _unreached()] == []

