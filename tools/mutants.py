"""Run the mutation catalogue: each mutant is one small fault in the source,
and the tests it names must fail on it.

    python tools/mutants.py              # run every mutant
    python tools/mutants.py ID [ID ...]  # run the named mutants
    python tools/mutants.py --check      # only check the catalogue

The catalogue, `tools/mutants.json`, is a list of entries:

    {"id": "...", "origin": "the change whose code it breaks",
     "file": "src/tiersim/core.py",
     "old": "text occurring exactly once in the file", "new": "its fault",
     "tests": ["tests/test_core.py::TestClass::test_name", ...]}

For each mutant the tree is copied to a temporary directory, `old` is
replaced by `new`, and pytest runs the named tests there. The mutant is
`killed` when they fail and `survived` when they pass; `error` means pytest
could not run them. Needs nothing beyond pytest. Exits 1 unless every
mutant run is killed.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
# What a mutant run needs: the package, its tests and the pytest settings.
COPIED = ("src", "tests", "pyproject.toml")


def load(path=CATALOGUE) -> list:
    with open(path) as fh:
        return json.load(fh)


def _defines(path: Path, names: list) -> bool:
    """Whether the test module at `path` defines the class and function
    path `names` (a parametrized id's `[...]` dropped)."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = getattr(found[0], "body", [])
    return True


def problems(entries, root=ROOT) -> list:
    """What is wrong with the catalogue: an id used twice, an `old` text
    that does not occur exactly once in its file, a `new` text equal to it,
    or a named test that its module does not define."""
    out = []
    seen = set()
    for entry in entries:
        ident = entry["id"]
        if ident in seen:
            out.append(f"{ident}: id used twice")
        seen.add(ident)
        source = (root / entry["file"]).read_text()
        hits = source.count(entry["old"])
        if hits != 1:
            out.append(f"{ident}: `old` occurs {hits} times in {entry['file']}")
        if entry["new"] == entry["old"]:
            out.append(f"{ident}: `new` equals `old`")
        if not entry["tests"]:
            out.append(f"{ident}: names no test")
        for test in entry["tests"]:
            module, _, rest = test.partition("::")
            names = rest.split("[", 1)[0].split("::")
            path = root / module
            if not rest or not path.is_file() or not _defines(path, names):
                out.append(f"{ident}: no test {test}")
    return out


def run_mutant(entry, root=ROOT) -> str:
    """Apply one mutant to a copy of the tree and run its tests there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)
        target = tree / entry["file"]
        target.write_text(target.read_text().replace(entry["old"],
                                                     entry["new"], 1))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", "addopts=", *entry["tests"]],
            cwd=tree, env=env, capture_output=True, text=True)
    # pytest exits 1 when tests failed and 0 when all passed; anything else
    # (a collection error, no test found) says nothing about the mutant.
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    entries = load()
    found = problems(entries)
    for problem in found:
        print(f"catalogue: {problem}")
    if found:
        return 1
    if args == ["--check"]:
        print(f"catalogue: {len(entries)} mutants, well-formed")
        return 0
    if args:
        unknown = set(args) - {entry["id"] for entry in entries}
        if unknown:
            print(f"unknown mutant ids: {', '.join(sorted(unknown))}")
            return 1
        entries = [entry for entry in entries if entry["id"] in args]
    outcomes = []
    for entry in entries:
        outcome = run_mutant(entry)
        outcomes.append(outcome)
        print(f"{outcome:8} {entry['id']}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
