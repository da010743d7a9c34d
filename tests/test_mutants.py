"""The mutation catalogue stays applicable: `tools/mutants.py` runs its
mutants; this only checks that each still targets code that exists and
names tests that exist. A refactor that moves targeted code updates the
catalogue."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalogue_is_well_formed():
    tool = load_tool()
    entries = tool.load()
    assert len(entries) >= 20
    assert tool.problems(entries) == []


def test_the_check_sees_a_stale_entry(tmp_path):
    tool = load_tool()
    entry = dict(tool.load()[0])
    stale = [{**entry, "id": "gone", "old": "no such text"},
             {**entry, "id": "twice", "old": "\n"},
             {**entry, "id": "no-test",
              "tests": ["tests/test_core.py::TestRun::test_no_such_test"]}]
    assert [p.split(":")[0] for p in tool.problems(stale)] == [
        "gone", "twice", "no-test"]
