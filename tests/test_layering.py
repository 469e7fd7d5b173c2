"""The cluster modules talk to each other through public names only.

Every read of ``x._name`` in ``repro/cluster/*.py`` and in
``repro/service/checkpoint.py`` must be on ``self`` or ``cls``: an
object reaching into another's private state is how per-shard facts
ended up with two owners.  Dunders are not private state.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
MODULES = sorted((SRC / "cluster").glob("*.py")) + [
    SRC / "service" / "checkpoint.py"]


def private_reads(source):
    """``(line, expression)`` of every ``x._name`` in ``source`` with
    ``x`` other than ``self`` / ``cls``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self",
                                                                  "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_scan_covers_the_cluster_package():
    names = {path.name for path in MODULES}
    assert {"coordinator.py", "migration.py", "transport.py",
            "placement.py", "checkpoint.py"} <= names


def test_the_scan_sees_a_reach_in():
    source = ("def f(self, backend):\n"
              "    return (backend._x, self._y, self.front._z,\n"
              "            backend.__dict__, backend.x)\n")
    assert private_reads(source) == [(2, "backend._x"),
                                     (2, "self.front._z")]


def test_no_private_reads_across_objects():
    hits = [f"{path.relative_to(SRC)}:{line}: {expression}"
            for path in MODULES
            for line, expression in private_reads(path.read_text())]
    assert hits == []
