"""The performance ledger files host cost by source file: its tracer maps
each ``core/`` module to a layer (``_CORE_MODULES`` in
``benchmarks/ledger/tracer.py``) and files every other one under ``other``.
A move of the server's drain or intent store to a module that map does not
name would hide their cost from ``core.server`` without failing anything,
so the mapping of the files that define them is pinned here.  The ledger is
only read, never imported."""

import ast
import inspect
from pathlib import Path

from repro.core.server import IntentStore, MemoryServer, ProxyDrain

_LEDGER_TRACER = (Path(__file__).resolve().parents[2]
                  / "benchmarks" / "ledger" / "tracer.py")


def _core_modules() -> dict:
    """The tracer's ``_CORE_MODULES`` literal: file name -> layer."""
    tree = ast.parse(_LEDGER_TRACER.read_text())
    (value,) = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["_CORE_MODULES"]]
    return ast.literal_eval(value)


def test_the_server_objects_are_filed_under_the_server_layer():
    core = _core_modules()
    for cls in (ProxyDrain, IntentStore, MemoryServer):
        path = Path(inspect.getfile(cls))
        assert path.parent.name == "core", cls.__name__
        assert core.get(path.name) == "core.server", cls.__name__
