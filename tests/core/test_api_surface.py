"""The public API is a budget, like the option surface.

A client method or an app export that nothing runs is code every refactor
has to carry and every reader has to learn, so the number of public
``GengarClient`` names is pinned and each public name must have a caller
outside the code that defines it:

* the rest of ``src/`` names it (a client name as an attribute, an app
  export by name; ``repro.apps``' own re-export does not count), or
* an example under ``examples/`` does, or
* for a client verb, its ``op.<verb>`` span is in the op-observables
  golden, so a pinned scenario runs it.

Tests do not count as callers: a path only its own tests run is a path
nothing needs.  The same holds one layer down, for RPC methods: every
method a master, server or bench rig registers on an ``RpcServer`` must be
named by a call somewhere in ``src/``.
"""

import inspect
import re
from pathlib import Path

import repro.apps
from repro.core.client import GengarClient

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
EXAMPLES = REPO / "examples"
OP_GOLDEN = REPO / "tests" / "data" / "op_observables_golden.json"


def _callers(*, excluding) -> str:
    """Every module under ``src/repro`` but ``excluding``, plus the examples."""
    skip = {Path(p).resolve() for p in excluding}
    files = [p for p in sorted(SRC.rglob("*.py")) if p.resolve() not in skip]
    files += sorted(EXAMPLES.glob("*.py"))
    return "\n".join(p.read_text() for p in files)


def _public_client_names() -> set:
    return {n for n in dir(GengarClient) if not n.startswith("_")}


def test_public_client_name_count_is_pinned():
    # Raising this needs a caller that exists today (not a test); lowering
    # it is always welcome.
    assert len(_public_client_names()) == 20


def test_every_public_client_name_has_a_caller():
    sources = _callers(excluding=[inspect.getfile(GengarClient)])
    golden_ops = set(re.findall(r'"op\.(\w+)"', OP_GOLDEN.read_text()))
    uncalled = {
        name for name in _public_client_names()
        if name not in golden_ops and not re.search(rf"\.{name}\b", sources)
    }
    assert uncalled == set()


def test_every_app_export_has_a_caller():
    uncalled = set()
    for name in repro.apps.__all__:
        home = inspect.getfile(getattr(repro.apps, name))
        sources = _callers(excluding=[home, repro.apps.__file__])
        if not re.search(rf"\b{name}\b", sources):
            uncalled.add(name)
    assert uncalled == set()


#: An RPC method's registration: ``rpc.register("name", ...)`` or an entry
#: of a handler table (``"name": self._handle_name``).
_REGISTRATION = re.compile(
    r'\.register\(\s*"(\w+)"|^\s*"(\w+)":\s*self\._handle_\w+', re.M)


def test_every_registered_rpc_method_is_called():
    text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    registered = {a or b for a, b in _REGISTRATION.findall(text)}
    assert {"gmalloc", "promote", "scrub"} <= registered
    # A caller names the method among a call's arguments, directly
    # (``rpc.call("demote", ...)``) or through a wrapper
    # (``_fenced_call(handle, "scrub", ...)``); the registration itself
    # does not count.
    rest = _REGISTRATION.sub("", text)
    uncalled = {
        name for name in registered
        if not re.search(rf'\w\([^()]*"{name}"', rest)
    }
    assert uncalled == set()
