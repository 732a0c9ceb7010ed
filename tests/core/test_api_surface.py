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
named by a call somewhere in ``src/``, only the master's one recovery
pass sends the servers' recovery method, only a fence runs that pass, no
recovery filter lists survivors, and only a live commit sends
``txn_apply``.  And one layer into the client: only
the ring module moves a proxy ring's cursor, only the metadata module writes
the metadata map, only the read module builds an RDMA READ, and only a
master shard's own object writes its lease deadline, term floor, fail
streak and active connection.  And one layer into the server: only the
proxy drain writes a ring's drain state and its writers' state, and only
the intent store writes its index or computes an offset in the intent
region.  And one
layer into the master: only a server handle writes its lock indices,
quarantine and scrubber, only the directory appends to the location log,
and only the leases write lease and phi state.  One layer
below the RPC methods, an RPC server waits for nothing: only
``RpcServer.serve`` sets a completion queue's consumer, and the server
spawns no loop, only one handler per request.
"""

import ast
import inspect
import re
from pathlib import Path

import repro.apps
from repro.core.client import GengarClient
from repro.core.driver import _VERBS, _Verb

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
    assert len(_public_client_names()) == 19


def test_every_public_client_name_has_a_caller():
    sources = _callers(excluding=[inspect.getfile(GengarClient)])
    golden_ops = set(re.findall(r'"op\.(\w+)"', OP_GOLDEN.read_text()))
    uncalled = {
        name for name in _public_client_names()
        if name not in golden_ops and not re.search(rf"\.{name}\b", sources)
    }
    assert uncalled == set()


def test_every_data_verb_names_the_shards_whose_leases_it_tests():
    """A data verb's precheck tests the leases of the master shards it
    touches, and no shard is assumed: a verb without ``lease_shards`` would
    run unfenced, and a default would test one shard for every verb."""
    assert _Verb._field_defaults["lease_shards"] is None
    unnamed = {name for name, verb in _VERBS.items()
               if verb.data and verb.lease_shards is None}
    assert unnamed == set()


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


def _senders(path, method):
    """``file:function`` of every call in ``path`` that names RPC
    ``method`` among its arguments (its registration aside)."""
    hits = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) != "register"
              and any(isinstance(arg, ast.Constant) and arg.value == method
                      for arg in node.args)):
            hits.append(f"{path.relative_to(SRC)}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return hits


def test_only_the_recovery_pass_sends_the_recovery_method():
    """Lease expiry, restart eviction and the post-failover orphan sweep
    share one recovery pass, which sends each server one ``recover_dead``
    per fragment and per chunk of lock indices through one sender (the
    sweep's holders call goes through it too).  A second sender would be
    a second sweep, and with it the per-object recovery loop this
    replaced."""
    senders = []
    for path in sorted(SRC.rglob("*.py")):
        senders += _senders(path, "recover_dead")
    assert senders == ["core/recovery.py:_send_loads"]
    # The sender's callers: the pass (its fragment loads, then its lock
    # loads) and the sweep's holders call, which names nobody dead.
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        callers += _callers_of(path, "_send_loads")
    assert sorted(callers) == ["_orphan_lock_sweep", "_recover_dead",
                               "_recover_dead"]
    sweep = next(node for node in ast.walk(ast.parse(
        (SRC / "core" / "recovery.py").read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name == "_orphan_lock_sweep")
    loads = [ast.unparse(call.args[0]) for call in ast.walk(sweep)
             if isinstance(call, ast.Call)
             and getattr(call.func, "attr", None) == "_send_loads"]
    assert loads == ["self._lock_loads({'owners': {}, 'clients': []})"]


def _callers_of(path, method):
    """The functions in ``path`` that call ``self.<method>``."""
    callers = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callers += [node.name for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "attr", None) == method]
    return callers


def test_only_a_fence_runs_the_recovery_pass():
    """There is one notion of death: lease expiry, restart eviction and
    the orphan sweep all fence the dead through ``_fence_and_recover``
    (epoch bumped and journaled first), and it alone runs the pass."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        callers += _callers_of(path, "_recover_dead")
    assert callers == ["_fence_and_recover"]


def test_no_recovery_filter_lists_the_survivors():
    """The recovery filter is ``owners`` plus ``clients``: no dict literal
    under ``src/`` has an ``exclude`` key (a survivor list snapshotted
    before a pass is the second notion of death this replaced)."""
    keyed = []
    for path in sorted(SRC.rglob("*.py")):
        keyed += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Dict)
                  and any(isinstance(key, ast.Constant) and key.value == "exclude"
                          for key in node.keys)]
    assert keyed == []


def test_only_a_live_commit_sends_the_apply_method():
    """A live client's commit is the one sender of ``txn_apply``: the
    master rolls a dead client's intents forward inside ``recover_dead``,
    behind the retired rings' drains, so a second sender would be the
    roll-forward path a staged frame could overwrite."""
    senders = []
    for path in sorted(SRC.rglob("*.py")):
        senders += _senders(path, "txn_apply")
    assert senders == ["txn/manager.py:_commit_inner"]


#: A ring's cursor and what the client knows of its drained counter.
_RING_CURSOR = {"written", "drained_known", "pruned"}


def _assigned(path, attrs):
    """``file:line .attr`` of every assignment in ``path`` whose target
    names one of ``attrs`` (``x.attr = ...``, ``x.attr[k] += ...``), and of
    every call that empties or mutates one in place (``x.attr.pop(k)``)."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr in attrs:
                    hits.append(f"{path.relative_to(SRC)}:{leaf.lineno} "
                                f".{leaf.attr}")
    return hits


_MUTATORS = {"pop", "clear", "update", "setdefault", "popitem"}


def test_only_the_ring_module_moves_a_ring_cursor():
    """Nothing under ``src/`` but ``core/ring.py`` assigns a ring's
    ``written``, ``drained_known`` or ``pruned``: a second place that
    reserves seqs (as the torn-slot injector once did) or learns the
    counter would have to repeat the ring's waits and identity check."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core" / "ring.py":
            continue
        offenders += _assigned(path, _RING_CURSOR)
    assert offenders == []


#: The client's metadata map and per-server epochs, by every name they
#: have had.
_META_STATE = {"_meta_cache", "_meta_epoch", "_srv_epoch", "_by_gaddr",
               "_srv_epochs"}


def test_only_the_metadata_module_writes_the_metadata_map():
    """Nothing under ``src/`` but ``core/metacache.py`` writes the
    client's metadata map or bumps a server's epoch: a second writer would
    have to repeat the map's pairing of entry and epoch."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "core" / "metacache.py":
            offenders += _assigned(path, _META_STATE)
    assert offenders == []


def _builds_a_read(path):
    """``file:line`` of every ``WorkRequest(opcode=Opcode.RDMA_READ, ...)``
    in ``path``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "WorkRequest"):
            continue
        opcodes = node.args[:1] + [k.value for k in node.keywords
                                   if k.arg == "opcode"]
        if any(getattr(op, "attr", None) == "RDMA_READ" for op in opcodes):
            hits.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return hits


def test_only_the_read_module_builds_an_rdma_read():
    """Nothing under ``core/`` or ``txn/`` but ``core/reads.py`` builds an
    RDMA READ: every READ goes out through the one lane deal, and every
    object read through the one cache-or-home choice and verdict."""
    offenders = []
    for package in ("core", "txn"):
        for path in sorted((SRC / package).rglob("*.py")):
            if path != SRC / "core" / "reads.py":
                offenders += _builds_a_read(path)
    assert offenders == []


def _scoped(path, match):
    """``(scope, node)`` for every node of ``path`` that ``match`` accepts,
    in source order; the scope is ``Class.method`` (a function nested in a
    method counts as the method) or the function's name."""
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if "." not in scope:
                scope = f"{scope}.{node.name}" if scope else node.name
        elif match(node):
            hits.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return hits


def _sets_consumer(node):
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Attribute) and t.attr == "consumer"
               for t in targets)


def test_only_the_rpc_server_sets_a_completion_consumer():
    """A completion queue with a consumer queues nothing, so a second
    setter would take completions away from whoever waits on that queue.
    The queue's own default is the only other assignment, and it is None."""
    setters = []
    for path in sorted(SRC.rglob("*.py")):
        setters += [(f"{path.relative_to(SRC)}:{scope}", node)
                    for scope, node in _scoped(path, _sets_consumer)]
    assert [where for where, _ in setters] == [
        "rdma/cq.py:CompletionQueue.__init__", "rdma/rpc.py:RpcServer.serve"]
    default = setters[0][1].value
    assert isinstance(default, ast.Constant) and default.value is None


def _is_spawn(node):
    return isinstance(node, ast.Call) and "spawn" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_the_rpc_server_spawns_no_loop():
    """A request is consumed in the step that delivers its completion: the
    server spawns one handler per request and nothing per connection, and
    none of its methods has a ``while`` loop.  The only loop ``rdma/rpc.py`` spawns is the
    client's reply demux (consuming replies in place would move virtual
    time: a woken caller takes an earlier place in its instant)."""
    path = SRC / "rdma" / "rpc.py"
    spawned = [f"{scope}: {ast.unparse(node.args[0].func)}"
               for scope, node in _scoped(path, _is_spawn)]
    assert spawned == ["RpcServer.serve: self._handle",
                       "RpcClient.call: self._demux_loop"]
    loops = [scope for scope, _ in _scoped(path, lambda node: isinstance(
        node, ast.While)) if scope.startswith("RpcServer.")]
    assert loops == []


#: Calls that change a container in place.
_IN_PLACE = _MUTATORS | {"append", "extend", "insert", "remove", "add",
                         "discard"}


def _writes(node, attrs):
    """Whether ``node`` writes an attribute named in ``attrs``: assigns it
    (``x.attr = ...``, ``x.attr[k] += ...``), deletes from it, or changes
    it in place (``x.attr.append(...)``)."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in _IN_PLACE):
        targets = [node.func.value]
    else:
        return False
    return any(isinstance(leaf, ast.Attribute) and leaf.attr in attrs
               for target in targets for leaf in ast.walk(target))


def _writers(attrs):
    """``file:scope`` of every write under ``src/`` to one of ``attrs``."""
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        writers |= {f"{path.relative_to(SRC)}:{scope}" for scope, _ in
                    _scoped(path, lambda node: _writes(node, attrs))}
    return writers


def test_only_the_server_handle_writes_its_extents():
    """Nothing under ``src/`` but ``ServerHandle`` writes a server's lock
    free list, lock high-water mark, quarantine or scrubber: a second
    writer would have to repeat the extent invariant's hand-overs (reset,
    reshard, replay, scrub) that ``ServerHandle.check`` audits."""
    writers = _writers({"_lock_free", "_lock_next", "quarantine", "scrubber"})
    assert writers and {w for w in writers
                        if not w.startswith("core/allocator.py:ServerHandle.")
                        } == set()


def test_only_the_directory_appends_to_the_location_log():
    """Nothing under ``src/`` but ``core/directory.py`` appends to a
    shard's location log or moves its head: a cache-location change the
    directory makes logs itself, so none can go unlogged."""
    writers = _writers({"_loc_log", "_loc_head", "head"})
    assert writers and {w for w in writers
                        if not w.startswith("core/directory.py:Directory.")
                        } == set()


def test_only_the_leases_write_lease_and_phi_state():
    """Nothing under ``src/`` but ``Leases`` writes a client's lease expiry,
    heartbeat history or suspicion, by any name they have had: a restart
    replaces the leases whole, and a fence forgets its clients through
    them."""
    writers = _writers({"_leases", "_hb_last", "_hb_intervals", "_suspected",
                        "expiry", "hb_last", "hb_intervals", "suspected"})
    assert writers and {w for w in writers
                        if not w.startswith("core/recovery.py:Leases.")
                        } == set()


def test_only_the_master_shard_writes_its_lease_term_and_connection():
    """Nothing under ``src/`` but ``_MasterShard`` writes a master shard's
    lease deadline, term floor, fail streak or active connection, by any
    name they have had: a second writer is how per-shard state came to
    follow shard 0."""
    writers = _writers({"lease_deadline", "term_floor", "fail_streak",
                        "active_rpc", "lease_deadlines", "_master_terms",
                        "_master_fail_streaks", "_shard_active", "master_rpc"})
    assert writers and {w for w in writers
                        if not w.startswith("core/client.py:_MasterShard.")
                        } == set()


#: A server ring's drain state and the drain writers' state, by every name
#: they have had.
_DRAIN_STATE = {"seq", "drained", "done", "handed", "lost", "idle", "parked",
                "_ready", "_work", "_applies", "_writers", "_applying",
                "_rings", "_drain_ready", "_drain_work", "_drain_writes",
                "_drain_writers", "_drain_proc_by_client", "_ring_spans",
                "_drain_gate"}


def test_only_the_proxy_drain_writes_ring_and_writer_state():
    """Nothing under ``src/`` but ``ProxyDrain`` writes a server ring's
    seq, drained prefix, finished set,
    hand-off count, lost flag, idle wait or parked group, or the overlapped
    writers' queues and counts: a second writer would have to repeat the
    prefix rule of the drained counter and the per-object apply order."""
    writers = _writers(_DRAIN_STATE)
    assert writers and {w for w in writers
                        if not w.startswith("core/server.py:ProxyDrain.")
                        } == set()


#: The intent store's index, and what computes an offset in the region,
#: by every name they have had.
_INTENT_INDEX = {"_slot_of", "_intent_index"}
_INTENT_OFFSET = {"intent_base", "_slot_offset", "_length_offset",
                  "_intent_offset", "_intent_length_offset"}


def test_only_the_intent_store_writes_its_index_or_computes_an_offset():
    """Nothing under ``src/`` but ``IntentStore`` writes the txn-id -> slot
    index or names the region's base or offset helpers: the index is a
    cache of the NVM length table, and a second reader of the region
    would bypass the rebuild that makes it one."""
    writers = _writers(_INTENT_INDEX)
    users = set()
    for path in sorted(SRC.rglob("*.py")):
        users |= {f"{path.relative_to(SRC)}:{scope}" for scope, _ in _scoped(
            path, lambda node: isinstance(node, ast.Attribute)
            and node.attr in _INTENT_OFFSET)}
    for found in (writers, users):
        assert found and {w for w in found
                          if not w.startswith("core/server.py:IntentStore.")
                          } == set()
