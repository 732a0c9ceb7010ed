"""Shadow-model fuzzing: the pool vs a plain-dict reference.

A random operation sequence (alloc / free / write / partial write / read /
partial read / sync / batch) is applied both to a real Gengar deployment and
to an in-memory shadow model.  Any divergence — a stale read after sync, a
lost write, a misplaced partial update, cache/proxy interaction bugs — fails
the property.  This is the test that would catch protocol regressions that
no targeted unit test anticipates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config

_SIZES = (64, 256, 1024, 4096)


class ShadowModel:
    """Reference semantics: a dict of bytearrays."""

    def __init__(self):
        self.objects = {}

    def alloc(self, handle, size):
        self.objects[handle] = bytearray(size)

    def free(self, handle):
        del self.objects[handle]

    def write(self, handle, offset, data):
        self.objects[handle][offset : offset + len(data)] = data

    def read(self, handle, offset, length):
        return bytes(self.objects[handle][offset : offset + length])


def _apply_ops(pool, sim, client, ops):
    """Run one op sequence against the pool and the shadow, comparing reads."""
    shadow = ShadowModel()
    handles = {}  # handle -> (gaddr, size)

    def driver(sim):
        next_handle = 0
        for op in ops:
            kind = op[0]
            if kind == "alloc":
                size = _SIZES[op[1] % len(_SIZES)]
                gaddr = yield from client.gmalloc(size)
                handles[next_handle] = (gaddr, size)
                shadow.alloc(next_handle, size)
                next_handle += 1
            elif not handles:
                continue
            else:
                handle = sorted(handles)[op[1] % len(handles)]
                gaddr, size = handles[handle]
                if kind == "write":
                    seed_byte = op[2] % 256
                    data = bytes([seed_byte]) * size
                    yield from client.gwrite(gaddr, data)
                    shadow.write(handle, 0, data)
                elif kind == "partial_write":
                    offset = op[2] % size
                    length = max(1, min(size - offset, op[3] % 97))
                    data = bytes([(op[2] + op[3]) % 256]) * length
                    yield from client.gwrite(gaddr, data, offset=offset)
                    shadow.write(handle, offset, data)
                elif kind == "read":
                    got = yield from client.gread(gaddr)
                    want = shadow.read(handle, 0, size)
                    assert got == want, f"full read diverged on handle {handle}"
                elif kind == "partial_read":
                    offset = op[2] % size
                    length = max(1, min(size - offset, op[3] % 131))
                    got = yield from client.gread(gaddr, offset=offset,
                                                  length=length)
                    want = shadow.read(handle, offset, length)
                    assert got == want, (
                        f"partial read diverged on handle {handle} "
                        f"[{offset}:{offset + length}]"
                    )
                elif kind == "sync":
                    yield from client.gsync()
                elif kind == "free":
                    yield from client.gfree(gaddr)
                    shadow.free(handle)
                    del handles[handle]
        # Final full validation after draining everything.
        yield from client.gsync()
        for handle in sorted(handles):
            gaddr, size = handles[handle]
            got = yield from client.gread(gaddr)
            assert got == shadow.read(handle, 0, size), (
                f"final state diverged on handle {handle}"
            )

    pool.run(driver(sim))


_op = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 3)),
    st.tuples(st.just("write"), st.integers(0, 30), st.integers(0, 255)),
    st.tuples(st.just("partial_write"), st.integers(0, 30),
              st.integers(0, 4095), st.integers(1, 200)),
    st.tuples(st.just("read"), st.integers(0, 30)),
    st.tuples(st.just("partial_read"), st.integers(0, 30),
              st.integers(0, 4095), st.integers(1, 200)),
    st.tuples(st.just("sync"), st.integers(0, 30)),
    st.tuples(st.just("free"), st.integers(0, 30)),
)


@given(ops=st.lists(_op, min_size=1, max_size=40), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_pool_matches_shadow_model(ops, seed):
    sim, pool = build_pool(seed=seed, num_servers=2, num_clients=1,
                           max_events=FUZZ_MAX_EVENTS)
    _apply_ops(pool, sim, pool.clients[0], [("alloc", 0)] + ops)


@given(ops=st.lists(_op, min_size=1, max_size=40), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_pool_matches_shadow_model_nvm_direct(ops, seed):
    """Same property on the baseline config (no cache, no proxy)."""
    sim, pool = build_pool(
        seed=seed, num_servers=2, num_clients=1,
        config=fast_config(enable_cache=False, enable_proxy=False),
        max_events=FUZZ_MAX_EVENTS,
    )
    _apply_ops(pool, sim, pool.clients[0], [("alloc", 0)] + ops)


@given(ops=st.lists(_op, min_size=1, max_size=40), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_pool_matches_shadow_model_tiny_ring(ops, seed):
    """Aggressive backpressure: a 2-slot proxy ring must stay correct."""
    sim, pool = build_pool(
        seed=seed, num_servers=1, num_clients=1,
        config=fast_config(proxy_ring_slots=2),
        max_events=FUZZ_MAX_EVENTS,
    )
    _apply_ops(pool, sim, pool.clients[0], [("alloc", 0)] + ops)


def test_long_deterministic_fuzz_run():
    """One long randomized soak (fixed seed) across many epochs."""
    rng = random.Random(1234)
    ops = [("alloc", 0), ("alloc", 1), ("alloc", 2)]
    for _ in range(300):
        kind = rng.choice(["write", "partial_write", "read", "partial_read",
                           "sync", "alloc", "free"])
        ops.append((kind, rng.randrange(31), rng.randrange(4096),
                    rng.randrange(1, 200))[: {"alloc": 2, "write": 3,
                                              "read": 2, "sync": 2,
                                              "free": 2}.get(kind, 4)])
    sim, pool = build_pool(seed=77, num_servers=2, num_clients=1)
    _apply_ops(pool, sim, pool.clients[0], ops)
