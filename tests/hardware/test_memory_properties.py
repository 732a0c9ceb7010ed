"""Property tests: SparseBuffer vs a flat bytearray reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import SparseBuffer

CAPACITY = 512 * 1024  # spans many pages
PAGE = SparseBuffer.PAGE_SIZE

_write_op = st.tuples(
    st.integers(min_value=0, max_value=CAPACITY - 1),
    st.binary(min_size=1, max_size=5000),
)

# Small writes packed into four pages: most land past a page's held end
# (growing it over a gap) or below it, and some cross a page boundary.
_near_op = st.tuples(
    st.integers(min_value=0, max_value=4 * PAGE - 1),
    st.binary(min_size=1, max_size=300),
)


def _furthest(ends, offset, nbytes):
    """Record, per page, the furthest byte a write at ``offset`` reached."""
    last = offset + nbytes
    for page_no in range(offset // PAGE, (last - 1) // PAGE + 1):
        reach = min(last, (page_no + 1) * PAGE) - page_no * PAGE
        ends[page_no] = max(ends.get(page_no, 0), reach)


@given(ops=st.lists(_write_op, max_size=40))
@settings(max_examples=80, deadline=None)
def test_sparse_buffer_equals_flat_bytearray(ops):
    sparse = SparseBuffer(CAPACITY)
    flat = bytearray(CAPACITY)
    for offset, data in ops:
        data = data[: CAPACITY - offset]
        if not data:
            continue
        sparse.write(offset, data)
        flat[offset : offset + len(data)] = data
    # Compare at page boundaries, interior spans, and random windows.
    for offset, length in [
        (0, 100),
        (PAGE - 50, 100),          # page-straddling read
        (PAGE, PAGE),              # exact page
        (CAPACITY - 77, 77),       # tail
        (0, CAPACITY),             # everything
    ]:
        assert sparse.read(offset, length) == bytes(flat[offset : offset + length])


@given(ops=st.lists(_near_op, min_size=1, max_size=30),
       reach=st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_reads_around_held_ends_equal_flat_bytearray(ops, reach):
    """After every write, reads that straddle each page's held end, each page
    boundary, and a page nothing wrote see what the flat model holds."""
    sparse = SparseBuffer(CAPACITY)
    flat = bytearray(CAPACITY)
    ends = {}
    for offset, data in ops:
        sparse.write(offset, data)
        flat[offset : offset + len(data)] = data
        _furthest(ends, offset, len(data))
        windows = [(page_no * PAGE + end - reach, 2 * reach)
                   for page_no, end in ends.items()]
        windows += [(b * PAGE - reach, 2 * reach) for b in range(1, 6)]
        windows.append((6 * PAGE + 7, reach))  # a page nothing wrote
        for start, length in windows:
            start = max(0, start)
            assert sparse.read(start, length) == bytes(flat[start : start + length])
    assert sparse.resident_bytes == sum(ends.values())


@given(
    offset=st.integers(min_value=0, max_value=CAPACITY - 1),
    data=st.binary(min_size=1, max_size=3 * 64 * 1024),
)
@settings(max_examples=60, deadline=None)
def test_single_write_reads_back_exactly(offset, data):
    data = data[: CAPACITY - offset]
    sparse = SparseBuffer(CAPACITY)
    sparse.write(offset, data)
    assert sparse.read(offset, len(data)) == data
    # Bytes just outside the write remain zero.
    if offset > 0:
        assert sparse.read(offset - 1, 1) == b"\x00"
    end = offset + len(data)
    if end < CAPACITY:
        assert sparse.read(end, 1) == b"\x00"


@given(writes=st.lists(_write_op, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_resident_bytes_only_grow_with_touched_pages(writes):
    """Host bytes held never shrink, and never exceed, per touched page, the
    furthest byte written into it."""
    sparse = SparseBuffer(CAPACITY)
    ends = {}
    held = 0
    for offset, data in writes:
        data = data[: CAPACITY - offset]
        if not data:
            continue
        sparse.write(offset, data)
        _furthest(ends, offset, len(data))
        assert held <= sparse.resident_bytes <= sum(ends.values())
        held = sparse.resident_bytes
