"""Property tests: SparseBuffer vs a flat bytearray reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import SparseBuffer

CAPACITY = 512 * 1024  # spans many pages

_write_op = st.tuples(
    st.integers(min_value=0, max_value=CAPACITY - 1),
    st.binary(min_size=1, max_size=5000),
)


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
    page = SparseBuffer.PAGE_SIZE
    for offset, length in [
        (0, 100),
        (page - 50, 100),          # page-straddling read
        (page, page),              # exact page
        (CAPACITY - 77, 77),       # tail
        (0, CAPACITY),             # everything
    ]:
        assert sparse.read(offset, length) == bytes(flat[offset : offset + length])


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
    sparse = SparseBuffer(CAPACITY)
    touched_pages = set()
    for offset, data in writes:
        data = data[: CAPACITY - offset]
        if not data:
            continue
        sparse.write(offset, data)
        first = offset // SparseBuffer.PAGE_SIZE
        last = (offset + len(data) - 1) // SparseBuffer.PAGE_SIZE
        touched_pages.update(range(first, last + 1))
    assert sparse.resident_bytes == len(touched_pages) * SparseBuffer.PAGE_SIZE
