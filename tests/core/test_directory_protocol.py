"""Unit tests for the directory, wire protocol, config, and layout carver."""

import pytest

from repro.core.addressing import make_gaddr
from repro.core.config import (
    CACHE_ONLY,
    DRAM_ONLY,
    FULL,
    NVM_DIRECT,
    PROXY_ONLY,
    GengarConfig,
)
from repro.core.directory import Directory, DirectoryError
from repro.core.layout import DramCarver, LayoutError
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    PROXY_HEADER_BYTES,
    lock_is_free,
    lock_is_write_locked,
    lock_reader_count,
    pack_cache_tag,
    pack_proxy_slot,
    proxy_payload_capacity,
    tag_matches,
    unpack_cache_tag,
    unpack_proxy_header,
)
from repro.sim.stats import Counter


# ---------------------------------------------------------------------------
# Directory
# ---------------------------------------------------------------------------
def test_directory_add_get_remove():
    d = Directory(Counter("master.location_logs"))
    rec = d.add(server_id=1, nvm_offset=4096, size=256, lock_idx=7)
    assert rec.gaddr == make_gaddr(1, 4096)
    assert d.get(rec.gaddr).size == 256
    assert rec.gaddr in d
    assert len(d) == 1
    removed = d.remove(rec.gaddr)
    assert removed.lock_idx == 7
    assert rec.gaddr not in d


def test_directory_duplicate_add_rejected():
    d = Directory(Counter("master.location_logs"))
    d.add(0, 0, 64, 0)
    with pytest.raises(DirectoryError):
        d.add(0, 0, 64, 1)


def test_directory_unknown_lookups():
    d = Directory(Counter("master.location_logs"))
    with pytest.raises(DirectoryError):
        d.get(123)
    with pytest.raises(DirectoryError):
        d.remove(123)
    assert d.lookup(123) is None


def test_directory_cache_state_machine():
    d = Directory(Counter("master.location_logs"))
    rec = d.add(0, 0, 512, 0)
    assert d.cached_bytes(0) == 0
    d.mark_cached(rec.gaddr, cache_offset=2048)
    assert d.get(rec.gaddr).cached
    assert d.get(rec.gaddr).cache_offset == 2048
    assert d.cached_bytes(0) == 512
    with pytest.raises(DirectoryError):
        d.mark_cached(rec.gaddr, 0)  # double promote
    d.mark_uncached(rec.gaddr)
    assert d.cached_bytes(0) == 0
    with pytest.raises(DirectoryError):
        d.mark_uncached(rec.gaddr)  # double demote


def test_directory_remove_cached_object_releases_accounting():
    d = Directory(Counter("master.location_logs"))
    rec = d.add(2, 64, 1024, 3)
    d.mark_cached(rec.gaddr, 0)
    d.remove(rec.gaddr)
    assert d.cached_bytes(2) == 0


def test_record_to_meta_roundtrip():
    d = Directory(Counter("master.location_logs"))
    rec = d.add(1, 128, 99, 5)
    meta = rec.to_meta()
    assert meta.gaddr == rec.gaddr
    assert meta.size == 99
    assert meta.server_id == 1
    assert meta.nvm_offset == 128
    assert meta.lock_idx == 5
    assert not meta.cached
    cached = meta.with_cache(True, 4096)
    assert cached.cached and cached.cache_offset == 4096
    assert cached.gaddr == meta.gaddr


# ---------------------------------------------------------------------------
# Protocol encodings
# ---------------------------------------------------------------------------
def test_proxy_slot_roundtrip():
    payload = b"payload-bytes"
    raw = pack_proxy_slot(0xABCDEF, 32, payload)
    assert len(raw) == PROXY_HEADER_BYTES + len(payload)
    gaddr, offset, length = unpack_proxy_header(raw)
    assert (gaddr, offset, length) == (0xABCDEF, 32, len(payload))
    assert raw[PROXY_HEADER_BYTES:] == payload


def test_proxy_payload_capacity():
    # The 16-byte header and the 8-byte commit word.
    assert proxy_payload_capacity(4096) == 4096 - 24 == 4096 - PROXY_HEADER_BYTES - 8


def test_cache_tag_roundtrip():
    raw = pack_cache_tag(make_gaddr(1, 64))
    assert len(raw) == CACHE_TAG_BYTES
    gaddr, flags = unpack_cache_tag(raw)
    assert gaddr == make_gaddr(1, 64)
    assert flags == 1


def test_tag_matching():
    g = make_gaddr(0, 4096)
    assert tag_matches(pack_cache_tag(g), g)
    assert not tag_matches(pack_cache_tag(g), g + 64)
    assert not tag_matches(pack_cache_tag(g, flags=0), g)  # dead slot
    assert not tag_matches(bytes(16), g)  # zeroed slot


def test_lock_word_helpers():
    assert lock_is_free(0)
    assert lock_is_write_locked(1)
    assert not lock_is_write_locked(4)
    assert lock_reader_count(4) == 2
    assert lock_reader_count(5) == 2  # writer bit + 2 readers in flight


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------
def test_config_presets_encode_the_ablation_matrix():
    assert FULL.enable_cache and FULL.enable_proxy
    assert CACHE_ONLY.enable_cache and not CACHE_ONLY.enable_proxy
    assert PROXY_ONLY.enable_proxy and not PROXY_ONLY.enable_cache
    assert not NVM_DIRECT.enable_cache and not NVM_DIRECT.enable_proxy
    assert DRAM_ONLY.data_in_dram


def test_config_validation():
    with pytest.raises(ValueError):
        GengarConfig(cache_capacity=-1)
    with pytest.raises(ValueError):
        GengarConfig(proxy_ring_slots=0)
    with pytest.raises(ValueError):
        GengarConfig(proxy_slot_size=10)
    with pytest.raises(ValueError):
        GengarConfig(report_every_ops=0)


# ---------------------------------------------------------------------------
# Layout carver
# ---------------------------------------------------------------------------
class _FakeDevice:
    name = "fake"
    capacity = 4096


def test_carver_hands_out_disjoint_aligned_windows():
    carver = DramCarver(_FakeDevice(), alignment=64)
    a = carver.carve(100, "a")
    b = carver.carve(100, "b")
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 100
    assert carver.used >= 200


def test_carver_overflow_raises():
    carver = DramCarver(_FakeDevice())
    carver.carve(4000)
    with pytest.raises(LayoutError):
        carver.carve(200)


def test_carver_rejects_bad_args():
    with pytest.raises(ValueError):
        DramCarver(_FakeDevice(), alignment=3)
    with pytest.raises(ValueError):
        DramCarver(_FakeDevice()).carve(0)
