"""The paper's claims, asserted on the pinned tables.

Each test states one claim about one E/X table and checks it against
``docs/RESULTS.txt`` as displayed (the precision a reader sees).  Nothing
is simulated here: ``test_results_pin.py`` already proves that file equals
a fresh ``python -m repro experiments`` run, so a change that breaks a
claim fails there (the file moved) and here (the claim no longer holds on
the re-captured file).  One test per table, or per claim where one claim
of a table fails: a failing claim must not hide the asserts behind it.

The claims EXPERIMENTS.md records as not holding are ``xfail(strict=True)``
naming that verdict, so a re-capture that makes one hold fails until the
verdict is rewritten.
"""

import re
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[2] / "docs" / "RESULTS.txt"


def _cell(text):
    """A displayed cell as a number where it is one ("1,507" -> 1507.0)."""
    try:
        return float(text.replace(",", ""))
    except ValueError:
        return text


class _Table:
    """One rendered table: its headers and its rows by first cell."""

    def __init__(self, headers, rows):
        self.headers = headers
        self.rows = rows  # first cell -> the other cells, in column order

    def column(self, name):
        """``{row label: cell}`` of the column headed ``name``."""
        idx = self.headers.index(name) - 1
        return {label: cells[idx] for label, cells in self.rows.items()}


def _parse(text):
    """Every ``== <id> ... ==`` table in the file, keyed by its id."""
    tables = {}
    for block in re.findall(r"^== (.*?) ==\n(.*?)(?:\n\n|\Z)", text, re.S | re.M):
        title, body = block
        lines = [line for line in body.splitlines()
                 if line.strip() and not line.startswith("  note:")]
        split = [re.split(r"\s{2,}", line.strip()) for line in lines]
        headers, rows = split[0], split[2:]  # split[1] is the dashes
        tables[title.split()[0]] = _Table(
            headers, {row[0]: [_cell(c) for c in row[1:]] for row in rows})
    return tables


TABLES = _parse(RESULTS.read_text())


def _rows(table_id):
    return TABLES[table_id].rows


def _col(table_id, name):
    return TABLES[table_id].column(name)


def _increasing(values):
    return all(b > a for a, b in zip(values, values[1:]))


def test_every_experiment_has_its_tables():
    for table_id in ("E1", "E2", "E3", "E3b", "E3c", "E3d", "E4b", "E5",
                     "E6", "E7", "E7b", "E8", "E8b", "E9", "E9b", "E10",
                     "E10b", "E11", "E12", "E12b", "E12c", "E12d", "E12e",
                     "X1", "X2", "X2b", "X3"):
        assert TABLES[table_id].rows, table_id


# ----------------------------------------------------------------------
# C1: hot data in distributed DRAM buffers
# ----------------------------------------------------------------------
def test_e1_cached_reads_close_the_nvm_gap():
    rows = _rows("E1")
    # Hot (cached) reads beat cold (NVM) reads at every size of 1 KiB up.
    for i in range(2, len(rows["gengar-hot"])):
        assert rows["gengar-hot"][i] < rows["gengar-cold"][i]
    # Cold Gengar reads equal the NVM-direct baseline (same data path).
    assert rows["gengar-cold"] == rows["nvm-direct"]
    # Hot reads approach the DRAM-only bound (within 15%).
    assert rows["gengar-hot"][-1] < rows["dram-only"][-1] * 1.15


def test_e6_hit_ratio_grows_with_cache_and_saturates():
    hit = list(_col("E6", "hit ratio").values())
    assert hit[0] < hit[-2]
    # Saturates once the working set fits (last two within 5 points)...
    assert abs(hit[-1] - hit[-2]) < 0.05
    # ...where a working-set-sized cache delivers a solid majority of hits.
    assert hit[-1] > 0.6


@pytest.mark.xfail(strict=True, reason=(
    "EXPERIMENTS.md E7: 'Shape partly holds' -- the lead peaks at "
    "theta=0.9, not at 0.99"))
def test_e7_lead_is_largest_at_the_highest_skew():
    rows = _rows("E7")
    lead = [g / n for g, n in zip(rows["gengar"], rows["nvm-direct"])]
    assert lead[-1] == max(lead)


def test_e7b_hit_ratio_rises_with_skew():
    assert _increasing(list(_col("E7b", "hit ratio").values()))


def test_e8_frequency_beats_recency_and_no_cache_hits_nothing():
    hit = _col("E8", "hit ratio")
    assert hit["gengar-epoch-decay"] > hit["lru"]
    assert hit["no-cache"] == 0


@pytest.mark.xfail(strict=True, reason=(
    "EXPERIMENTS.md E8: 'Shape partly holds' -- at 50 us epochs the decay "
    "policy under-fills the cache and trails random"))
def test_e8_epoch_decay_beats_random_threefold():
    hit = _col("E8", "hit ratio")
    assert hit["gengar-epoch-decay"] > 3 * hit["random"]


def test_e8b_epoch_decay_adapts_to_a_hot_set_shift():
    hit = _col("E8b", "phase-2 hit ratio")
    assert hit["gengar-epoch-decay"] > hit["random"] * 3
    assert hit["gengar-epoch-decay"] > 0.8 * max(hit.values())


# ----------------------------------------------------------------------
# C2: the client-side proxy takes NVM writes off the critical path
# ----------------------------------------------------------------------
def test_e2_proxy_writes_beat_direct_nvm_writes():
    rows = _rows("E2")
    # Proxy-staged writes beat direct NVM writes from 1 KiB up...
    for i in range(2, len(rows["gengar"])):
        assert rows["gengar"][i] < rows["nvm-direct"][i]
    # ...by a gap that grows with size (bandwidth-limited NVM path)...
    gap_small = rows["nvm-direct"][2] / rows["gengar"][2]
    gap_large = rows["nvm-direct"][-1] / rows["gengar"][-1]
    assert gap_large > gap_small
    # ...and proxy acks stay within 25% of the DRAM-only bound.
    assert rows["gengar"][-1] < rows["dram-only"][-1] * 1.25


def test_e9_every_burst_bucket_acks_faster_through_the_proxy():
    rows = _rows("E9")
    assert all(g < n for g, n in zip(rows["gengar"], rows["nvm-direct"]))


def test_e9b_burst_is_absorbed_and_drained_asynchronously():
    burst = _col("E9b", "burst time (us)")
    assert burst["gengar"] < burst["nvm-direct"]
    # Some residual drain remains after the burst (it really is async).
    assert _col("E9b", "drain time (us)")["gengar"] > 0


# ----------------------------------------------------------------------
# C3: sharing with consistency
# ----------------------------------------------------------------------
def test_e11_sharing_costs_throughput_but_never_livelocks():
    kops = list(_col("E11", "kops/s").values())
    retries = list(_col("E11", "lock retries").values())
    # Throughput decreases monotonically with the sharing ratio...
    assert all(b < a for a, b in zip(kops, kops[1:])), kops
    # ...as contention (retries) grows with it...
    assert retries[0] == 0
    assert retries[-1] > retries[1]
    # ...and even full serialization makes progress.
    assert kops[-1] > 0


# ----------------------------------------------------------------------
# C4: end-to-end performance over NVM-direct
# ----------------------------------------------------------------------
def test_e3_throughput_scales_with_clients():
    rows = _rows("E3")
    for name in ("gengar", "nvm-direct"):
        assert _increasing(rows[name]), (name, rows[name])


@pytest.mark.xfail(strict=True, reason=(
    "EXPERIMENTS.md E3: the client-axis shape holds at 1, 4 and 8 clients, "
    "not at 2 (Gengar trails NVM-direct by 6 %)"))
def test_e3_gengar_leads_at_every_client_count():
    rows = _rows("E3")
    assert all(g > n for g, n in zip(rows["gengar"], rows["nvm-direct"]))


def test_e3b_added_servers_raise_throughput_and_keep_the_proxy_lead():
    rows = _rows("E3b")
    for name, values in rows.items():
        assert values[-1] > values[0], name
    assert all(g > n for g, n in zip(rows["gengar"], rows["nvm-direct"]))


def test_e3c_master_shards_scale_metadata_throughput():
    rows = _rows("E3c")
    # Monotone across 1 -> 2 -> 4 shards, never at the cost of tail latency.
    assert _increasing(rows["alloc/free kops/s"])
    p99 = rows["p99 latency (us)"]
    assert all(b <= a for a, b in zip(p99, p99[1:])), p99


def test_e3d_attached_clients_scale_through_64():
    table = TABLES["E3d"]
    counts = [int(h) for h in table.headers[1:]]
    kops = table.rows["kops/s"]
    # Monotone through 64 attached clients; 128 sits past the NIC knee, so
    # it only must not collapse.
    assert _increasing([k for c, k in zip(counts, kops) if c <= 64]), kops
    assert kops[-1] > kops[0]
    # The shared receive pool grew to cover the fanout at every point.
    slots = table.rows["master pool slots"]
    assert all(s > c for s, c in zip(slots, counts)), (slots, counts)


def test_e4b_speedups_over_nvm_direct():
    speedup = _col("E4b", "speedup")
    # The headline: a substantial win on the update-heavy workload...
    assert speedup["YCSB-A"] > 1.3
    # ...read-mostly workloads still benefit from the DRAM cache...
    assert speedup["YCSB-B"] > 1.05
    # ...and no workload collapses (worst case within 30% of the baseline).
    assert min(speedup.values()) > 0.7


def test_e5_gengar_lowers_read_and_update_latency():
    read = _col("E5", "read mean")
    update = _col("E5", "update mean")
    assert read["gengar"] < read["nvm-direct"]
    assert update["gengar"] < update["nvm-direct"]
    # Cache-only pays the write-through coherence tax on updates.
    assert update["cache-only"] > update["gengar"]


def test_e10_later_iterations_run_faster_on_gengar_only():
    # Iteration columns only (the last column is the sort).
    rows = {name: cells[:-1] for name, cells in _rows("E10").items()}
    assert rows["gengar"][-1] < rows["gengar"][0]
    nvm = rows["nvm-direct"]
    assert abs(nvm[-1] - nvm[0]) < 0.2 * nvm[0]


def test_e10b_mapreduce_speedup_bounded_by_dram():
    speedup = _col("E10b", "speedup")
    assert speedup["gengar"] > 1.05
    assert speedup["dram-only"] > speedup["gengar"]


# ----------------------------------------------------------------------
# E12: design-choice ablations
# ----------------------------------------------------------------------
def test_e12_proxy_variants_dominate_write_heavy_ycsb():
    kops = _col("E12", "kops/s")
    assert kops["gengar"] > kops["nvm-direct"] * 1.2
    assert kops["proxy-only"] > kops["nvm-direct"] * 1.2
    # The cache alone hurts a write-heavy mix.
    assert kops["cache-only"] < kops["nvm-direct"]


def test_e12b_shorter_epochs_adapt_faster():
    hit = list(_col("E12b", "hit ratio").values())
    assert hit[0] > hit[-1]


def test_e12c_bigger_rings_absorb_the_burst():
    lat = list(_col("E12c", "avg ack latency (us)").values())
    assert lat[0] >= lat[1] >= lat[2]


def test_e12d_metadata_cache_saves_a_lookup_per_op():
    kops = _col("E12d", "kops/s")
    lookups = _col("E12d", "lookup RPCs")
    assert kops["on"] > kops["off"] * 1.2
    assert lookups["off"] > 5 * lookups["on"]


def test_e12e_journal_costs_allocation_latency_within_bounds():
    cost = _col("E12e", "gmalloc mean (us)")
    assert cost["on"] > cost["off"] * 1.2
    assert cost["on"] < cost["off"] * 4


# ----------------------------------------------------------------------
# Extensions
# ----------------------------------------------------------------------
def test_x1_proxy_keeps_write_p99_lower_at_every_load():
    rows = _rows("X1")
    assert all(g < n for g, n in zip(rows["gengar"], rows["nvm-direct"]))
    # Latency rises with offered load for both (queueing is real).
    for name, values in rows.items():
        assert values[-1] > values[0], name


def test_x2_locality_orders_throughput_and_latency():
    kops = list(_col("X2", "kops/s").values())
    lat = list(_col("X2", "read mean (us)").values())
    assert kops[0] > kops[1] > kops[2]
    assert lat[0] < lat[1] < lat[2]


def test_x2b_rack_local_placement_keeps_traffic_off_the_core():
    kops = _col("X2b", "kops/s")
    msgs = _col("X2b", "inter-rack msgs")
    assert kops["rack-local"] > kops["round-robin"] * 1.1
    assert msgs["rack-local"] < msgs["round-robin"] / 2


def test_x3_release_sync_is_the_ycsb_f_tax():
    kops = _col("X3", "kops/s")
    # Strict Gengar loses to the baseline on F...
    assert kops["gengar (sync release)"] < kops["nvm-direct"]
    # ...and removing only the release sync flips it decisively.
    assert kops["gengar (unsafe release)"] > kops["nvm-direct"] * 1.1
    assert kops["gengar (unsafe release)"] > kops["gengar (sync release)"] * 1.3
