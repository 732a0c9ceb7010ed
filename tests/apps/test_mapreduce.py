"""Tests for the MapReduce engine and distributed sort."""

import random
from collections import Counter

import pytest

from repro.apps.mapreduce import (
    JobSpec,
    MapReduceEngine,
    MapReduceError,
    distributed_sort,
    wordcount_job,
)
from repro.workloads.corpus import CorpusGenerator

from tests.apps.conftest import boot


def run_wordcount(system_name="gengar", num_chunks=4, chunk_bytes=2000, seed=1):
    sim, system = boot(name=system_name, num_servers=2, num_clients=2, seed=seed)
    corpus = CorpusGenerator(vocab_size=100, rng=random.Random(seed))
    chunks = corpus.chunks(num_chunks, chunk_bytes)
    engine = MapReduceEngine(system.clients)

    def job(sim):
        addrs = yield from engine.ingest(system.clients[0], chunks)
        result = yield from engine.run(
            wordcount_job(num_reducers=3), addrs, [len(c) for c in chunks]
        )
        return result

    (result,) = system.run(job(sim))
    return chunks, result


def expected_counts(chunks):
    counts = Counter()
    for chunk in chunks:
        counts.update(chunk.decode().split())
    return dict(counts)


def test_wordcount_produces_exact_counts():
    chunks, result = run_wordcount()
    assert result.output == expected_counts(chunks)


def test_wordcount_timing_structure():
    _chunks, result = run_wordcount()
    assert result.elapsed_ns > 0
    assert result.map_time_ns > 0
    assert result.reduce_time_ns > 0
    assert result.map_time_ns + result.reduce_time_ns <= result.elapsed_ns
    assert result.shuffle_bytes > 0


def test_wordcount_matches_across_systems():
    """Every DSHM system computes the same answer (only timing differs)."""
    chunks_a, res_gengar = run_wordcount("gengar")
    chunks_b, res_direct = run_wordcount("nvm-direct")
    assert chunks_a == chunks_b  # same seed, same corpus
    assert res_gengar.output == res_direct.output


def test_grep_counts_only_matches():
    """A caller-defined job: a filtering map over two reducers."""
    sim, system = boot(num_servers=1, num_clients=1)
    chunks = [b"aba bab zzz aba", b"zzz aba qqq"]
    engine = MapReduceEngine(system.clients)

    def grep_ab(chunk):
        counts = {}
        for word in chunk.decode().split():
            if "ab" in word:
                counts[word] = counts.get(word, 0) + 1
        return counts

    grep = JobSpec(name="grep:ab", map_fn=grep_ab, reduce_fn=sum, num_reducers=2)

    def job(sim):
        addrs = yield from engine.ingest(system.clients[0], chunks)
        result = yield from engine.run(grep, addrs, [len(c) for c in chunks])
        return result

    (result,) = system.run(job(sim))
    assert result.output == {"aba": 3, "bab": 1}


def test_more_mappers_than_clients_round_robins():
    chunks, result = run_wordcount(num_chunks=7)
    assert result.output == expected_counts(chunks)


def test_oversized_chunk_rejected():
    sim, system = boot(num_servers=1, num_clients=1)
    engine = MapReduceEngine(system.clients, max_object_bytes=1024)

    def job(sim):
        yield from engine.ingest(system.clients[0], [b"x" * 2048])

    with pytest.raises(MapReduceError):
        system.run(job(sim))


def test_engine_requires_clients():
    with pytest.raises(MapReduceError):
        MapReduceEngine([])


def test_distributed_sort_sorts():
    sim, system = boot(num_servers=2, num_clients=2)
    rng = random.Random(11)
    records = [rng.randrange(1_000_000) for _ in range(500)]

    def job(sim):
        out = yield from distributed_sort(system.clients, records, num_partitions=4)
        return out

    (result,) = system.run(job(sim))
    ordered, elapsed = result
    assert ordered == sorted(records)
    assert elapsed > 0


def test_distributed_sort_empty():
    sim, system = boot(num_servers=1, num_clients=1)

    def job(sim):
        out = yield from distributed_sort(system.clients, [], num_partitions=2)
        return out

    (result,) = system.run(job(sim))
    assert result == ([], 0)


def test_sort_handles_duplicates_and_skew():
    sim, system = boot(num_servers=1, num_clients=2)
    records = [5] * 100 + [1] * 50 + [9] * 25

    def job(sim):
        out = yield from distributed_sort(system.clients, records, num_partitions=3)
        return out

    (result,) = system.run(job(sim))
    ordered, _ = result
    assert ordered == sorted(records)
