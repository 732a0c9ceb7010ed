"""Applications built on the pool: the workloads the paper evaluates with."""

from repro.apps.kvstore import KvStore
from repro.apps.mapreduce import MapReduceEngine, distributed_sort, wordcount_job

__all__ = [
    "KvStore",
    "MapReduceEngine",
    "wordcount_job",
    "distributed_sort",
]
