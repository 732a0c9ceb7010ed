"""Applications built on the pool: the workloads the paper evaluates with."""

from repro.apps.graph import PageRankEngine, reference_pagerank
from repro.apps.kvstore import KvStore
from repro.apps.mapreduce import MapReduceEngine, distributed_sort, grep_job, wordcount_job
from repro.apps.sharedlog import SharedLog

__all__ = [
    "KvStore",
    "MapReduceEngine",
    "wordcount_job",
    "grep_job",
    "distributed_sort",
    "SharedLog",
    "PageRankEngine",
    "reference_pagerank",
]
