"""Named deterministic random streams.

Every stochastic component in the simulation (workload generators, jittered
timers, placement policies) draws from its *own* named stream derived from
the simulator seed.  Adding a new consumer therefore never perturbs the draws
seen by existing ones — runs stay reproducible as the codebase grows.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """A family of independent :class:`random.Random` streams.

    Streams are keyed by name; the per-stream seed is derived by hashing the
    registry seed together with the name, so streams are statistically
    independent and stable across runs and machines.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(self.derive_seed(name))
            self._streams[name] = rng
        return rng

    def derive_seed(self, name: str) -> int:
        """Stable 64-bit sub-seed for ``name`` under this registry's seed."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")
