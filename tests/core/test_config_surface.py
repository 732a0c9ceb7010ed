"""The size of the option surface is a budget, not an accident.

Every independently settable ``GengarConfig`` field doubles the
configurations tests and benchmarks would have to cover, so the count is
pinned and every field must actually be read by the system.
"""

import dataclasses
import re
from pathlib import Path

from repro.core import GengarConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Fields nothing reads, kept on purpose.
UNREAD_ALLOWLIST = {
    # wire-pinned (its pickled bytes ride every attach reply), remove with
    # the profile re-pin
    "cache_tag_bytes",
}


def test_field_count_is_pinned():
    # Raising this needs two callers that exist today (not tests, not
    # examples) wanting different values; otherwise use a constant or derive
    # the value.  Lowering it is always welcome.
    assert len(dataclasses.fields(GengarConfig)) == 44


def test_every_field_is_read_somewhere_outside_config():
    sources = "\n".join(
        p.read_text() for p in sorted(SRC.rglob("*.py"))
        if p.name != "config.py" or p.parent.name != "core")
    unread = {
        f.name for f in dataclasses.fields(GengarConfig)
        if not re.search(rf"\b{f.name}\b", sources)
    }
    assert unread == UNREAD_ALLOWLIST
