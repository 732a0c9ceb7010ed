"""The size of the option surface is a budget, not an accident.

Every independently settable ``GengarConfig`` field doubles the
configurations tests and benchmarks would have to cover, so the count is
pinned, every field must actually be read by the system, and every field
must be set by name somewhere in the system: a value no caller sets is a
constant at its reader, not a field.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core import GengarConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CONFIG_PY = SRC / "core" / "config.py"


def _sources(*, config_presets: bool) -> str:
    """Every module under ``src/repro`` but ``config.py``, plus, with
    ``config_presets``, what ``config.py`` holds outside the class body."""
    parts = [p.read_text() for p in sorted(SRC.rglob("*.py")) if p != CONFIG_PY]
    if config_presets:
        parts.append(CONFIG_PY.read_text().replace(inspect.getsource(GengarConfig), ""))
    return "\n".join(parts)


def test_field_count_is_pinned():
    # Raising this needs two callers that exist today (not tests, not
    # examples) wanting different values; otherwise use a constant or derive
    # the value.  Lowering it is always welcome.
    assert len(dataclasses.fields(GengarConfig)) == 21


def test_every_field_is_read_somewhere_outside_config():
    sources = _sources(config_presets=False)
    unread = {
        f.name for f in dataclasses.fields(GengarConfig)
        if not re.search(rf"\b{f.name}\b", sources)
    }
    assert unread == set()


def test_every_field_is_set_by_name_somewhere_outside_its_class():
    sources = _sources(config_presets=True)
    unset = {
        f.name for f in dataclasses.fields(GengarConfig)
        if not re.search(rf"(?<![\w.]){f.name}=(?!=)", sources)
    }
    assert unset == set()
