"""The benchmark's trace contract: every traced entry point exists.

``perfbench/spans.py`` rebinds each name it lists in ``LAYERS`` by
``getattr`` on ``genfock.<layer>``, so a refactor that drops or renames one
of them breaks traced benchmark runs.  The file is stdlib-only and is
loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_name_resolves():
    missing = [f"{layer}.{name}"
               for layer, names in _layers().items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"genfock.{layer}"), name, None))]
    assert missing == []
