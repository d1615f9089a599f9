"""Console output for the ``roarray`` CLI.

Every CLI handler routes its output through :func:`emit` /
:func:`emit_json` instead of bare ``print`` calls, so the rendering
(and the ``--json`` escape hatch) lives in one place.
"""

from __future__ import annotations

import json
import sys
from typing import Any, TextIO


def emit(text: str, *, stream: TextIO | None = None) -> None:
    """Write one human-readable block (newline-terminated)."""
    out = sys.stdout if stream is None else stream
    out.write(text if text.endswith("\n") else text + "\n")


def emit_json(payload: Any, *, stream: TextIO | None = None) -> None:
    """Write ``payload`` as indented JSON (``--json`` mode)."""
    out = sys.stdout if stream is None else stream
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")
