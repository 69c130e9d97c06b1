"""Benchmark-harness configuration.

Every benchmark regenerates one paper artifact (table or figure),
asserts its headline shape, prints the rendered artifact (run with
``-s`` to see it live), and writes it under ``benchmarks/out/`` so the
regenerated tables survive the run.  That directory is generated,
local output: it is not tracked, and nothing in the repository reads it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session")
def artifact_sink():
    """Write a rendered artifact to benchmarks/out/<name>.txt and stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return write
