"""Content-addressed on-disk cache for experiment results.

A result is addressed by the SHA-256 of the canonical JSON of::

    {"version": <repro package version>,
     "spec":    <experiment name>,
     "params":  <validated parameters, tuples normalized to lists>}

so a parameter change or a package-version bump is automatically a
miss — there is nothing to invalidate by hand.  Stored payloads are the
``to_json()`` form of the result (the shared round-trip contract), one
file per key under ``<root>/<spec>/<hash>.json``.

The default root is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-experiments``, else
``~/.cache/repro-experiments``.  A cache is always safe to delete.

Concurrent writers are safe: every ``store`` writes to a **unique**
temp file in the target directory and publishes with an atomic
``os.replace``, so two invocations sharing one cache directory and
computing the same point never interleave partial JSON — last writer
wins, and every reader sees a whole envelope.  Each envelope additionally carries the SHA-256 of its
result payload; ``load`` re-hashes on read and treats a mismatch
(bit-rot, a torn copy from outside the atomic path) as a miss,
deleting the bad file.

The key deliberately does **not** hash source code: within one package
version, editing an experiment module and re-running will hit stale
entries.  ``--refresh`` (recompute and overwrite) and ``--no-cache``
exist for exactly that loop; bump the package version to invalidate
globally.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any

from repro.experiments.registry import ExperimentSpec
from repro.experiments.serde import canonical_json

__all__ = ["ResultCache", "default_cache_root"]


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "0")


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-experiments"


class ResultCache:
    """Load/store experiment results keyed by (version, spec, params)."""

    #: per-process counter feeding unique temp names
    _tmp_seq = itertools.count()

    def __init__(self, root: str | Path | None = None, *, version: str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version if version is not None else _package_version()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.integrity_failures = 0

    # -- addressing ------------------------------------------------------
    def key(self, spec: ExperimentSpec, params: dict[str, Any]) -> str:
        payload = {"version": self.version, "spec": spec.name, "params": params}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def path(self, spec: ExperimentSpec, params: dict[str, Any]) -> Path:
        return self.root / spec.name / f"{self.key(spec, params)}.json"

    @staticmethod
    def _result_sha(payload: Any) -> str:
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    @classmethod
    def _tmp_path(cls, path: Path) -> Path:
        """A temp name no concurrent writer can share: pid + per-process
        counter.  (The old shared ``<key>.tmp`` let two writers
        interleave partial JSON before the rename.)"""
        return path.with_name(
            f"{path.stem}.{os.getpid()}.{next(cls._tmp_seq)}.tmp"
        )

    # -- load/store ------------------------------------------------------
    def load(self, spec: ExperimentSpec, params: dict[str, Any]) -> Any | None:
        """The cached result, or None on miss (absent, corrupt, failed
        integrity re-hash, or a non-cacheable spec)."""
        if not spec.cacheable:
            return None
        path = self.path(spec, params)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            payload = envelope["result"]
            stored_sha = envelope.get("sha256")
            if stored_sha is not None and stored_sha != self._result_sha(payload):
                self.integrity_failures += 1
                self.misses += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            result = spec.result_from_json(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, spec: ExperimentSpec, params: dict[str, Any], result: Any) -> Path | None:
        """Write the result; returns the path, or None for non-cacheable
        specs."""
        if not spec.cacheable:
            return None
        path = self.path(spec, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result.to_json()
        envelope = {
            "version": self.version,
            "spec": spec.name,
            "params": json.loads(canonical_json(params)),
            "sha256": self._result_sha(payload),
            "result": payload,
        }
        tmp = self._tmp_path(path)
        tmp.write_text(json.dumps(envelope, indent=None), encoding="utf-8")
        os.replace(tmp, path)  # atomic: concurrent runners never see half a file
        self.stores += 1
        return path
