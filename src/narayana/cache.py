"""On-disk JSON cache for computed coefficient vectors. No ``narayana`` code
calls it.

No command keeps a cache: ``poly`` computes and certifies every request,
which costs less than loading, checking and rewriting a file. The module
stays, imported by the package, only because ``bench/layers.py`` looks up
``narayana.cache``, ``narayana_key``, ``wpoly_key`` and the methods of
``PolynomialCache`` by name; it goes when that lookup does (ROADMAP item 0).

Fail-open by design: a missing, unreadable, or corrupt cache file behaves
like an empty cache (with a warning), and writes go through a temp file
rename so a crash never leaves a torn file. Coefficients are stored as
decimal strings because they outgrow doubles quickly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

from .posets import LabeledPoset

DEFAULT_CACHE_PATH = ".narayana-cache.json"
CACHE_ENV_VAR = "NARAYANA_CACHE"


def narayana_key(n: int, m: int) -> str:
    return f"narayana:n={n},m={m}"


def wpoly_key(poset: LabeledPoset) -> str:
    digest = hashlib.sha256(poset.canonical_key().encode("utf-8")).hexdigest()
    return f"wpoly:{digest[:16]}"


class PolynomialCache:
    def __init__(self, path: str, enabled: bool = True, version: str = "0"):
        self.path = path
        self.enabled = enabled
        self.version = version
        self._entries: dict | None = None
        self._dirty = False

    def _load(self) -> dict:
        if self._entries is not None:
            return self._entries
        self._entries = {}
        if not self.enabled or not os.path.exists(self.path):
            return self._entries
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            if not isinstance(raw, dict):
                raise ValueError("top level is not an object")
            self._entries = raw
        except (OSError, ValueError) as exc:
            print(
                f"warning: ignoring unreadable cache file {self.path}: {exc}",
                file=sys.stderr,
            )
            self._entries = {}
        return self._entries

    def get_coefficients(self, key: str) -> tuple[int, ...] | None:
        if not self.enabled:
            return None
        entry = self._load().get(key)
        if not isinstance(entry, dict):
            return None
        try:
            return tuple(int(c) for c in entry["coefficients"])
        except (KeyError, TypeError, ValueError):
            print(
                f"warning: ignoring malformed cache entry {key!r}", file=sys.stderr
            )
            return None

    def put(self, key: str, coefficients: tuple[int, ...], flags: dict | None = None) -> None:
        if not self.enabled:
            return
        self._load()[key] = {
            "coefficients": [str(c) for c in coefficients],
            "version": self.version,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "flags": flags or {},
        }
        self._dirty = True

    def save(self) -> None:
        if not self.enabled or not self._dirty or self._entries is None:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, temp_path = tempfile.mkstemp(prefix=".narayana-cache-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self._entries, handle, indent=2, sort_keys=True)
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._dirty = False
