"""The model database: long-term, shared storage.

"Data control: Workspace (user local data); Data base (long-term
storage; shared data)" and "Data base operations (store model in
DB/retrieve)".

The database stores plain dicts (models serialize themselves), is
shared between sessions (multi-user access is one of the architecture
requirements), versions every key, and detects write-write conflicts
through optimistic version checks.  :meth:`ModelDatabase.load` reads a
JSON file of entries and refuses one that store() would not accept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import DatabaseError


@dataclass
class DBEntry:
    value: Dict[str, Any]
    version: int
    kind: str  # "model" | "result" | "data"


class ModelDatabase:
    """A versioned key-value store of serialized engineering objects."""

    def __init__(self) -> None:
        self._entries: Dict[str, DBEntry] = {}
        self.store_count = 0
        self.retrieve_count = 0

    def store(
        self,
        key: str,
        value: Dict[str, Any],
        kind: str = "data",
        expect_version: Optional[int] = None,
    ) -> int:
        """Store a dict under *key*; returns the new version.

        ``expect_version`` enables optimistic concurrency: the write is
        rejected if someone else updated the key since it was read.
        """
        if not isinstance(value, dict):
            raise DatabaseError(f"database stores dicts, got {type(value).__name__}")
        current = self._entries.get(key)
        if expect_version is not None:
            have = current.version if current else 0
            if have != expect_version:
                raise DatabaseError(
                    f"version conflict on {key!r}: expected {expect_version}, "
                    f"database has {have}"
                )
        version = (current.version if current else 0) + 1
        self._entries[key] = DBEntry(json.loads(json.dumps(value)), version, kind)
        self.store_count += 1
        return version

    def retrieve(self, key: str) -> Dict[str, Any]:
        entry = self._entries.get(key)
        if entry is None:
            raise DatabaseError(f"no database entry {key!r}")
        self.retrieve_count += 1
        return json.loads(json.dumps(entry.value))

    def version(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry.version if entry else 0

    def kind(self, key: str) -> str:
        entry = self._entries.get(key)
        if entry is None:
            raise DatabaseError(f"no database entry {key!r}")
        return entry.kind

    def keys(self) -> List[str]:
        return sorted(self._entries)

    # -- persistence -----------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "ModelDatabase":
        db = cls()
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DatabaseError(f"cannot load database from {path}: {exc}") from exc
        # the file comes from outside the program: hold it to what store()
        # accepts, or refuse it by key
        if not isinstance(data, dict):
            raise DatabaseError(
                f"cannot load database from {path}: expected an object of "
                f"entries, got {type(data).__name__}")
        for k, spec in data.items():
            if not isinstance(spec, dict) or set(spec) != {"value", "version", "kind"}:
                raise DatabaseError(
                    f"database entry {k!r} in {path}: expected an object with "
                    f"keys value, version, kind, got {spec!r:.80}")
            value, version, kind = spec["value"], spec["version"], spec["kind"]
            if not isinstance(value, dict):
                raise DatabaseError(
                    f"database entry {k!r} in {path}: value must be an "
                    f"object, got {type(value).__name__}")
            if type(version) is not int or version < 1:
                raise DatabaseError(
                    f"database entry {k!r} in {path}: version must be a "
                    f"positive integer, got {version!r}")
            if not isinstance(kind, str):
                raise DatabaseError(
                    f"database entry {k!r} in {path}: kind must be a string, "
                    f"got {type(kind).__name__}")
            db._entries[k] = DBEntry(value, version, kind)
        return db
