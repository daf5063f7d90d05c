"""User workspaces: local, session-lifetime data.

"Storage management: Dynamic storage allocation for models, results,
workspaces, etc.; Data movement between data base and workspace."  A
workspace holds a session's models and results by name; the database
is the long-term, shared half.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import AppVMError


class Workspace:
    """Named slots of user-local data."""

    def __init__(self, owner: str = "user") -> None:
        self.owner = owner
        self._slots: Dict[str, Any] = {}

    def put(self, name: str, obj: Any) -> None:
        self._slots[name] = obj

    def get(self, name: str) -> Any:
        try:
            return self._slots[name]
        except KeyError:
            raise AppVMError(
                f"workspace of {self.owner!r} has no object {name!r}"
            ) from None
