"""Parameter spaces: the declarative input of a design-space campaign.

A :class:`ParamSpace` names the axes of a study (machine, mesh, and
solver parameters) and the values each axis may take.  Two flavours
exist, mirroring how design sweeps are actually written:

* **cartesian** — ``ParamSpace({"nx": [2, 4], "workers": [1, 2]})``
  expands to the full cross product (4 points here);
* **explicit** — ``ParamSpace.explicit([{...}, {...}])`` enumerates the
  points directly (all points must share one axis set).

Expansion is deterministic: axes iterate in sorted-name order, values
in declared order, and duplicate points collapse to their first
occurrence.  :meth:`ParamSpace.contains` defines the *declared space*
refinement must stay inside — numeric axes span the closed interval
between their declared extremes (midpoints between grid values are in
the space); categorical axes admit only their declared members.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import CampaignError

#: scalar types an axis value may take (JSON-representable, picklable)
SCALAR_TYPES = (bool, int, float, str)

#: a canonical point: axis-name -> value, keyed/sorted by axis name
Point = Dict[str, Any]


def point_key(point: Point) -> Tuple[Tuple[str, Any], ...]:
    """The canonical hashable identity of a point (sorted by axis)."""
    return tuple(sorted(point.items()))


def _check_scalar(axis: str, value: Any) -> None:
    if not isinstance(value, SCALAR_TYPES):
        raise CampaignError(
            f"axis {axis!r}: values must be scalars "
            f"({'/'.join(t.__name__ for t in SCALAR_TYPES)}), "
            f"got {type(value).__name__}")


def _is_numeric(value: Any) -> bool:
    """True for int/float axis values (bool is categorical, not 0/1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Axis:
    """One named axis and its declared values (order preserved)."""

    def __init__(self, name: str, values: Sequence[Any]) -> None:
        if not isinstance(name, str) or not name.isidentifier():
            raise CampaignError(
                f"axis name must be an identifier, got {name!r}")
        values = list(values)
        if not values:
            raise CampaignError(f"axis {name!r} has no values")
        for v in values:
            _check_scalar(name, v)
        kinds = {_is_numeric(v) for v in values}
        if len(kinds) > 1:
            raise CampaignError(
                f"axis {name!r} mixes numeric and categorical values")
        self.name = name
        self.values = values
        #: numeric axes are refinable (midpoints exist between values)
        self.numeric = kinds == {True}

    @property
    def lo(self) -> Any:
        return min(self.values) if self.numeric else None

    @property
    def hi(self) -> Any:
        return max(self.values) if self.numeric else None

    def admits(self, value: Any) -> bool:
        """Is *value* inside this axis's declared span?"""
        if self.numeric:
            return _is_numeric(value) and self.lo <= value <= self.hi
        return value in self.values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Axis({self.name!r}, {self.values!r})"


class ParamSpace:
    """The declared parameter space of one campaign."""

    def __init__(self, axes: Dict[str, Sequence[Any]],
                 points: Optional[Iterable[Point]] = None) -> None:
        if not axes:
            raise CampaignError("a parameter space needs at least one axis")
        self.axes: Dict[str, Axis] = {
            name: Axis(name, axes[name]) for name in sorted(axes)
        }
        #: explicit point list, or None for a cartesian space
        self._explicit: Optional[List[Point]] = None
        if points is not None:
            self._explicit = [self._canonical(p) for p in points]
            if not self._explicit:
                raise CampaignError("explicit point list is empty")

    @classmethod
    def explicit(cls, points: Sequence[Point]) -> "ParamSpace":
        """A space declared as a point list; axes are inferred from the
        union of observed values per axis name."""
        if not isinstance(points, (list, tuple)):
            raise CampaignError(
                f"explicit points must be a list of {{axis: value}} "
                f"mappings, got {type(points).__name__}")
        for p in points:
            if not isinstance(p, Mapping):
                raise CampaignError(
                    f"explicit point must be an {{axis: value}} mapping, "
                    f"got {type(p).__name__} {p!r}")
        points = [dict(p) for p in points]
        if not points:
            raise CampaignError("explicit point list is empty")
        names = set(points[0])
        for p in points:
            if set(p) != names:
                raise CampaignError(
                    f"explicit points must share one axis set: "
                    f"{sorted(names)} vs {sorted(p)}")
        axes: Dict[str, List[Any]] = {n: [] for n in names}
        for p in points:
            for n, v in p.items():
                if v not in axes[n]:
                    axes[n].append(v)
        return cls(axes, points=points)

    @property
    def kind(self) -> str:
        return "explicit" if self._explicit is not None else "cartesian"

    @property
    def axis_names(self) -> List[str]:
        return list(self.axes)

    def _canonical(self, point: Point) -> Point:
        if set(point) != set(self.axes):
            raise CampaignError(
                f"point axes {sorted(point)} do not match space axes "
                f"{sorted(self.axes)}")
        for name, value in point.items():
            _check_scalar(name, value)
        return {name: point[name] for name in self.axes}

    def expand(self) -> List[Point]:
        """Every declared point, in deterministic order, deduplicated
        to first occurrence."""
        if self._explicit is not None:
            raw = self._explicit
        else:
            raw = [{}]
            for name, axis in self.axes.items():
                raw = [dict(p, **{name: v}) for p in raw for v in axis.values]
        seen = set()
        out: List[Point] = []
        for p in raw:
            key = point_key(p)
            if key not in seen:
                seen.add(key)
                out.append(dict(p))
        return out

    def contains(self, point: Point) -> bool:
        """Is *point* inside the declared space?  Numeric axes admit any
        value in their closed declared span (refinement midpoints);
        categorical axes admit declared members only."""
        if set(point) != set(self.axes):
            return False
        return all(self.axes[n].admits(v) for n, v in point.items())

    def size(self) -> int:
        if self._explicit is not None:
            return len({point_key(p) for p in self._explicit})
        n = 1
        for axis in self.axes.values():
            n *= len(axis.values)
        return n

    def describe(self) -> Dict[str, Any]:
        """JSON-safe description embedded in ``fem2-campaign/1``."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "axes": {name: list(axis.values)
                     for name, axis in self.axes.items()},
        }
        if self._explicit is not None:
            out["points"] = [dict(p) for p in self._explicit]
        return out

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ParamSpace":
        if record.get("kind") == "explicit":
            return cls(record["axes"], points=record["points"])
        return cls(record["axes"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ParamSpace({self.kind}, axes={self.axis_names}, "
                f"size={self.size()})")
