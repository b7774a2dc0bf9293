"""Finitely supported functions Z^r -> V stored sparsely.

Values may be integers, words, or base-group elements; entries equal to the
function's zero are never stored.  All operations are pure.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable

Point = tuple[int, ...]


# -- JSON shape checks ----------------------------------------------------------
# Loaders read untrusted JSON through these, so a wrong shape is a ValueError
# (malformed input) rather than a TypeError deep inside the arithmetic.

def json_object(data: Any, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def json_field(data: dict, key: str, what: str) -> Any:
    if key not in data:
        raise ValueError(f"{what} has no {key!r} field")
    return data[key]


def json_list(data: Any, what: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list, not {type(data).__name__}")
    return data


def json_int(data: Any, what: str = "value") -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} must be an integer, not {type(data).__name__}")
    return data


def json_str(data: Any, what: str) -> str:
    if not isinstance(data, str):
        raise ValueError(f"{what} must be a string, not {type(data).__name__}")
    return data


def json_point(data: Any, what: str) -> Point:
    return tuple(json_int(c, what) for c in json_list(data, what))


class LatticeFn:
    """Sparse map from Z^r points to nonzero values of some abelian-ish V.

    `LatticeFn(r, entries, zero)` validates: it converts each point to a
    tuple, checks its rank and drops values equal to `zero`, so JSON and user
    input go through it.  `LatticeFn._of(r, entries, zero)` trusts a dict the
    library built itself: every key is a rank-r tuple and no value equals
    `zero`.  It checks nothing and keeps the dict without copying it.
    """

    __slots__ = ("r", "_entries", "zero")

    def __init__(self, r: int, entries: dict[Point, Any] | None = None, zero: Any = 0):
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        clean: dict[Point, Any] = {}
        for point, value in (entries or {}).items():
            point = tuple(point)
            if len(point) != r:
                raise ValueError(f"point {point} has wrong dimension (rank {r})")
            if value != zero:
                clean[point] = value
        self.r = r
        self._entries = clean
        self.zero = zero

    @classmethod
    def _of(cls, r: int, entries: dict[Point, Any], zero: Any = 0) -> "LatticeFn":
        fn = object.__new__(cls)
        fn.r, fn._entries, fn.zero = r, entries, zero
        return fn

    # -- basic access ------------------------------------------------------

    def __getitem__(self, point: Point) -> Any:
        return self._entries.get(tuple(point), self.zero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeFn):
            return NotImplemented
        return self.r == other.r and self._entries == other._entries

    def __repr__(self) -> str:
        items = ", ".join(f"{p}->{v!r}" for p, v in self.items())
        return f"LatticeFn(r={self.r}, {{{items}}})"

    def items(self) -> list[tuple[Point, Any]]:
        """Entries in lexicographic point order."""
        return sorted(self._entries.items())

    def support(self) -> tuple[Point, ...]:
        return tuple(sorted(self._entries))

    def support_size(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def frozen(self) -> tuple:
        """Hashable snapshot (rank plus sorted entries)."""
        return (self.r, tuple(self.items()))

    def box_radius(self) -> int:
        """Smallest n with support inside [-n, n]^r (0 for the zero function)."""
        return max((max(abs(c) for c in p) for p in self._entries), default=0)

    # -- transformations ----------------------------------------------------

    def shift(self, v: Point) -> "LatticeFn":
        """result(x) = self(x - v)."""
        v = tuple(v)
        if len(v) != self.r:
            raise ValueError(f"shift vector {v} has wrong dimension (rank {self.r})")
        moved = {tuple(map(operator.add, point, v)): val
                 for point, val in self._entries.items()}
        return LatticeFn._of(self.r, moved, self.zero)

    def map_values(self, fn: Callable[[Any], Any], zero: Any = None) -> "LatticeFn":
        new_zero = self.zero if zero is None else zero
        return LatticeFn(self.r, {p: fn(v) for p, v in self._entries.items()}, new_zero)

    def combine(self, other: "LatticeFn", op: Callable[[Any, Any], Any]) -> "LatticeFn":
        """Pointwise op over the union of supports, using self's zero for gaps."""
        if self.r != other.r:
            raise ValueError("rank mismatch")
        mine, theirs, zero = self._entries, other._entries, self.zero
        out: dict[Point, Any] = {}
        for point in mine.keys() | theirs.keys():
            value = op(mine.get(point, zero), theirs.get(point, other.zero))
            if value != zero:
                out[point] = value
        return LatticeFn._of(self.r, out, zero)

    # -- integer-valued helpers ----------------------------------------------

    def add(self, other: "LatticeFn") -> "LatticeFn":
        return self.combine(other, operator.add)

    def total(self) -> int:
        return sum(self._entries.values())

    def grid_sum(self, v: Point) -> int:
        """Exact sum over the coset 2Z^r + v."""
        v = tuple(c % 2 for c in v)
        if len(v) != self.r:
            raise ValueError(f"grid vector {v} has wrong dimension (rank {self.r})")
        return sum(val for point, val in self._entries.items()
                   if tuple(c % 2 for c in point) == v)

    def grid_sums(self) -> dict[Point, int]:
        """Every coset sum over 2Z^r + v, keyed by v in {0,1}^r, in one pass."""
        sums = dict.fromkeys(grid_vectors(self.r), 0)
        for point, val in self._entries.items():
            sums[tuple(c % 2 for c in point)] += val
        return sums

    # -- serialization --------------------------------------------------------

    def to_json(self, encode: Callable[[Any], Any] = lambda v: v) -> dict:
        return {
            "r": self.r,
            "entries": [{"pos": list(p), "val": encode(v)} for p, v in self.items()],
        }

    @classmethod
    def from_json(cls, data: Any, zero: Any = 0,
                  decode: Callable[[Any], Any] = json_int) -> "LatticeFn":
        """Inverse of to_json; a malformed shape, or a point given twice,
        raises ValueError."""
        data = json_object(data, "lattice function")
        r = json_int(json_field(data, "r", "lattice function"), "lattice rank")
        entries = {}
        for item in json_list(json_field(data, "entries", "lattice function"), "entries"):
            item = json_object(item, "lattice entry")
            point = json_point(json_field(item, "pos", "lattice entry"), "entry pos")
            if point in entries:
                raise ValueError(f"duplicate lattice entry at pos {list(point)}")
            entries[point] = decode(json_field(item, "val", "lattice entry"))
        return cls(r, entries, zero)


def zero_fn(r: int, zero: Any = 0) -> LatticeFn:
    return LatticeFn(r, {}, zero)


def grid_vectors(r: int) -> list[Point]:
    """All 2^r vectors in {0,1}^r, lexicographic order."""
    return [v for v in itertools.product((0, 1), repeat=r)]

