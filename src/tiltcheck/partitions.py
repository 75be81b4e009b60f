"""Box-bounded partitions and the total order used to index collections.

Partitions are plain tuples of non-increasing positive integers; trailing
zeros are stripped so every Young diagram has exactly one representation.
"""

from __future__ import annotations

import json


def normalize(parts) -> tuple[int, ...]:
    """Canonical form: tuple, trailing zeros stripped, integers and monotonicity checked."""
    p = json_ints(parts, "partition part")
    while p and p[-1] == 0:
        p = p[:-1]
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"not non-increasing: {parts}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in partition: {parts}")
    return p


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer: a float, boolean or string is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple if each entry is a JSON integer (see `json_int`)."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            json_int(x, what)
    return values


def json_str(value, what: str) -> str:
    """`value` if it is a JSON string."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


_REQUIRED = object()


def json_field(obj, name: str, what: str, default=_REQUIRED, listed: bool = False):
    """`obj[name]` from the JSON object `obj`, which `what` names in a refusal.

    A missing field is refused unless a default is given; a `listed` field
    that is present must be a JSON list.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if name not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{what} is missing field {name!r}")
        return default
    if listed and not isinstance(obj[name], list):
        raise ValueError(f"{name!r} in {what} must be a JSON list")
    return obj[name]


def json_document(text: str, what: str):
    """The JSON value `text` holds, which `what` names in a refusal.

    Every plan file and fiber table is read through here: a document nested
    deeper than the decoder can follow is invalid input, not an engine error.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to decode") from None


def conjugate(p) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > i) for i in range(p[0]))


def grevlex_key(p, length: int):
    """Sort key realizing the graded reverse-lexicographic order, ascending.

    Within one total size, a partition comes earlier when its padded reversal
    is lexicographically larger, e.g. (1,1) before (2).
    """
    padded = tuple(p) + (0,) * (length - len(p))
    return (sum(p), tuple(-x for x in reversed(padded)))


class FrozenValue:
    """Base of the immutable value types: fields named by the class's `_fields`.

    A subclass declares `__slots__`, its fields first, and `_fields`, and
    writes its own `__init__`, which validates its arguments and sets each
    slot once with `_set`.  A slot after the fields holds a value derived
    from them.  Equality, hash and repr go by the field values in `_fields`
    order, as a frozen dataclass's do; assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """The fields as {name: value}, in `_fields` order."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, self._values()


class OrderedPartitionSet(FrozenValue):
    """All partitions inside a rows x cols box, listed in a fixed total order.

    The box is the value: `members`, a slot after the fields, is enumerated
    from it, in one graded sequence: size ascending, ties broken by graded
    reverse-lexicographic comparison.  A graded order is in particular a
    linear extension of diagram containment, so it serves both as the size
    order and as the containment order.
    """

    __slots__ = ("box_rows", "box_cols", "members")
    _fields = ("box_rows", "box_cols")

    def __init__(self, box_rows: int, box_cols: int):
        if json_int(box_rows, "rows") < 1:
            raise ValueError("rows must be positive")
        if json_int(box_cols, "cols") < 0:
            raise ValueError("cols must be non-negative")
        members = _box_partitions(box_rows, box_cols)
        members.sort(key=lambda p: grevlex_key(p, box_rows))
        self._set(box_rows, box_cols, tuple(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _box_partitions(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Every partition inside the box, grown one row at a time.

    A partition is complete once its next row would be empty; the others
    grow by one positive row no longer than their last.
    """
    done, level = [], [()]
    for _ in range(rows):
        grown = []
        for p in level:
            done.append(p)
            grown += [p + (x,) for x in range(1, (p[-1] if p else cols) + 1)]
        level = grown
    return done + level


def enumerate_box_partitions(rows: int, cols: int) -> OrderedPartitionSet:
    """All partitions with at most `rows` rows and `cols` columns, in the order of their box."""
    return OrderedPartitionSet(rows, cols)
