"""Box-bounded partitions and the total order used to index collections.

Partitions are plain tuples of non-increasing positive integers; trailing
zeros are stripped so every Young diagram has exactly one representation.
"""

from __future__ import annotations

from math import comb


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


def conjugate(p) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > i) for i in range(p[0]))


def fits_box(p, rows: int, cols: int) -> bool:
    p = normalize(p)
    return len(p) <= rows and (not p or p[0] <= cols)


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
    """All partitions inside a rows x cols box, listed in a fixed total order."""

    __slots__ = _fields = ("box_rows", "box_cols", "members")

    def __init__(self, box_rows: int, box_cols: int, members: tuple[tuple[int, ...], ...]):
        if len(members) != comb(box_rows + box_cols, box_rows):
            raise ValueError("member count does not match the box")
        for m in members:
            if not fits_box(m, box_rows, box_cols):
                raise ValueError(f"{m} does not fit a {box_rows}x{box_cols} box")
        self._set(box_rows, box_cols, members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _box_partitions(rows: int, cols: int):
    if rows == 0:
        yield ()
        return
    for first in range(cols + 1):
        for rest in _box_partitions(rows - 1, first):
            yield normalize((first,) + rest)


def enumerate_box_partitions(rows: int, cols: int) -> OrderedPartitionSet:
    """All partitions with at most `rows` rows and `cols` columns.

    Listed in one graded sequence: size ascending, ties broken by graded
    reverse-lexicographic comparison.  A graded order is in particular a
    linear extension of diagram containment, so it serves both as the size
    order and as the containment order.
    """
    if rows < 1:
        raise ValueError("rows must be positive")
    if cols < 0:
        raise ValueError("cols must be non-negative")
    members = sorted(set(_box_partitions(rows, cols)), key=lambda p: grevlex_key(p, rows))
    return OrderedPartitionSet(rows, cols, tuple(members))
