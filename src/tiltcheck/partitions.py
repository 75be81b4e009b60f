"""Box-bounded partitions and the total order used to index collections.

Partitions are plain tuples of non-increasing positive integers; trailing
zeros are stripped so every Young diagram has exactly one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


def normalize(parts) -> tuple[int, ...]:
    """Canonical form: tuple, trailing zeros stripped, monotonicity checked."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"not non-increasing: {parts}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in partition: {parts}")
    return p


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


@dataclass(frozen=True)
class OrderedPartitionSet:
    """All partitions inside a rows x cols box, listed in a fixed total order."""

    box_rows: int
    box_cols: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.members) != comb(self.box_rows + self.box_cols, self.box_rows):
            raise ValueError("member count does not match the box")
        for m in self.members:
            if not fits_box(m, self.box_rows, self.box_cols):
                raise ValueError(f"{m} does not fit a {self.box_rows}x{self.box_cols} box")

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
