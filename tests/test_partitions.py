import json
from itertools import product
from math import comb

import pytest

from tiltcheck import cli
from tiltcheck.partitions import (OrderedPartitionSet, conjugate, enumerate_box_partitions,
                                  grevlex_key, normalize)


def brute_force_box(rows, cols):
    """Independent enumeration: all monotone lattice points in the box."""
    found = set()
    for point in product(range(cols + 1), repeat=rows):
        if all(point[i] >= point[i + 1] for i in range(rows - 1)):
            found.add(normalize(point))
    return found


def contains(p, q):
    """True iff the diagram of q sits inside the diagram of p."""
    return len(q) <= len(p) and all(b <= a for a, b in zip(p, q))


def test_spec_example_2x2_size_order():
    box = enumerate_box_partitions(2, 2)
    assert box.members == ((), (1,), (1, 1), (2,), (2, 1), (2, 2))
    assert len(box) == 6


def test_empty_box_is_singleton():
    assert enumerate_box_partitions(1, 0).members == ((),)


def test_3x2_count():
    assert len(enumerate_box_partitions(3, 2)) == 10 == comb(5, 3)


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 7) for c in range(0, 13 - r)])
def test_counts_against_brute_force(rows, cols):
    box = enumerate_box_partitions(rows, cols)
    assert set(box.members) == brute_force_box(rows, cols)
    assert len(box) == comb(rows + cols, rows)


def test_box_taller_than_the_recursion_limit(capsys):
    # the box is grown one row at a time, so its height meets no recursion limit
    assert cli.run(["partitions", "--rows", "1200", "--cols", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["count"] == "1201"
    assert result["members"][:2] == [[], ["1"]] and result["members"][-1] == ["1"] * 1200


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_and_box_bijection():
    for rows, cols in [(2, 3), (3, 2), (4, 1)]:
        box = enumerate_box_partitions(rows, cols)
        images = {conjugate(p) for p in box}
        assert images == set(enumerate_box_partitions(cols if cols else 1, rows).members) or cols == 0
        for p in box:
            assert conjugate(conjugate(p)) == p
            assert sum(conjugate(p)) == sum(p)


def test_size_order_invariant():
    box = enumerate_box_partitions(3, 3)
    for i, lam in enumerate(box.members):
        for j, mu in enumerate(box.members):
            if sum(lam) < sum(mu):
                assert i < j


def test_containment_order_is_linear_extension():
    box = enumerate_box_partitions(3, 3)
    for i, lam in enumerate(box.members):
        for j, mu in enumerate(box.members):
            if lam != mu and contains(mu, lam):
                assert i < j


def test_grevlex_tiebreak():
    # within one size, (1,1) precedes (2)
    assert grevlex_key((1, 1), 2) < grevlex_key((2,), 2)
    assert grevlex_key((1, 1, 1), 3) < grevlex_key((2, 1), 3) < grevlex_key((3,), 3)


def test_ordered_partition_set_is_a_validated_value():
    # the box is the value: its members are enumerated from it, never given
    box = enumerate_box_partitions(2, 2)
    again = OrderedPartitionSet(2, 2)
    assert box == again and hash(box) == hash(again) and box.members == again.members
    assert box != enumerate_box_partitions(2, 3)
    assert (box.box_rows, box.box_cols, list(box)) == (2, 2, list(box.members))
    for attr in ("box_rows", "members", "other"):
        with pytest.raises(AttributeError):
            setattr(box, attr, 1)
    with pytest.raises(AttributeError):
        del box.members


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((1, -1))
    assert normalize((2, 1, 0, 0)) == (2, 1)


def test_unknown_order_tag(capsys):
    # one order is both the size and the containment order, so the command
    # takes no option to choose it: any order tag is refused by argparse
    assert cli.run(["partitions", "--rows", "2", "--cols", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["inputs"]) == {"cols", "rows"}
    assert report["result"]["members"] == [[], ["1"], ["1", "1"], ["2"], ["2", "1"], ["2", "2"]]
    with pytest.raises(SystemExit) as exc:
        cli.run(["partitions", "--rows", "2", "--cols", "2", "--order", "size_order"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --order size_order" in captured.err
