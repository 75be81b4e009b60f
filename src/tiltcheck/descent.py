"""Rank and endomorphism bookkeeping for twisted forms of projective spaces,
Grassmannians, and towers of either.

Nothing here constructs sheaves or cocycles.  Central simple algebras enter
only through the index sequence ind(A^i); every dimension is computed over a
splitting field, which is legitimate because Hom dimensions are invariant
under base change.

End dimensions of the wedge-power sheaves on Grass(d, n) come from one
Kapranov Ext table H.  Every Schur summand of a tensor product of wedge
powers of the rank-d tautological bundle, indexed by lam in the d x (n-d)
box, lies in that box: it has at most d rows, by the rank, and at most
lam_1 <= n - d columns, one per wedge factor.  So each wedge Ext is the
bilinear form M^T H M, with M the Schur multiplicities of the wedge sheaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import comb, gcd
from typing import Optional

from .partitions import conjugate, normalize
from .collections import ExtTable, ext_table, kapranov_collection, schur_pair_ext
from .schur import lr_expand


@dataclass(frozen=True)
class CSAClass:
    """Degree/period model of a central simple algebra.

    The default index model ind(A^i) = p / gcd(p, i) holds for cyclic classes
    (all classes over local and global fields); pass `index_table` mapping
    i mod period to an explicit index to model anything else.
    """

    degree: int
    period: int
    index_table: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.period < 1 or self.degree % self.period != 0:
            raise ValueError("period must divide the degree")
        if self.index_table is not None:
            table = tuple(int(x) for x in self.index_table)
            object.__setattr__(self, "index_table", table)
            if len(table) != self.period:
                raise ValueError("index table must have one entry per residue mod period")
            if table[0] != 1:
                raise ValueError("ind(A^0) must be 1")
            for x in table:
                if x < 1 or self.degree % x != 0:
                    raise ValueError(f"index {x} must divide the degree")


def split_class(degree: int) -> CSAClass:
    return CSAClass(degree, 1)


def index_of_power(a: CSAClass, i: int) -> int:
    """ind(A^i); depends only on i mod period."""
    r = int(i) % a.period
    if a.index_table is not None:
        return a.index_table[r]
    return a.period // gcd(a.period, r)


@dataclass(frozen=True)
class DescentSummary:
    summand_labels: tuple
    multiplicities: tuple[int, ...]
    ranks: tuple[int, ...]
    total_rank: int
    end_dim: int
    notes: tuple[str, ...] = ()

    @property
    def summand_count(self) -> int:
        return len(self.summand_labels)


_RANGE_NOTE = (
    "one summand per Beilinson twist: range length defaults to variety "
    "dimension + 1 (= algebra degree); pass range_length for any other "
    "indexing of the twists"
)


def bs_tilting_summary(a: CSAClass, range_length: Optional[int] = None) -> DescentSummary:
    """Indecomposable absolutely split summands W_i on the Brauer-Severi variety.

    The variety has dimension degree - 1; W_i pulls back to O(i)^(ind(A^i)), so
    ranks are index values and End is counted over the splitting field.
    """
    n = a.degree
    length = n if range_length is None else int(range_length)
    if length < 1:
        raise ValueError("range length must be positive")
    ranks = tuple(index_of_power(a, i) for i in range(length))
    end_dim = 0
    for i in range(length):
        for j in range(i, length):
            end_dim += ranks[i] * ranks[j] * comb(n - 1 + j - i, n - 1)
    return DescentSummary(
        summand_labels=tuple(range(length)),
        multiplicities=(1,) * length,
        ranks=ranks,
        total_rank=sum(ranks),
        end_dim=end_dim,
        notes=(_RANGE_NOTE,),
    )


def descent_multiplicity(lam, n: int) -> int:
    """Sufficient descent multiplicity for the wedge-power sheaf of lam.

    Product of n * (conjugate part) over the nonzero conjugate parts; the
    empty product is 1.  Minimality is not claimed.
    """
    return _prod(n * c for c in conjugate(lam) if c > 0)


def _prod(it) -> int:
    out = 1
    for x in it:
        out *= x
    return out


def wedge_schur_multiplicities(conj_parts, d: int) -> dict[tuple[int, ...], int]:
    r"""Decompose the tensor product of wedge powers /\^(a_1) (x) ... of a
    rank-d bundle into Schur summands {partition: multiplicity}."""
    out: dict[tuple[int, ...], int] = {(): 1}
    for part in conj_parts:
        if part == 0:
            continue
        if part > d:
            return {}
        nxt: dict[tuple[int, ...], int] = {}
        column = tuple(1 for _ in range(part))
        for nu, m in out.items():
            for xi, c in lr_expand(nu, column, d).items():
                nxt[xi] = nxt.get(xi, 0) + m * c
        out = nxt
    return out


def wedge_pair_ext(d: int, n: int, lam, mu) -> dict[int, int]:
    r"""Ext^*(/\^(lam')(S), /\^(mu')(S)) on Grass(d, n) via Schur decomposition.

    Expands both sides and sums `schur_pair_ext` over every summand pair; the
    per-pair reference for `_wedge_ext_table`.
    """
    left = wedge_schur_multiplicities(conjugate(lam), d)
    right = wedge_schur_multiplicities(conjugate(mu), d)
    out: dict[int, int] = {}
    for nu, a in left.items():
        for xi, b in right.items():
            for s, v in schur_pair_ext(d, n, nu, xi).items():
                out[s] = out.get(s, 0) + a * b * v
    return {s: v for s, v in out.items() if v}


def _wedge_ext_table(d: int, n: int) -> tuple[list[tuple[int, ...]], ExtTable]:
    r"""The d x (n-d) box and the Ext table of its wedge-power sheaves.

    Entry (i, j, s) is dim Ext^s(/\^(box[i]')(S), /\^(box[j]')(S)), computed
    as M^T H M from the Kapranov Ext table H; row i of M holds the Schur
    multiplicities of the i-th wedge sheaf, indexed like the Kapranov labels.
    The box lists larger diagrams first, as the Kapranov collection does.
    """
    kapranov = kapranov_collection(d, n)
    box = [normalize(label[0]) for label in kapranov.labels]
    index = {lam: k for k, lam in enumerate(box)}
    rows = [
        {index[nu]: m for nu, m in wedge_schur_multiplicities(conjugate(lam), d).items()}
        for lam in box
    ]
    kapranov_table = ext_table(kapranov)
    h_rows: list[dict[int, dict[int, int]]] = [{} for _ in box]
    for (k, l, s), v in kapranov_table.dims.items():
        h_rows[k].setdefault(l, {})[s] = v
    dims: dict[tuple[int, int, int], int] = {}
    for i, row in enumerate(rows):
        # left[l][s] = (M H_s)[i][l]
        left: dict[int, dict[int, int]] = {}
        for k, a in row.items():
            for l, by_degree in h_rows[k].items():
                acc = left.setdefault(l, {})
                for s, v in by_degree.items():
                    acc[s] = acc.get(s, 0) + a * v
        for j, other in enumerate(rows):
            for l, b in other.items():
                for s, v in left.get(l, {}).items():
                    dims[(i, j, s)] = dims.get((i, j, s), 0) + v * b
    return box, ExtTable(len(box), kapranov_table.max_degree, dims)


@dataclass(frozen=True)
class WedgeReport:
    is_tilting: bool
    k0_rank: int
    end_dim: int
    higher_ext_witness: Optional[tuple]


def verify_wedge_collection(d: int, n: int) -> WedgeReport:
    """Ext-vanishing check for the wedge-power bundle sum on Grass(d, n).

    The wedge summands decompose, so this is a tilting-bundle check only;
    exceptionality of the individual summands is not claimed.
    """
    box, table = _wedge_ext_table(d, n)
    witness = next(((box[i], box[j], s, v) for (i, j, s), v in table.higher_entries()), None)
    end_dim = sum(sum(row) for row in table.hom_matrix())
    return WedgeReport(witness is None, len(box), end_dim, witness)


def generalized_bs_summary(a: CSAClass, d: int) -> DescentSummary:
    """Descent inventory for the twisted form of Grass(d, degree).

    One summand per partition in the d x (n-d) box; each wedge-power sheaf
    descends after taking n*conjugate-part many copies, and End is computed
    over the splitting field from the wedge Ext table weighted by those
    multiplicities.
    """
    n = a.degree
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < degree")
    box, table = _wedge_ext_table(d, n)
    mults = []
    split_ranks = []
    for lam in box:
        conj = conjugate(lam)
        mults.append(descent_multiplicity(lam, n))
        split_ranks.append(_prod(comb(d, c) for c in conj))
    ranks = tuple(m * r for m, r in zip(mults, split_ranks))
    end_dim = sum(
        mults[i] * mults[j] * hom
        for i, row in enumerate(table.hom_matrix())
        for j, hom in enumerate(row)
    )
    return DescentSummary(
        summand_labels=tuple(box),
        multiplicities=tuple(mults),
        ranks=ranks,
        total_rank=sum(ranks),
        end_dim=end_dim,
        notes=("multiplicities are sufficient for descent, not claimed minimal",),
    )


_TOWER_NOTE = (
    "end_dim composed multiplicatively (product model); a twist-exact End "
    "dimension for the relative candidate comes from the fibration engine"
)


def twisted_tower_summary(stages) -> DescentSummary:
    """Compose per-stage descent summaries along a tower of twisted forms.

    Each stage is ("bs", algebra) or ("gbs", algebra, d).  Summand labels are
    tuples of per-stage labels; multiplicities and ranks multiply, and end_dim
    is composed in the product model.
    """
    summaries = []
    for stage in stages:
        kind = stage[0]
        if kind == "bs":
            summaries.append(bs_tilting_summary(stage[1]))
        elif kind == "gbs":
            summaries.append(generalized_bs_summary(stage[1], stage[2]))
        else:
            raise ValueError(f"unknown tower stage kind {kind!r}")
    if not summaries:
        raise ValueError("tower needs at least one stage")
    if len(summaries) == 1:
        return summaries[0]
    labels = tuple(iter_product(*(s.summand_labels for s in summaries)))
    mults = tuple(
        _prod(parts) for parts in iter_product(*(s.multiplicities for s in summaries))
    )
    ranks = tuple(_prod(parts) for parts in iter_product(*(s.ranks for s in summaries)))
    return DescentSummary(
        summand_labels=labels,
        multiplicities=mults,
        ranks=ranks,
        total_rank=_prod(s.total_rank for s in summaries),
        end_dim=_prod(s.end_dim for s in summaries),
        notes=(_TOWER_NOTE,),
    )
