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
lam_1 <= n - d columns, one per wedge factor.  So with M the Schur
multiplicities of the wedge sheaves, the End of their sum weighted by mults
is u^T H_0 u with u = M mults, one pass over H's degree-0 entries; no wedge
Ext table is built.  A positive-degree wedge Ext needs a positive-degree
entry of H, and a Kapranov table has none; a `WedgeReport` is tilting
exactly when it carries no such witness.  A tower composes its stages'
`DescentSummary` values, however each was computed.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import comb, gcd, prod
from typing import Optional

from .partitions import FrozenValue, conjugate, json_int, normalize
from .collections import ExtTable, ext_table, kapranov_collection, schur_pair_ext
from .schur import product_expand


class CSAClass(FrozenValue):
    """Degree/period model of a central simple algebra.

    `index_table` maps i mod period to ind(A^i); given none, the default
    p / gcd(p, i), which holds for cyclic classes (all classes over local and
    global fields), is written out and validated as a given table is.
    """

    __slots__ = _fields = ("degree", "period", "index_table")

    def __init__(self, degree: int, period: int, index_table: Optional[tuple[int, ...]] = None):
        if json_int(degree, "degree") < 1:
            raise ValueError("degree must be positive")
        if json_int(period, "period") < 1 or degree % period != 0:
            raise ValueError("period must divide the degree")
        if index_table is None:
            index_table = (period // gcd(period, i) for i in range(period))
        index_table = tuple(json_int(x, "index") for x in index_table)
        if len(index_table) != period:
            raise ValueError("index table must have one entry per residue mod period")
        if index_table[0] != 1:
            raise ValueError("ind(A^0) must be 1")
        for x in index_table:
            if x < 1 or degree % x != 0:
                raise ValueError(f"index {x} must divide the degree")
        self._set(degree, period, index_table)


def split_class(degree: int) -> CSAClass:
    return CSAClass(degree, 1)


def index_of_power(a: CSAClass, i: int) -> int:
    """ind(A^i), read from the class's index table at i mod period."""
    return a.index_table[json_int(i, "power") % a.period]


class DescentSummary(FrozenValue):
    """Descended summands with their multiplicities and ranks, and End; `total_rank` sums the ranks."""

    __slots__ = _fields = ("summand_labels", "multiplicities", "ranks", "end_dim", "notes")

    def __init__(self, summand_labels: tuple, multiplicities: tuple[int, ...],
                 ranks: tuple[int, ...], end_dim: int, notes: tuple[str, ...] = ()):
        self._set(summand_labels, multiplicities, ranks, end_dim, notes)

    @property
    def summand_count(self) -> int:
        return len(self.summand_labels)

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)


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
    length = n if range_length is None else json_int(range_length, "range length")
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
        end_dim=end_dim,
        notes=(_RANGE_NOTE,),
    )


def descent_multiplicity(lam, n: int) -> int:
    """Sufficient descent multiplicity for the wedge-power sheaf of lam.

    Product of n * (conjugate part) over the nonzero conjugate parts; the
    empty product is 1.  Minimality is not claimed.
    """
    return prod(n * c for c in conjugate(lam) if c > 0)


def wedge_schur_multiplicities(conj_parts, d: int) -> dict[tuple[int, ...], int]:
    r"""Decompose the tensor product of wedge powers /\^(a_1) (x) ... of a
    rank-d bundle into Schur summands {partition: multiplicity}."""
    if any(part > d for part in conj_parts):
        return {}
    columns = [(1,) * part for part in conj_parts]
    return {normalize(nu): m for nu, m in product_expand(columns, d).items()}


def wedge_pair_ext(d: int, n: int, lam, mu) -> dict[int, int]:
    r"""Ext^*(/\^(lam')(S), /\^(mu')(S)) on Grass(d, n) via Schur decomposition.

    Expands both sides and sums `schur_pair_ext` over every summand pair; the
    per-pair reference for the End and the witness read off the Kapranov table.
    """
    left = wedge_schur_multiplicities(conjugate(lam), d)
    right = wedge_schur_multiplicities(conjugate(mu), d)
    out: dict[int, int] = {}
    for nu, a in left.items():
        for xi, b in right.items():
            for s, v in schur_pair_ext(d, n, nu, xi).items():
                out[s] = out.get(s, 0) + a * b * v
    return {s: v for s, v in out.items() if v}


def _wedge_columns(d: int, n: int) -> tuple[list[tuple[int, ...]], ExtTable, list[dict[int, int]]]:
    r"""The d x (n-d) box, its Kapranov Ext table H, and M by columns.

    columns[k] maps i to the multiplicity of the k-th Kapranov label in the
    i-th wedge sheaf /\^(box[i]')(S).  The box lists larger diagrams first,
    as the Kapranov collection does.
    """
    kapranov = kapranov_collection(d, n)
    box = [normalize(label[0]) for label in kapranov.labels]
    index = {lam: k for k, lam in enumerate(box)}
    columns: list[dict[int, int]] = [{} for _ in box]
    for i, lam in enumerate(box):
        for nu, m in wedge_schur_multiplicities(conjugate(lam), d).items():
            columns[index[nu]][i] = m
    return box, ext_table(kapranov), columns


class WedgeReport(FrozenValue):
    """Ext-vanishing check for the wedge-power bundle sum on Grass(d, n).

    The wedge summands decompose, so this is a tilting-bundle check only;
    exceptionality of the individual summands is not claimed.  (d, n) are the
    fields; `k0_rank`, `end_dim` and `higher_ext_witness`, slots after them,
    are read at construction from the Kapranov table.
    """

    __slots__ = ("d", "n", "k0_rank", "end_dim", "higher_ext_witness")
    _fields = ("d", "n")

    def __init__(self, d: int, n: int):
        box, table, columns = _wedge_columns(d, n)
        # M^T H M on H's positive-degree entries only: a Kapranov table has none,
        # so this is empty, but a higher entry of H would still be caught here
        higher: dict[tuple[int, int, int], int] = {}
        for (k, l, s), v in table.higher_entries():
            for i, a in columns[k].items():
                for j, b in columns[l].items():
                    higher[(i, j, s)] = higher.get((i, j, s), 0) + a * v * b
        witness = ExtTable(len(box), table.max_degree, higher).higher_witness()
        if witness is not None:
            witness = (box[witness[0]], box[witness[1]], *witness[2:])
        end_dim = table.end_dim([sum(col.values()) for col in columns])
        self._set(d, n, len(box), end_dim, witness)

    @property
    def is_tilting(self) -> bool:
        return self.higher_ext_witness is None


def generalized_bs_summary(a: CSAClass, d: int) -> DescentSummary:
    """Descent inventory for the twisted form of Grass(d, degree).

    One summand per partition in the d x (n-d) box; each wedge-power sheaf
    descends after taking n*conjugate-part many copies, and End is computed
    over the splitting field as u^T H_0 u, with u = M mults.
    """
    n = a.degree
    if not 1 <= json_int(d, "d") < n:
        raise ValueError("need 1 <= d < degree")
    box, table, columns = _wedge_columns(d, n)
    mults = []
    split_ranks = []
    for lam in box:
        conj = conjugate(lam)
        mults.append(descent_multiplicity(lam, n))
        split_ranks.append(prod(comb(d, c) for c in conj))
    ranks = tuple(m * r for m, r in zip(mults, split_ranks))
    return DescentSummary(
        summand_labels=tuple(box),
        multiplicities=tuple(mults),
        ranks=ranks,
        end_dim=table.end_dim([sum(mults[i] * m for i, m in col.items()) for col in columns]),
        notes=("multiplicities are sufficient for descent, not claimed minimal",),
    )


_TOWER_NOTE = (
    "end_dim composed multiplicatively (product model); a twist-exact End "
    "dimension for the relative candidate comes from the fibration engine"
)


def twisted_tower_summary(summaries) -> DescentSummary:
    """Compose per-stage descent summaries along a tower of twisted forms.

    Each stage is a summary (`bs_tilting_summary`, `generalized_bs_summary`).
    Summand labels are tuples of per-stage labels; multiplicities and ranks
    multiply, and end_dim is composed in the product model.
    """
    summaries = tuple(summaries)
    if not summaries:
        raise ValueError("tower needs at least one stage")
    if len(summaries) == 1:
        return summaries[0]
    labels = tuple(iter_product(*(s.summand_labels for s in summaries)))
    mults = tuple(
        prod(parts) for parts in iter_product(*(s.multiplicities for s in summaries))
    )
    ranks = tuple(prod(parts) for parts in iter_product(*(s.ranks for s in summaries)))
    return DescentSummary(
        summand_labels=labels,
        multiplicities=mults,
        ranks=ranks,
        end_dim=prod(s.end_dim for s in summaries),
        notes=(_TOWER_NOTE,),
    )
