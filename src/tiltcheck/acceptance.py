"""Acceptance battery: one function per criterion, exact tolerances.

Each criterion returns (passed, detail).  `run_all` is shared by the CLI
selftest and the pytest acceptance module, so the shipped checks and the test
suite cannot drift apart.
"""

from __future__ import annotations

import random
from math import comb

from . import bwb, descent, fibration
from . import collections as coll
from .partitions import enumerate_box_partitions
from .schur import lr_expand, schur_dimension

KAPRANOV_MAX_N = 7
ORACLE_SPACES = ((2, 4), (2, 5), (3, 6))
ORACLE_PAIRS = 100
ORACLE_SEED = 20150318


def kapranov_sweep(max_n: int = KAPRANOV_MAX_N):
    """Criterion 1: every Grassmannian collection up to n = 7 verifies."""
    checked = 0
    for n in range(2, max_n + 1):
        for d in range(1, n):
            spec = coll.kapranov_collection(d, n)
            table = coll.ext_table(spec)
            report = coll.verify_tilting(spec, table)
            if not report.passed:
                return False, f"Grass({d},{n}) failed: {report}"
            if report.k0_rank != comb(n, d):
                return False, f"Grass({d},{n}) k0_rank {report.k0_rank} != C({n},{d})"
            checked += 1
    return True, f"{checked} Grassmannian collections verified, k0 ranks exact"


def oracle_equivalence():
    """Criterion 2: alternating Ext sums agree with localization, 100/100."""
    rng = random.Random(ORACLE_SEED)
    total = 0
    for d, n in ORACLE_SPACES:
        box = enumerate_box_partitions(d, n - d).members
        for _ in range(ORACLE_PAIRS):
            a = rng.choice(box)
            b = rng.choice(box)
            table = coll.schur_pair_ext(d, n, a, b)
            chi = sum((-1) ** s * v for s, v in table.items())
            if chi != bwb.localization_euler(a, b, d, n):
                return False, f"mismatch at Grass({d},{n}), pair {a}, {b}"
            total += 1
    return True, f"{total} randomized Euler characteristics agree exactly"


def classical_cohomology_agreement():
    """Criterion 3: the Weyl walk on Grass(1, n+1) matches monomial counting.

    Sweeps one dimension past the required n <= 5 so the case count is the
    advertised 126.
    """
    cases = 0
    for n in range(1, 7):
        space = bwb.grassmannian(1, n + 1)
        for m in range(-10, 11):
            walk = bwb.flag_cohomology(bwb.of_sub_dual(space, (m,)))
            classical = bwb.pn_line_cohomology(m, n)
            if (walk is None) != (classical is None):
                return False, f"P^{n}, O({m}): vanishing disagrees"
            if walk is not None and (walk.degree, walk.dimension) != (
                classical.degree,
                classical.dimension,
            ):
                return False, f"P^{n}, O({m}): {walk} vs {classical}"
            cases += 1
    return True, f"{cases} line-bundle cohomologies agree exactly"


def kronecker_check():
    """Criterion 4: the CLI Beilinson report on P^1 is the Kronecker quiver."""
    import io
    import json
    from contextlib import redirect_stdout

    from . import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["verify", "beilinson", "--n", "1"])
    if code != 0:
        return False, f"exit code {code}"
    report = json.loads(buf.getvalue())
    matrix = [[int(x) for x in row] for row in report["result"]["hom_matrix"]]
    if matrix != [[1, 2], [0, 1]]:
        return False, f"hom matrix {matrix}"
    return True, "Hom matrix [[1,2],[0,1]], exit 0"


def descent_bookkeeping():
    """Criterion 5: conic counts and split-class agreement with Beilinson."""
    quaternion = descent.bs_tilting_summary(descent.CSAClass(2, 2))
    if quaternion.ranks != (1, 2) or quaternion.total_rank != 3 or quaternion.end_dim != 9:
        return False, f"quaternion summary {quaternion}"
    for n in range(2, 7):
        summary = descent.bs_tilting_summary(descent.split_class(n))
        report = coll.verify_tilting(coll.beilinson_collection(n - 1))
        if summary.total_rank != n or summary.end_dim != report.end_algebra_dim:
            return False, f"split degree {n}: {summary.end_dim} vs {report.end_algebra_dim}"
    return True, "conic ranks [1,2]/3/9; split classes match Beilinson for n <= 6"


def generalized_bs():
    """Criterion 6: the (4, 2) inventory and the wedge collection in char 0."""
    summary = descent.generalized_bs_summary(descent.CSAClass(4, 2), 2)
    if summary.summand_count != 6:
        return False, f"{summary.summand_count} labels"
    idx = summary.summand_labels.index((1,))
    if summary.multiplicities[idx] != 4 or summary.ranks[idx] != 8:
        return False, f"lambda=(1): mult {summary.multiplicities[idx]}, rank {summary.ranks[idx]}"
    wedge = descent.verify_wedge_collection(2, 4)
    if not wedge.is_tilting:
        return False, f"wedge collection failed: {wedge.higher_ext_witness}"
    return True, "6 labels, mult((1)) = 4, rank 8, wedge sum has no higher Ext"


def fibration_twist_search():
    """Criterion 7: twist search, flag-tower agreement, and the C_2 count."""
    base = fibration.BaseModel(1)
    fiber = fibration.GrassFiber(1, (0, 1))
    stuck = fibration.verify_plan(fibration.FibrationPlan(base, fiber, 0))
    if stuck.verified or stuck.obstruction[2:] != (1, 1):
        return False, f"m=0 witness {stuck.obstruction}"
    plan = fibration.twist_search(base, fiber, 4)
    if not plan.verified or plan.twist != 1 or len(plan.summands()) != 4:
        return False, f"search result twist={plan.twist}, verified={plan.verified}"
    tower = fibration.tower_compose(
        [fibration.GrassFiber(2, (0, 0, 0)), fibration.GrassFiber(1, taut=True)],
        fibration.point_base(),
        2,
    )
    flag_table = coll.ext_table(coll.flag_collection(bwb.FlagSpace(3, (1, 2))))
    if not tower.verified or tower.table != flag_table or len(tower.summands()) != 6:
        return False, "flag tower does not reproduce the absolute table"
    sp = fibration.tower_compose([fibration.GrassFiber(1, (0, 1))], fibration.BaseModel(3), 6)
    if not sp.verified or len(sp.summands()) != 8:
        return False, f"C_2-shaped plan gives {len(sp.summands())} summands"
    return True, "m=0 fails with Ext^1 dim 1, m=1 verifies (4 summands); flag tower exact; 8 summands"


def invariance_suite():
    """Criterion 8: multiplicity scaling, global twist, LR symmetry and sums."""
    corpus = [
        coll.kapranov_collection(1, 3),
        coll.kapranov_collection(2, 4),
        coll.beilinson_collection(2),
    ]
    for spec in corpus:
        table = coll.ext_table(spec)
        base = coll.verify_tilting(spec, table)
        mults = tuple(i + 2 for i in range(len(spec.labels)))
        scaled = coll.verify_tilting(spec.with_multiplicities(mults), table)
        if scaled.passed != base.passed:
            return False, f"multiplicity scaling flips the verdict on {spec.order_note}"
        expected = sum(
            mults[i] * mults[j] * table.get(i, j, 0)
            for i in range(len(spec.labels))
            for j in range(len(spec.labels))
        )
        if scaled.end_algebra_dim != expected:
            return False, "scaled end dimension is not sum r_i r_j h_ij"
        if spec.space.is_grassmannian:
            for power in (1, -2):
                twisted = coll.ext_table(coll.twist_collection(spec, power))
                if twisted != table:
                    return False, f"det twist by {power} changed the Ext table"
    box = enumerate_box_partitions(3, 3).members
    for n in range(1, 6):
        for a in box:
            for b in box:
                left = lr_expand(a, b, n)
                if left != lr_expand(b, a, n):
                    return False, f"LR symmetry fails at {a}, {b}, rank {n}"
                total = sum(c * schur_dimension(nu, n) for nu, c in left.items())
                if total != schur_dimension(a, n) * schur_dimension(b, n):
                    return False, f"dimension bookkeeping fails at {a}, {b}, n={n}"
    return True, "scaling/twist invariance and LR bookkeeping hold on the corpus"


CRITERIA = (
    ("1 kapranov sweep", kapranov_sweep),
    ("2 oracle equivalence", oracle_equivalence),
    ("3 classical cohomology", classical_cohomology_agreement),
    ("4 kronecker check", kronecker_check),
    ("5 descent bookkeeping", descent_bookkeeping),
    ("6 generalized brauer-severi", generalized_bs),
    ("7 fibration twist search", fibration_twist_search),
    ("8 invariance suite", invariance_suite),
)


def run_all(criteria=None):
    """Run the battery; `criteria` may be a comma list of criterion numbers.

    A number that names no criterion is rejected before anything runs.
    """
    wanted = None
    if criteria:
        wanted = {int(x) for x in str(criteria).split(",")}
        unknown = sorted(wanted - {int(name.split()[0]) for name, _fn in CRITERIA})
        if unknown:
            raise ValueError(f"no criterion numbered {', '.join(map(str, unknown))}")
    results = []
    for name, fn in CRITERIA:
        number = int(name.split()[0])
        if wanted is not None and number not in wanted:
            continue
        passed, detail = fn()
        results.append((name, passed, detail))
    return results
