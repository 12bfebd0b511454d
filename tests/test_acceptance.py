"""The acceptance gate: ten executable criteria, one test per criterion.

Each test prints — and registers for the end-of-run summary — exactly one
line of the form ``[acceptance] criterion N: PASS|FAIL — detail``.

Criteria 4 and 5 print FAIL: the triangle-style bound they examine
(``SU(x,y) + SU(y,z) <= SU(x,z) + SU(y,y)``, equivalently the triangle
inequality for ``d = 1 - SU``) is not a theorem.  The smallest
counterexample has three uniform rows split ``{0,2}|{1}``,
``{0}|{1}|{2}`` and ``{0}|{1,2}``; routing through the middle (finest)
column beats the direct distance by about 0.1933, and 76 of the 1001
acceptance datasets violate the bound the same way.  ``d`` is a
semimetric, not a metric, and the verdict lines say so.

The pytest outcome of those two tests reports whether the checker told
the truth.  They assert that every other clause (symmetry,
nonnegativity, boundedness, zero exactly on indiscernible pairs, and so
on) holds with zero violations; that the set of datasets the checker
flags for the triangle clause equals the set an exhaustive
recomputation with the Counter-based oracles in ``tests/oracle.py``
flags; and that the merged worst slack and its witness triple match the
oracle's.  Criterion 5 adds a positive control: the same checker must
pass every axiom, the triangle inequality included, on the Rajski
distance ``1 - MI/H(X,Y)``, a true metric on the same columns.  Nothing
here is weakened to hide the FAIL.
"""

import itertools
import time
from fractions import Fraction

import pytest

from catent.algebra import (
    are_indiscernible,
    check_contractivity,
    check_monoid_laws,
)
from catent.entropy import (
    TOLERANCE,
    check_conditional_entropy_laws,
    symmetric_uncertainty,
)
from catent.metric import (
    DistanceMatrix,
    check_distance_axioms,
    check_similarity_axioms,
    cross_check,
    distance_matrix,
    merge_reports,
    nondiscreteness_demo,
)
from catent.model import (
    canonical_classes,
    contingency,
    induced_partition,
    join,
)
from catent.randgen import GenConfig, gen_dataset

import oracle
from conftest import ACCEPTANCE_LINES

POPULATION_SIZE = 1000


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] criterion {criterion}: {status} — {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


class _Timer:
    def __enter__(self):
        self.elapsed = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start


def _oracle_slacks(dataset, pair_value, margin):
    """Margin of every ordered column triple, from oracle pair values.

    The oracles read raw label sequences, so the dataset must have
    uniform row weights, as every acceptance dataset does.
    """
    assert len(set(dataset.row_weights)) == 1
    cols = {nm: dataset[nm].labels for nm in dataset.names}
    value = {
        (a, b): pair_value(cols[a], cols[b])
        for a, b in itertools.product(cols, repeat=2)
    }
    return {
        triple: margin(value, *triple) for triple in itertools.product(cols, repeat=3)
    }


def _su_bound_margin(su, x, y, z):
    """``SU(x,z) + SU(y,y) - SU(x,y) - SU(y,z)``, as in ``triangle_bound``."""
    return su[x, z] + su[y, y] - su[x, y] - su[y, z]


def _triangle_margin(d, x, y, z):
    """``d(x,y) + d(y,z) - d(x,z)``, as in ``triangle_inequality``."""
    return d[x, y] + d[y, z] - d[x, z]


def _assert_triangle_verdict_faithful(reports, triangle, datasets, pair_value, margin):
    """The checker's triangle verdicts, violation count, merged worst slack
    and witness all match an exhaustive oracle recomputation on every dataset."""
    slacks = {tag: _oracle_slacks(ds, pair_value, margin) for tag, ds in datasets}
    worst = {tag: min(s.values()) for tag, s in slacks.items()}
    violating = sum(v < -TOLERANCE for s in slacks.values() for v in s.values())
    assert triangle.violations == violating
    assert triangle.nonvacuous == triangle.instances == sum(map(len, slacks.values()))
    checker_says = {tag for tag, r in reports.items() if not r.check(triangle.name).passed}
    oracle_says = {tag for tag, w in worst.items() if w < -TOLERANCE}
    assert checker_says == oracle_says, sorted(checker_says ^ oracle_says, key=str)
    assert abs(triangle.worst_slack - min(worst.values())) <= 1e-9
    # merge_reports keeps the first dataset attaining the minimum, as min does
    witness_tag = min(reports, key=lambda tag: reports[tag].check(triangle.name).worst_slack)
    assert abs(slacks[witness_tag][triangle.witness] - triangle.worst_slack) <= 1e-9


def _rajski_matrix(dataset) -> DistanceMatrix:
    """Rajski distances ``1 - MI/H(X,Y)`` between the columns: a true metric."""
    names = dataset.names
    cols = [dataset[nm].labels for nm in names]
    values = [[0.0] * len(names) for _ in names]
    for i, j in itertools.combinations(range(len(names)), 2):
        values[i][j] = values[j][i] = oracle.oracle_rajski_distance(cols[i], cols[j])
    return DistanceMatrix(names, values)


@pytest.fixture(scope="module")
def population():
    """1000 seeded datasets: at most 12 rows, 4 symbols, 5 columns."""
    return list(oracle.acceptance_population(range(POPULATION_SIZE)))


def test_criterion_1_reference_su_values(internship):
    with _Timer() as t:
        target = induced_partition(internship["GotHired"], internship)
        gaps = {
            feature: abs(
                symmetric_uncertainty(
                    induced_partition(internship[feature], internship), target
                )
                - expected
            )
            for feature, expected in oracle.REFERENCE_SU_4DP.items()
        }
        worst = max(gaps.values())
    ok = worst <= 5e-5 and t.elapsed < 1.0
    _report(
        1,
        ok,
        f"five reference SU values reproduced to 4 decimals "
        f"(worst gap {worst:.2e}; {t.elapsed:.2f}s)",
    )
    assert worst <= 5e-5, gaps
    assert t.elapsed < 1.0


def test_criterion_2_contingency_counts(internship):
    with _Timer() as t:
        table = contingency(
            internship["Creativity"], internship["GotHired"], internship
        )
        n = internship.row_count
        expected_counts = {
            ("D", "Y"): 8, ("S", "Y"): 1, ("I", "Y"): 0,
            ("D", "N"): 1, ("S", "N"): 4, ("I", "N"): 6,
        }
        mismatches = {
            pair: (table.mass(*pair) * n, want)
            for pair, want in expected_counts.items()
            if table.mass(*pair) * n != Fraction(want)
        }
        total = sum(cell for row in table.counts for cell in row)
    ok = not mismatches and total == 1 and t.elapsed < 1.0
    _report(
        2,
        ok,
        f"Creativity x GotHired cell counts exact "
        f"(8/1/0 and 1/4/6; {t.elapsed:.2f}s)",
    )
    assert not mismatches, mismatches
    assert total == 1
    assert t.elapsed < 1.0


def test_criterion_3_indiscernible_pair(indiscernibles):
    with _Timer() as t:
        digits = induced_partition(indiscernibles["digits"], indiscernibles)
        letters = induced_partition(indiscernibles["letters"], indiscernibles)
        marginals = set(digits.block_probs)
        expected = {Fraction(2, 5), Fraction(1, 10), Fraction(1, 2)}
        same = are_indiscernible(
            indiscernibles["digits"], indiscernibles["letters"], indiscernibles
        )
        su = symmetric_uncertainty(digits, letters)
    ok = marginals == expected and same and abs(su - 1.0) <= 1e-12 and t.elapsed < 1.0
    _report(
        3,
        ok,
        f"marginals exactly {{2/5, 1/10, 1/2}}, columns indiscernible, "
        f"SU = {su} ({t.elapsed:.2f}s)",
    )
    assert marginals == expected
    assert same
    assert abs(su - 1.0) <= 1e-12
    assert t.elapsed < 1.0


def test_criterion_4_similarity_conditions(internship, population):
    datasets = [("internship", internship), *population]
    with _Timer() as t:
        reports = {tag: check_similarity_axioms(ds) for tag, ds in datasets}
        merged = merge_reports(reports.values())
    triangle = merged.check("triangle_bound")
    others = [c for c in merged.checks if c.name != "triangle_bound"]
    violators = [tag for tag, r in reports.items() if not r.check(triangle.name).passed]
    if merged.passed:
        detail = f"all similarity conditions hold on {len(datasets)} datasets ({t.elapsed:.1f}s)"
    else:
        detail = (
            f"{len(violators)}/{len(datasets)} datasets violate the triangle-style bound "
            f"(first at seed={violators[0]}, worst slack {triangle.worst_slack:.6f} "
            f"at witness {','.join(triangle.witness)}); the other five conditions "
            f"hold with zero violations ({t.elapsed:.1f}s)"
        )
    _report(4, merged.passed, detail)
    assert t.elapsed < 60.0
    # the five universally valid conditions must never fail; only the
    # triangle-style bound is genuinely falsifiable
    for check in others:
        assert check.passed, merged.summary()
        assert check.violations == 0 and check.nonvacuous == check.instances
    _assert_triangle_verdict_faithful(
        reports, triangle, datasets, oracle.oracle_su, _su_bound_margin
    )


def test_criterion_5_distance_metric_axioms(internship, population):
    datasets = [("internship", internship), *population]
    with _Timer() as t:
        reports = {
            tag: check_distance_axioms(distance_matrix(ds), canonical_classes(ds))
            for tag, ds in datasets
        }
        merged = merge_reports(reports.values())
    triangle = merged.check("triangle_inequality")
    others = [c for c in merged.checks if c.name != "triangle_inequality"]
    violators = [tag for tag, r in reports.items() if not r.check(triangle.name).passed]
    if merged.passed:
        detail = f"all metric axioms hold on {len(datasets)} distance matrices ({t.elapsed:.1f}s)"
    else:
        detail = (
            f"{len(violators)}/{len(datasets)} distance matrices violate the triangle "
            f"inequality (first at seed={violators[0]}, worst slack "
            f"{triangle.worst_slack:.6f}); symmetry, nonnegativity and "
            f"zero-iff-indiscernible hold with zero violations ({t.elapsed:.1f}s)"
        )
    _report(5, merged.passed, detail)
    assert t.elapsed < 60.0
    for check in others:
        assert check.passed, merged.summary()
        assert check.violations == 0 and check.nonvacuous == check.instances
    _assert_triangle_verdict_faithful(
        reports, triangle, datasets, oracle.oracle_distance, _triangle_margin
    )
    # positive control: the same checker must PASS a true metric on the
    # same columns, so its FAIL on 1 - SU is evidence, not bias
    rajski = merge_reports(
        check_distance_axioms(_rajski_matrix(ds), canonical_classes(ds))
        for _, ds in datasets
    )
    assert rajski.passed, rajski.summary()
    assert rajski.check("triangle_inequality").instances == sum(
        len(ds.names) ** 3 for _, ds in datasets
    )


def test_criterion_6_conditional_entropy_laws(population):
    with _Timer() as t:
        triples_checked = 0
        nonvacuous = {"coarsening_monotone": 0, "zero_iff_coarser": 0}
        failed = []

        def run(tag, parts):
            nonlocal triples_checked
            report = check_conditional_entropy_laws(*parts)
            triples_checked += 1
            for name in nonvacuous:
                if not report.clause(name).vacuous:
                    nonvacuous[name] += 1
            if not report.passed:
                failed.append((tag, report.failures()))

        for seed, dataset in population:
            parts = [
                induced_partition(dataset[nm], dataset) for nm in dataset.names
            ]
            run(f"seed={seed}", (parts[0], parts[1], parts[-1]))
        # refinement-mode datasets guarantee the coarsening clauses fire
        for seed in range(5000, 5150):
            dataset = gen_dataset(
                GenConfig(seed=seed, correlation_mode="refined"), columns=3
            )
            parts = [
                induced_partition(dataset[nm], dataset) for nm in dataset.names
            ]
            run(f"refined-seed={seed}", (parts[0], parts[1], parts[2]))
    ok = (
        not failed
        and triples_checked >= 1000
        and all(count >= 100 for count in nonvacuous.values())
        and t.elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"all law clauses hold on {triples_checked} random triples "
        f"(coarsening clauses non-vacuous {nonvacuous['coarsening_monotone']} "
        f"and {nonvacuous['zero_iff_coarser']} times; {t.elapsed:.1f}s)",
    )
    assert not failed, failed[:3]
    assert triples_checked >= 1000
    for name, count in nonvacuous.items():
        assert count >= 100, (name, count)
    assert t.elapsed < 60.0


def test_criterion_7_monoid_laws(internship, population):
    with _Timer() as t:
        reports = [check_monoid_laws(internship)]  # exhaustive: 216 triples
        random_triples = 0
        for seed, dataset in population:
            report = check_monoid_laws(dataset, triples=1, seed=seed)
            random_triples += report.check("associativity").instances
            reports.append(report)
        merged = merge_reports(reports)
    exhaustive = merged.check("associativity").instances - random_triples
    law_names = (
        "associativity",
        "commutativity",
        "identity_element",
        "well_definedness",
    )
    exact = all(merged.check(nm).worst_slack == 0.0 for nm in law_names)
    ok = merged.passed and exact and exhaustive == 216 and random_triples >= 1000 and t.elapsed < 60.0
    _report(
        7,
        ok,
        f"monoid laws hold by exact class equality on {exhaustive} exhaustive "
        f"and {random_triples} random triples ({t.elapsed:.1f}s)",
    )
    assert merged.passed, merged.summary()
    assert exact
    assert exhaustive == 216
    assert random_triples >= 1000
    assert t.elapsed < 60.0


def test_criterion_8_contractivity(internship, population):
    with _Timer() as t:
        reports = [check_contractivity(internship)]  # exhaustive: 6^4 quadruples
        random_quads = 0
        for seed, dataset in population:
            report = check_contractivity(dataset, quadruples=1, seed=seed)
            random_quads += report.check("contractivity").instances
            reports.append(report)
        merged = merge_reports(reports)
    check = merged.check("contractivity")
    exhaustive = check.instances - random_quads
    ok = (
        merged.passed
        and exhaustive == 6**4
        and random_quads >= 1000
        and check.worst_slack >= -1e-9
        and t.elapsed < 120.0
    )
    _report(
        8,
        ok,
        f"d(x*y, z*w) <= d(x,z) + d(y,w) on {exhaustive} exhaustive and "
        f"{random_quads} random quadruples, zero violations "
        f"(worst slack {check.worst_slack:.3e}; {t.elapsed:.1f}s)",
    )
    assert merged.passed, merged.summary()
    assert exhaustive == 6**4
    assert random_quads >= 1000
    assert t.elapsed < 120.0


def test_criterion_9_nondiscreteness():
    with _Timer() as t:
        sequence = nondiscreteness_demo(steps=11)  # n = 4, 8, ..., 4096
    distances = [d for _, d in sequence]
    max_n = round(1.0 / sequence[-1][0])
    ok = (
        all(d > 0.0 for d in distances)
        and all(a > b for a, b in zip(distances, distances[1:]))
        and min(distances) < 0.05
        and max_n <= 4096
        and t.elapsed < 5.0
    )
    _report(
        9,
        ok,
        f"distinct-column distances strictly decrease from "
        f"{distances[0]:.4f} to {distances[-1]:.4f} < 0.05 at n={max_n} "
        f"({t.elapsed:.2f}s)",
    )
    assert all(d > 0.0 for d in distances)
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert min(distances) < 0.05
    assert max_n <= 4096
    assert t.elapsed < 5.0


def test_criterion_10_route_consistency(internship, population):
    with _Timer() as t:
        worst = 0.0
        pairs = 0

        def scan(partitions):
            nonlocal worst, pairs
            for x in partitions:
                for y in partitions:
                    gap = -min(c.worst_slack for c in cross_check(x, y).checks)
                    pairs += 1
                    if gap > worst:
                        worst = gap

        for seed, dataset in population:
            scan([induced_partition(dataset[nm], dataset) for nm in dataset.names])
        base = [induced_partition(internship[nm], internship) for nm in internship.names]
        scan(base)
        # the joint partitions exercised by the contractivity criterion
        joints = [join(x, y) for x, y in itertools.product(base, repeat=2)]
        scan(joints)
    ok = worst <= 1e-9
    _report(
        10,
        ok,
        f"alternative formulas for MI, SU and the distance agree within "
        f"{worst:.2e} over {pairs} pairs ({t.elapsed:.1f}s)",
    )
    assert worst <= 1e-9
