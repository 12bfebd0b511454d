"""Exhaustive checks over Pi_n, the set partitions of n rows.

Pi_3 has 5 partitions and Pi_4 has 15, so every ordered triple and
quadruple is checked.  The SU-distance fails the triangle inequality on
both, holds relaxed by 3/2 (Paluszynski & Stempak 2009 on such
quasi-metrics), and the joint stays contractive; the oracle in ``tests/oracle.py``
recomputes every tally from label strings.  Both lattices are checked on
uniform rows and on fixed non-uniform weights, which the oracle reads as
the uniform expansion (row r repeated ``repeats[r]`` times).  The
contractivity checker is also run over every quadruple of Pi_3 and Pi_4,
through a patched ``catent.algebra.partition_distance``, on distances
whose verdicts are known both ways: the joint is not contractive for the
entropy gap ``|H(x) - H(y)|``, and it is for the Rajski distance and the
variation of information (Meila 2007; Vinh, Epps & Bailey 2010).  The
Rajski distance ``D`` bounds the SU-distance both ways, ``d <= D <= 2d``,
with a negative control at each end, and entropy is continuous in ``d``:
``|H(x) - H(y)| <= d(x,y) * (H(x) + H(y))``, tight on nested pairs.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given

from catent import algebra, metric
from catent.algebra import check_contractivity
from catent.entropy import TOLERANCE, conditional_entropy, entropy, mutual_information
from catent.metric import check_distance_axioms, distance_matrix, partition_distance
from catent.model import Dataset, canonical_classes, join
from catent.randgen import GenConfig, gen_dataset

import oracle
import strategies


def lattice(n: int, repeats=None) -> Dataset:
    """Pi_n as a dataset: one column per set partition, named by its blocks.
    With ``repeats``, row r weighs ``repeats[r] / sum(repeats)``."""
    weights = None if repeats is None else [Fraction(m, sum(repeats)) for m in repeats]
    return Dataset.from_columns(
        {oracle.block_name(codes): codes for codes in oracle.set_partitions(n)}, weights
    )


def kernel_tally(n: int, width: int, slack, repeats=None) -> tuple[int, float, tuple]:
    """``(violations, worst slack, first worst instance)`` of ``slack`` over
    every ordered ``width``-tuple of Pi_n, on ``partition_distance`` and
    ``join``; the instance is a tuple of block names."""
    parts = canonical_classes(lattice(n, repeats))
    d, j = functools.cache(partition_distance), functools.cache(join)
    margins = {t: slack(d, j, *map(parts.get, t))
               for t in itertools.product(parts, repeat=width)}
    witness = min(margins, key=margins.get)
    return sum(m < -TOLERANCE for m in margins.values()), margins[witness], witness


def expanded_distance(repeats):
    """The oracle distance on the uniform expansion, where row r of a
    restricted growth string is repeated ``repeats[r]`` times."""
    def expand(codes):
        return tuple(c for c, m in zip(codes, repeats) for _ in range(m))

    return lambda xs, ys: oracle.oracle_distance(expand(xs), expand(ys))


def rajski(x, y) -> float:
    h = entropy(join(x, y))
    return 0.0 if h == 0.0 else 1.0 - mutual_information(x, y) / h


def variation_of_information(x, y) -> float:
    return conditional_entropy(x, y) + conditional_entropy(y, x)


def entropy_gap(x, y) -> float:
    return abs(entropy(x) - entropy(y))


def sandwich_misses(pairs, low: float, high: float) -> int:
    """How many partition pairs break ``low * d <= D <= high * d`` by more
    than ``TOLERANCE``, with ``d = 1 - SU`` and ``D`` the Rajski distance."""
    return sum(not low * d - TOLERANCE <= big <= high * d + TOLERANCE
               for d, big in ((partition_distance(x, y), rajski(x, y)) for x, y in pairs))


def acceptance_classes():
    """The column partitions of each acceptance-population dataset, seeds 0-999."""
    for seed in range(1000):
        data = gen_dataset(GenConfig(seed=seed), columns=seed % 4 + 2)
        yield list(canonical_classes(data).values())


def continuity_misses(pairs, factor: float) -> list:
    """The partition pairs that break ``|H(x) - H(y)| <= factor * d(x,y) *
    (H(x) + H(y))`` by more than ``TOLERANCE``, with ``d = 1 - SU``."""
    return [(x, y) for x, y in pairs
            if abs(entropy(x) - entropy(y))
            > factor * partition_distance(x, y) * (entropy(x) + entropy(y)) + TOLERANCE]


class TestPi3Validators:
    def test_triangle_inequality_fails_on_six_triples(self):
        data = lattice(3)
        report = check_distance_axioms(distance_matrix(data), canonical_classes(data))
        assert [c.name for c in report.failures()] == ["triangle_inequality"]
        tri = report.check("triangle_inequality")
        assert (tri.instances, tri.violations) == (125, 6)
        assert tri.worst_slack == pytest.approx(-0.19334, abs=5e-6)
        assert tri.worst_slack == pytest.approx(-oracle.TRIANGLE_CE_VIOLATION,
                                                abs=oracle.FROZEN_TOL)
        x, y, z = (data[nm].labels for nm in tri.witness)
        d = oracle.oracle_distance
        assert d(x, y) + d(y, z) - d(x, z) == pytest.approx(tri.worst_slack,
                                                            abs=oracle.FROZEN_TOL)
        violations, worst, _ = oracle.lattice_tally(3, 3, oracle.triangle_slack)
        assert violations == tri.violations
        assert worst == pytest.approx(tri.worst_slack, abs=oracle.FROZEN_TOL)

    def test_contractivity_holds_on_every_quadruple(self):
        check = check_contractivity(lattice(3)).check("contractivity")
        assert (check.instances, check.violations) == (625, 0)
        assert oracle.lattice_tally(3, 4, oracle.contractivity_slack)[0] == 0


class TestPi4Kernels:
    def test_tallies_match_the_oracle(self):
        triangle = kernel_tally(4, 3, oracle.triangle_slack)
        contractivity = kernel_tally(4, 4, oracle.contractivity_slack)
        assert triangle[0] == 276
        assert contractivity[0] == 0
        for (violations, worst, _), width, slack in (
            (triangle, 3, oracle.triangle_slack),
            (contractivity, 4, oracle.contractivity_slack),
        ):
            want, want_worst, _ = oracle.lattice_tally(4, width, slack)
            assert violations == want
            assert worst == pytest.approx(want_worst, abs=oracle.FROZEN_TOL)


class TestWeightedUniverses:
    """Pi_3 and Pi_4 on non-uniform rows: every kernel takes its masses
    from the integer multiplicities, and the oracle sees the same lattice
    on the uniform expansion."""

    PI3, PI4 = (2, 1, 1), (3, 1, 1, 1)  # weights (1/2, 1/4, 1/4) and (1/2, 1/6, 1/6, 1/6)

    @staticmethod
    def assert_differs_from_uniform(n, worst):
        # the counts equal the uniform ones; the worst slack does not
        uniform = oracle.lattice_tally(n, 3, oracle.triangle_slack)[1]
        assert worst != pytest.approx(uniform, abs=1e-6)

    def test_pi3_validators_match_the_oracle(self):
        data = lattice(3, self.PI3)
        tri = check_distance_axioms(
            distance_matrix(data), canonical_classes(data)
        ).check("triangle_inequality")
        want, want_worst, want_witness = oracle.lattice_tally(
            3, 3, oracle.triangle_slack, expanded_distance(self.PI3))
        assert (tri.instances, tri.violations) == (125, want)
        assert tri.worst_slack == pytest.approx(want_worst, abs=oracle.FROZEN_TOL)
        assert tri.witness == tuple(map(oracle.block_name, want_witness))
        self.assert_differs_from_uniform(3, tri.worst_slack)
        check = check_contractivity(data).check("contractivity")
        assert (check.instances, check.violations) == (625, 0)
        assert oracle.lattice_tally(
            3, 4, oracle.contractivity_slack, expanded_distance(self.PI3))[0] == 0

    def test_pi4_kernels_match_the_oracle(self):
        violations, worst, witness = kernel_tally(4, 3, oracle.triangle_slack, self.PI4)
        want, want_worst, want_witness = oracle.lattice_tally(
            4, 3, oracle.triangle_slack, expanded_distance(self.PI4))
        assert violations == want
        assert worst == pytest.approx(want_worst, abs=oracle.FROZEN_TOL)
        assert witness == tuple(map(oracle.block_name, want_witness))
        self.assert_differs_from_uniform(4, worst)
        assert kernel_tally(4, 4, oracle.contractivity_slack, self.PI4)[0] == 0


class TestContractivityControls:
    """The contractivity checker says no where it should, and only there."""

    @pytest.mark.parametrize("distance, oracle_distance, violations", [
        pytest.param(entropy_gap, oracle.oracle_entropy_gap, 36, id="entropy-gap"),
        pytest.param(rajski, oracle.oracle_rajski_distance, 0, id="rajski"),
        pytest.param(variation_of_information, oracle.oracle_variation_of_information, 0,
                     id="variation-of-information"),
    ])
    def test_violations_match_the_oracle(self, monkeypatch, distance, oracle_distance,
                                         violations):
        monkeypatch.setattr(algebra, "partition_distance", distance)
        check = check_contractivity(lattice(3)).check("contractivity")
        want, want_worst, want_witness = oracle.lattice_tally(
            3, 4, oracle.contractivity_slack, oracle_distance)
        assert (check.instances, check.violations) == (625, violations)
        assert want == violations
        assert check.worst_slack == pytest.approx(want_worst, abs=oracle.FROZEN_TOL)
        if violations:
            assert check.worst_slack == pytest.approx(-2 / 3, abs=oracle.FROZEN_TOL)
            assert check.witness == ("01|2", "01|2", "01|2", "02|1")
            assert tuple(map(oracle.block_name, want_witness)) == check.witness

    @pytest.mark.parametrize("distance, oracle_distance, violations", [
        pytest.param(None, oracle.oracle_distance, 0, id="su-distance"),
        pytest.param(entropy_gap, oracle.oracle_entropy_gap, 3780, id="entropy-gap"),
        pytest.param(rajski, oracle.oracle_rajski_distance, 0, id="rajski"),
        pytest.param(variation_of_information, oracle.oracle_variation_of_information, 0,
                     id="variation-of-information"),
    ])
    def test_every_quadruple_of_pi4_matches_the_oracle(self, monkeypatch, distance,
                                                       oracle_distance, violations):
        # Pi_4 has 15 columns: past EXHAUSTIVE_LIMIT, so lift it for this call
        monkeypatch.setattr(metric, "EXHAUSTIVE_LIMIT", 16)
        if distance is not None:
            monkeypatch.setattr(algebra, "partition_distance", distance)
        check = check_contractivity(lattice(4)).check("contractivity")
        want, want_worst, want_witness = oracle.lattice_tally(
            4, 4, oracle.contractivity_slack, oracle_distance)
        assert (check.instances, check.violations) == (15**4, violations)
        assert want == violations
        assert check.worst_slack == pytest.approx(want_worst, abs=oracle.FROZEN_TOL)
        if violations:
            assert check.worst_slack == pytest.approx(-1.0, abs=oracle.FROZEN_TOL)
            assert check.witness == ("01|23", "01|23", "01|23", "02|13")
            assert tuple(map(oracle.block_name, want_witness)) == check.witness


class TestRelaxedTriangle:
    """``1 - SU`` fails the triangle inequality but, as measured on Pi_3 to
    Pi_6 and on the acceptance seeds, satisfies it relaxed by 3/2:
    ``d(x,z) <= 3/2 * (d(x,y) + d(y,z))``.  The bound is attained on Pi_4
    by two independent columns of equal entropy and their join, and 1.49
    is too tight there.  Measured, not proved."""

    WITNESS = ("01|23", "0|1|2|3", "02|13")  # x, y = x*z, z

    @pytest.mark.parametrize("n, repeats", [
        (3, None), (4, None),
        (3, TestWeightedUniverses.PI3), (4, TestWeightedUniverses.PI4),
    ], ids=["pi3", "pi4", "pi3-weighted", "pi4-weighted"])
    def test_three_halves_holds_on_every_triple(self, n, repeats):
        slack = oracle.relaxed_triangle_slack(1.5)
        distance = oracle.oracle_distance if repeats is None else expanded_distance(repeats)
        assert kernel_tally(n, 3, slack, repeats)[0] == 0
        assert oracle.lattice_tally(n, 3, slack, distance)[0] == 0

    def test_three_halves_holds_on_every_triple_of_the_acceptance_seeds(self):
        slack, triples, misses = oracle.relaxed_triangle_slack(1.5), 0, 0
        for parts in acceptance_classes():
            d = functools.cache(partition_distance)
            for t in itertools.product(parts, repeat=3):
                triples += 1
                misses += slack(d, join, *t) < -TOLERANCE
        assert (triples, misses) == (56_000, 0)

    @given(strategies.weighted_datasets(max_rows=6))
    def test_three_halves_holds_on_weighted_universes(self, drawn):
        weighted, expanded = drawn
        slack = oracle.relaxed_triangle_slack(1.5)
        parts = canonical_classes(weighted)
        for t in itertools.product(parts, repeat=3):
            assert slack(partition_distance, join, *map(parts.get, t)) >= -TOLERANCE
            assert slack(oracle.oracle_distance, None, *map(expanded.get, t)) >= -TOLERANCE

    @classmethod
    def witness_slack(cls, factor: float) -> tuple[float, float]:
        """The relaxed slack at the witness, from the kernels and from the
        oracle; computed directly, since the all-constant triple reaches the
        minimum slack 0 first."""
        slack = oracle.relaxed_triangle_slack(factor)
        parts = canonical_classes(lattice(4))
        codes = {oracle.block_name(c): c for c in oracle.set_partitions(4)}
        return (slack(partition_distance, join, *map(parts.get, cls.WITNESS)),
                slack(oracle.oracle_distance, None, *map(codes.get, cls.WITNESS)))

    def test_independent_pair_attains_three_halves(self):
        for value in self.witness_slack(1.5):
            assert value == pytest.approx(0.0, abs=oracle.FROZEN_TOL)

    def test_factor_below_three_halves_fails_on_pi4(self):
        slack = oracle.relaxed_triangle_slack(1.49)
        violations, worst, _ = kernel_tally(4, 3, slack)
        want, want_worst, _ = oracle.lattice_tally(4, 3, slack)
        assert violations == want == 6
        assert worst == pytest.approx(-1 / 150, abs=oracle.FROZEN_TOL)
        assert want_worst == pytest.approx(-1 / 150, abs=oracle.FROZEN_TOL)
        for value in self.witness_slack(1.49):
            assert value == pytest.approx(-1 / 150, abs=oracle.FROZEN_TOL)


class TestRajskiSandwich:
    """With ``V = H(x|y) + H(y|x)``, ``d = V / (H(x) + H(y))`` and the Rajski
    distance is ``D = V / H(x*y)``.  ``max(H(x), H(y)) <= H(x*y) <= H(x) +
    H(y)`` gives ``d <= D <= 2d``, so the metric ``D`` (Rajski 1961) metrizes
    the topology of ``d`` on the quotient.  Both factors are tight: ``D = d``
    on an independent pair, and ``D / d`` nears 2 on the nondiscreteness
    pairs as the rows grow."""

    PI5 = (4, 2, 1, 1, 1)  # weights (4/9, 2/9, 1/9, 1/9, 1/9)

    @pytest.mark.parametrize("n, repeats", [
        (3, None), (4, None), (5, None),
        (3, TestWeightedUniverses.PI3), (4, TestWeightedUniverses.PI4), (5, PI5),
    ], ids=["pi3", "pi4", "pi5", "pi3-weighted", "pi4-weighted", "pi5-weighted"])
    def test_holds_on_every_ordered_pair(self, n, repeats):
        parts = canonical_classes(lattice(n, repeats)).values()
        assert sandwich_misses(itertools.product(parts, repeat=2), 1.0, 2.0) == 0

    def test_holds_on_every_column_pair_of_the_acceptance_seeds(self):
        misses = 0
        for parts in acceptance_classes():
            misses += sandwich_misses(itertools.combinations(parts, 2), 1.0, 2.0)
        assert misses == 0

    @given(strategies.weighted_datasets(max_rows=6))
    def test_holds_on_weighted_universes(self, drawn):
        parts = canonical_classes(drawn[0]).values()
        assert sandwich_misses(itertools.product(parts, repeat=2), 1.0, 2.0) == 0

    def test_factor_below_two_fails_on_the_256_row_demo_pair(self):
        # the columns of nondiscreteness_demo at 256 rows: D / d is 1.9361
        data = Dataset.from_columns({
            "first_half": ["in" if r < 128 else "out" for r in range(256)],
            "half_plus_one": ["in" if r < 129 else "out" for r in range(256)],
        })
        pair = tuple(canonical_classes(data).values())
        assert rajski(*pair) / partition_distance(*pair) == pytest.approx(1.9361, abs=1e-4)
        assert sandwich_misses([pair], 1.0, 2.0) == 0
        assert sandwich_misses([pair], 1.0, 1.9) == 1

    def test_factor_above_one_fails_on_an_independent_pair(self):
        parts = canonical_classes(lattice(4))
        pair = parts["01|23"], parts["02|13"]  # independent, so D = d = 1
        assert sandwich_misses([pair], 1.0, 2.0) == 0
        assert sandwich_misses([pair], 1.01, 2.0) == 1


class TestEntropyIsContinuous:
    """``|H(x) - H(y)| = |H(x|y) - H(y|x)| <= V(x,y) = d(x,y) * (H(x) + H(y))``,
    so entropy is continuous in ``d``.  Equality holds when one partition is
    coarser than the other, so a factor below 1 fails on every strictly
    nested pair."""

    @pytest.mark.parametrize("n, nested", [(3, 14), (4, 90), (5, 612)],
                             ids=["pi3", "pi4", "pi5"])
    def test_holds_on_every_ordered_pair(self, n, nested):
        pairs = list(itertools.product(canonical_classes(lattice(n)).values(), repeat=2))
        assert continuity_misses(pairs, 1.0) == []
        strictly_nested = [(x, y) for x, y in pairs if x != y and (
            oracle.oracle_is_coarser(x.codes, y.codes)
            or oracle.oracle_is_coarser(y.codes, x.codes))]
        assert len(strictly_nested) == nested
        assert continuity_misses(pairs, 0.99) == strictly_nested

    def test_holds_on_every_column_pair_of_the_acceptance_seeds(self):
        pairs = [pair for parts in acceptance_classes()
                 for pair in itertools.product(parts, repeat=2)]
        assert len(pairs) == 13_500
        assert continuity_misses(pairs, 1.0) == []


class TestFiniteUniversesAreDiscrete:
    """The nondiscreteness demo's claim needs one nonatomic space, where the
    n-row datasets are partitions into n equal intervals.  Within one
    finite Pi_n every point is isolated: its distances to the other
    partitions have a positive minimum."""

    @pytest.mark.parametrize("n, smallest", [
        (3, 0.2663), (4, 0.1429), (5, 0.0943), (6, 0.0689),
    ], ids=["pi3", "pi4", "pi5", "pi6"])
    def test_smallest_positive_distance(self, n, smallest):
        matrix = distance_matrix(lattice(n))
        off_diagonal = [v for i, row in enumerate(matrix.values)
                        for j, v in enumerate(row) if i != j]
        assert min(off_diagonal) == pytest.approx(smallest, abs=5e-5)
