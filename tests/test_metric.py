import importlib
import io
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catent.algebra import check_contractivity, check_monoid_laws
from catent.ingest import load_matrix
from catent import model
from catent.entropy import (
    LAWS,
    TOLERANCE,
    LawClause,
    LawReport,
    _join_route,
    _law_gaps,
    _three_way,
    check_conditional_entropy_laws,
    conditional_entropy,
    entropy,
    joint_entropy,
    mutual_information,
    symmetric_uncertainty,
)
from catent.metric import (
    MAX_DEMO_STEPS,
    AxiomReport,
    DistanceMatrix,
    _score,
    check_distance_axioms,
    check_entropy_laws,
    check_similarity_axioms,
    cross_check,
    distance_matrix,
    instances,
    merge_reports,
    nondiscreteness_demo,
    partition_distance,
    su_distance,
)
from catent.model import Dataset, canonical_classes, induced_partition, is_coarser
from catent.randgen import GenConfig, gen_dataset

import oracle
import strategies

# every similarity condition except the triangle-style bound is a theorem
UNIVERSAL_SIMILARITY = (
    "symmetry",
    "self_similarity_nonnegative",
    "self_similarity_dominates",
    "value_range",
    "max_on_indiscernible",
    "max_only_on_indiscernible",
)
UNIVERSAL_DISTANCE = (
    "nonnegativity",
    "bounded_by_one",
    "symmetry",
    "zero_diagonal",
    "zero_on_indiscernible",
    "zero_only_on_indiscernible",
)


def similarity_report(dataset, **kw):
    return check_similarity_axioms(dataset, **kw)


def distance_report(dataset, **kw):
    return check_distance_axioms(
        distance_matrix(dataset), canonical_classes(dataset), **kw
    )


class TestDistanceValues:
    def test_frozen_value(self, internship):
        d = su_distance(internship["Creativity"], internship["GotHired"], internship)
        assert d == pytest.approx(oracle.DIST_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL)

    def test_zero_on_indiscernible_columns(self, indiscernibles):
        d = su_distance(
            indiscernibles["digits"], indiscernibles["letters"], indiscernibles
        )
        assert d == 0.0

    def test_one_on_independent_columns(self):
        data = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        assert su_distance(data["a"], data["b"], data) == pytest.approx(1.0, abs=1e-15)

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=80)
    def test_matches_oracle(self, data):
        d = su_distance(data["c0"], data["c1"], data)
        expected = oracle.oracle_distance(data["c0"].labels, data["c1"].labels)
        assert d == pytest.approx(expected, abs=1e-9)


class TestDistanceMatrix:
    def test_fixture_matrix_shape_and_entries(self, internship):
        m = distance_matrix(internship)
        n = len(m.names)
        assert n == 6
        assert m.names == internship.names
        assert all(type(row) is tuple and len(row) == n for row in m.values)
        assert all(type(v) is float for row in m.values for v in row)
        for i, j in itertools.product(range(n), repeat=2):
            assert m.values[i][j] == m.values[j][i]
        assert all(m.values[i][i] == 0.0 for i in range(n))
        assert m.value("Creativity", "GotHired") == pytest.approx(
            oracle.DIST_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL
        )
        assert m.value("GotHired", "Creativity") == m.value("Creativity", "GotHired")

    def test_subset_obeys_given_order(self, internship):
        m = distance_matrix(internship, subset=["GotHired", "Neatness"])
        assert m.names == ("GotHired", "Neatness")
        assert m.value("GotHired", "Neatness") == pytest.approx(
            1.0 - oracle.SU_NEATNESS_GOTHIRED, abs=oracle.FROZEN_TOL
        )

    def test_unknown_name_rejected(self, internship):
        m = distance_matrix(internship)
        with pytest.raises(ValueError):
            m.value("NoSuchColumn", "Neatness")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), [[0.0] * 3] * 3)

    def test_duplicate_names_rejected(self, internship):
        # value() would silently read the first of the two rows
        with pytest.raises(ValueError, match="duplicate"):
            DistanceMatrix(("a", "a"), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            distance_matrix(internship, ["Creativity", "Creativity", "GotHired"])

    def test_entries_match_pairwise_function(self, internship):
        m = distance_matrix(internship)
        parts = {
            nm: induced_partition(internship[nm], internship) for nm in m.names
        }
        for a in m.names:
            for b in m.names:
                assert m.value(a, b) == pytest.approx(
                    partition_distance(parts[a], parts[b]), abs=1e-15
                )

    @given(strategies.weighted_datasets())
    @settings(max_examples=80)
    def test_entries_equal_partition_distance_exactly(self, drawn):
        # each unordered pair is computed once, in index order
        data, _ = drawn
        m = distance_matrix(data)
        parts = [induced_partition(data[nm], data) for nm in m.names]
        for i, j in itertools.product(range(len(m.names)), repeat=2):
            lo, hi = parts[min(i, j)], parts[max(i, j)]
            want = 0.0 if i == j else partition_distance(lo, hi)
            assert m.values[i][j] == want
            if entropy(lo) + entropy(hi) > 0.0:
                # the SU formula itself, term for term
                su = 2.0 * mutual_information(lo, hi) / (entropy(lo) + entropy(hi))
                assert partition_distance(lo, hi) == 1.0 - su


class TestSimilarityAxioms:
    def test_fixture_passes_exhaustively(self, internship):
        report = similarity_report(internship)
        assert report.passed
        tri = report.check("triangle_bound")
        assert tri.instances == 6**3
        assert tri.worst_slack >= 0.0

    def test_counterexample_fails_only_triangle(self, triangle_counterexample):
        report = similarity_report(triangle_counterexample)
        assert not report.passed
        assert [c.name for c in report.failures()] == ["triangle_bound"]
        tri = report.check("triangle_bound")
        assert tri.worst_slack == pytest.approx(
            -oracle.TRIANGLE_CE_VIOLATION, abs=oracle.FROZEN_TOL
        )
        assert tri.witness is not None and tri.witness[1] == "finest"
        for name in UNIVERSAL_SIMILARITY:
            assert report.check(name).passed

    def test_counterexample_su_values(self, triangle_counterexample):
        d = triangle_counterexample
        parts = {nm: induced_partition(d[nm], d) for nm in d.names}
        from catent.entropy import symmetric_uncertainty

        assert symmetric_uncertainty(parts["pair_02"], parts["finest"]) == pytest.approx(
            oracle.SU_CE_XY, abs=oracle.FROZEN_TOL
        )
        assert symmetric_uncertainty(parts["pair_02"], parts["pair_12"]) == pytest.approx(
            oracle.SU_CE_XZ, abs=oracle.FROZEN_TOL
        )

    def test_summary_mentions_every_check(self, internship):
        text = similarity_report(internship).summary()
        for name in UNIVERSAL_SIMILARITY + ("triangle_bound",):
            assert name in text
        assert "FAIL" not in text

    def test_failed_summary_carries_witness(self, triangle_counterexample):
        text = similarity_report(triangle_counterexample).summary()
        assert "[FAIL] triangle_bound" in text
        assert "finest" in text

    def test_sampled_mode_is_deterministic(self, internship):
        a = similarity_report(internship, triples=64, seed=7)
        b = similarity_report(internship, triples=64, seed=7)
        assert a.check("triangle_bound").witness == b.check("triangle_bound").witness
        assert a.check("triangle_bound").worst_slack == b.check("triangle_bound").worst_slack

    def test_wide_dataset_falls_back_to_sampling(self):
        data = gen_dataset(GenConfig(seed=3, rows=(12, 12)), columns=9)
        report = similarity_report(data)
        assert report.check("triangle_bound").instances == 1000
        for name in UNIVERSAL_SIMILARITY:
            assert report.check(name).passed

    def test_worst_slack_agrees_with_direct_recomputation(self, triangle_counterexample):
        d = triangle_counterexample
        su = {
            (a, b): oracle.oracle_su(d[a].labels, d[b].labels)
            for a in d.names
            for b in d.names
        }
        expected = min(
            su[x, z] + su[y, y] - su[x, y] - su[y, z]
            for x, y, z in itertools.product(d.names, repeat=3)
        )
        tri = similarity_report(triangle_counterexample).check("triangle_bound")
        assert tri.worst_slack == pytest.approx(expected, abs=1e-12)

    def test_symmetry_checks_each_unordered_pair_once(self):
        data = gen_dataset(GenConfig(seed=3, rows=(12, 12)), columns=9)
        seen = {pair for x, y, z in instances(data.names, 3, 50, 0)
                for pair in ((x, y), (y, z), (x, z))}
        assert any(a > b and (b, a) not in seen for a, b in seen)  # some in one order only
        seen.update((nm, nm) for nm in data.names)
        symmetry = similarity_report(data, triples=50).check("symmetry")
        assert symmetry.instances == len({frozenset(pair) for pair in seen})

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_universal_conditions_always_hold(self, data):
        report = similarity_report(data)
        for name in UNIVERSAL_SIMILARITY:
            check = report.check(name)
            assert check.passed, report.summary()


TWO_DISCERNIBLE_CLASSES = canonical_classes(
    Dataset.from_columns({"a": ["x", "y"], "b": ["x", "x"]})
)


class TestDistanceAxioms:
    def test_fixture_passes_exhaustively(self, internship):
        report = distance_report(internship)
        assert report.passed
        assert report.check("triangle_inequality").instances == 6**3
        # Neatness, Punctuality and IQuotient are mutual relabelings,
        # giving three indiscernible unordered pairs
        assert report.check("zero_on_indiscernible").instances == 3

    def test_indiscernible_fixture(self, indiscernibles):
        report = distance_report(indiscernibles)
        assert report.passed
        zero = report.check("zero_on_indiscernible")
        assert zero.instances == 1
        assert zero.worst_slack == 0.0
        assert report.check("zero_only_on_indiscernible").instances == 0

    def test_counterexample_fails_only_triangle(self, triangle_counterexample):
        report = distance_report(triangle_counterexample)
        assert [c.name for c in report.failures()] == ["triangle_inequality"]
        tri = report.check("triangle_inequality")
        assert tri.worst_slack == pytest.approx(
            -oracle.TRIANGLE_CE_VIOLATION, abs=oracle.FROZEN_TOL
        )
        assert tri.lhs == pytest.approx(tri.rhs + oracle.TRIANGLE_CE_VIOLATION, abs=1e-12)
        for name in UNIVERSAL_DISTANCE:
            assert report.check(name).passed

    def test_nan_distances_violate_every_axiom_they_touch_tsv(self):
        matrix = load_matrix(io.StringIO("\ta\tb\na\tnan\tnan\nb\tnan\tnan\n"))
        report = check_distance_axioms(matrix, TWO_DISCERNIBLE_CLASSES)
        # zero_on_indiscernible has no instance; every other axiom fails on a NaN
        assert [c.name for c in report.failures()] == [
            c.name for c in report.checks if c.name != "zero_on_indiscernible"
        ]
        for c in report.failures():
            assert c.violations == c.instances
            assert c.witness is not None and math.isnan(c.lhs)

    def test_nan_distances_violate_every_axiom_they_touch_json(self):
        text = '{"names": ["a", "b"], "values": [[0, NaN], [NaN, 0]]}'
        report = check_distance_axioms(
            load_matrix(io.StringIO(text), fmt="json"), TWO_DISCERNIBLE_CLASSES
        )
        assert [c.name for c in report.failures()] == [
            "nonnegativity", "bounded_by_one", "symmetry", "triangle_inequality",
            "zero_only_on_indiscernible",
        ]
        # (a,a,a) passes first; the first NaN instance still becomes the witness
        tri = report.check("triangle_inequality")
        assert tri.witness == ("a", "a", "b") and math.isnan(tri.lhs)
        for c in report.failures():
            assert c.witness is not None and math.isnan(c.lhs)

    def test_missing_class_key_rejected(self, internship):
        matrix = distance_matrix(internship)
        classes = dict(canonical_classes(internship))
        del classes["Neatness"]
        with pytest.raises(KeyError):
            check_distance_axioms(matrix, classes)

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_universal_axioms_always_hold(self, data):
        report = distance_report(data)
        for name in UNIVERSAL_DISTANCE:
            assert report.check(name).passed, report.summary()

    @given(strategies.datasets(min_cols=3, max_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_triangle_verdicts_agree_between_su_and_distance_forms(self, data):
        sim = similarity_report(data).check("triangle_bound")
        dist = distance_report(data).check("triangle_inequality")
        assert sim.passed == dist.passed


# margins that stress the scoring rules: signed zeros, infinities, NaN, the
# thresholds themselves, and ties among a few values
MARGINS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -TOLERANCE, TOLERANCE, -1.0]),
    st.floats(-2.0, 2.0),
)


def _scored(items, ks, threshold, strict):
    # _score of items[k] for k in ks, each witnessed by its global index k;
    # None marks a vacuous instance: counted, with no margin
    scored = [k for k in ks if items[k] is not None]
    margins = [items[k] for k in scored]
    return AxiomReport((_score("g", margins, [(k,) for k in scored],
                               lambda i: (margins[i], float(scored[i])), threshold, strict,
                               vacuous=len(ks) - len(scored)),))


class TestMergeReports:
    def test_instances_add_and_worst_witness_wins(
        self, internship, triangle_counterexample
    ):
        good = similarity_report(internship)
        bad = similarity_report(triangle_counterexample)
        merged = merge_reports([good, bad])
        tri = merged.check("triangle_bound")
        assert not tri.passed
        assert tri.instances == 6**3 + 3**3
        assert tri.worst_slack == bad.check("triangle_bound").worst_slack
        assert tri.witness == bad.check("triangle_bound").witness
        assert merged.check("symmetry").passed

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_nan_failure_keeps_its_witness_in_either_order(self, nan_first):
        passing, nan = (
            check_distance_axioms(load_matrix(io.StringIO(text)), TWO_DISCERNIBLE_CLASSES)
            for text in ("\ta\tb\na\t0\t0.5\nb\t0.5\t0\n",
                         "\ta\tb\na\t0\tnan\nb\tnan\t0\n")
        )
        assert passing.passed and not nan.passed
        merged = merge_reports([nan, passing] if nan_first else [passing, nan])
        c = merged.check("nonnegativity")
        assert c.violations == 1
        assert math.isnan(c.worst_slack) and math.isnan(c.lhs)
        assert c.witness == nan.check("nonnegativity").witness

    def test_merge_of_passing_reports_passes(self, internship, indiscernibles):
        merged = merge_reports([distance_report(internship), distance_report(indiscernibles)])
        assert merged.passed
        assert merged.check("zero_on_indiscernible").instances == 3 + 1

    def test_unknown_check_name_raises_keyerror(self, internship):
        with pytest.raises(KeyError, match="no_such_axiom"):
            distance_report(internship).check("no_such_axiom")

    @given(st.lists(st.one_of(st.none(), MARGINS.filter(lambda m: m == m)), max_size=12),
           st.lists(st.integers(0, 12), max_size=4),
           st.sampled_from([-TOLERANCE, TOLERANCE, 0.0]), st.booleans())
    @settings(max_examples=400)
    def test_merge_of_chunk_scores_is_the_score_of_the_whole_list(
            self, items, cuts, threshold, strict):
        bounds = [0, *sorted(min(cut, len(items)) for cut in cuts), len(items)]
        merged = merge_reports(_scored(items, range(a, b), threshold, strict)
                               for a, b in zip(bounds, bounds[1:]))
        assert repr(merged) == repr(_scored(items, range(len(items)), threshold, strict))

    def test_a_nan_first_violation_hides_a_later_smaller_margin_of_its_chunk(self):
        # the chunk [nan, -0.9] keeps its NaN as worst slack, not -0.9
        items = [-0.5, math.nan, -0.9]
        merged = merge_reports([_scored(items, range(1), -TOLERANCE, False),
                                _scored(items, range(1, 3), -TOLERANCE, False)]).checks[0]
        whole = _scored(items, range(3), -TOLERANCE, False).checks[0]
        assert merged.violations == whole.violations == 3
        assert (merged.worst_slack, merged.witness) == (-0.5, (0,))
        assert (whole.worst_slack, whole.witness) == (-0.9, (2,))


class TestScore:
    @given(st.lists(st.one_of(st.none(), MARGINS), max_size=12),
           st.sampled_from([-TOLERANCE, TOLERANCE, 0.0]), st.booleans())
    @settings(max_examples=400)
    def test_score_is_a_loop_of_the_oracle_gauge(self, items, threshold, strict):
        loop = oracle.OracleGauge("g", threshold, strict)
        for k, m in enumerate(items):
            if m is None:
                loop.skip()
            else:
                loop.add(m, (k,), m, float(k))
        assert _rows(_scored(items, range(len(items)), threshold, strict)) == repr((loop.row(),))


def _rows(report):
    return repr(tuple((c.name, c.instances, c.nonvacuous, c.violations, c.worst_slack,
                       c.witness, c.lhs, c.rhs) for c in report.checks))


def _assert_both_validators_match_the_oracle(dataset, triples=None, seed=0):
    names, parts = dataset.names, canonical_classes(dataset)
    same = lambda a, b: parts[a] == parts[b]  # noqa: E731
    su = lambda a, b: symmetric_uncertainty(parts[a], parts[b])  # noqa: E731
    triple_list = instances(names, 3, triples, seed)
    matrix = distance_matrix(dataset)
    assert _rows(check_distance_axioms(matrix, parts, triples, seed)) == repr(
        oracle.oracle_distance_checks(names, matrix.value, same, triple_list))
    assert _rows(check_similarity_axioms(dataset, triples, seed)) == repr(
        oracle.oracle_similarity_checks(names, su, same, triple_list))


def _entropy_law_rows(dataset, triples=None, seed=0):
    # each triple's gaps from the law body on the join route, which the
    # three-way tally of check_entropy_laws must equal bit for bit; a memo
    # keyed by the unordered pair would hand H(y|x) to H(x|y) and move them
    parts = canonical_classes(dataset)

    def gaps(triple):
        x, y, z = map(parts.__getitem__, triple)
        return _law_gaps(x, y, z, is_coarser(x, y), _join_route(x, y, z))

    return oracle.oracle_entropy_law_checks(
        LAWS, instances(dataset.names, 3, triples, seed), gaps)


def _cross_rows(x, y):
    # the routes of the cross_check docstring
    hx, hy, hxy = entropy(x), entropy(y), joint_entropy(x, y)
    hx_y, hy_x = conditional_entropy(x, y), conditional_entropy(y, x)
    mi = ("mutual_information", (hx - hx_y, hx + hy - hxy))
    if hx + hy == 0.0:
        return oracle.oracle_cross_checks(
            [mi, ("symmetric_uncertainty", (1.0, 1.0)), ("distance", None)])
    su = 2.0 * (hx - hx_y) / (hx + hy)
    return oracle.oracle_cross_checks([
        mi, ("symmetric_uncertainty", (su, 2.0 * (1.0 - hxy / (hx + hy)))),
        ("distance", (1.0 - su, (hx_y + hy_x) / (hx + hy)))])


def _assert_cross_check_matches_the_oracle(dataset):
    parts = canonical_classes(dataset)
    for a, b in itertools.product(dataset.names, repeat=2):
        assert _rows(cross_check(parts[a], parts[b])) == repr(_cross_rows(parts[a], parts[b]))


def _ten_column_table(seed, rows=1000, k=8):
    """The benchmark's table shape: a coarsening, an indiscernible copy, a
    noisy copy, a parity column that breaks the triangle with c0 and c2."""
    rng = random.Random(seed)
    columns = {f"c{i}": [] for i in range(10)}
    for _ in range(rows):
        c0, c1, c5 = rng.randrange(k), rng.randrange(k), int(rng.random() ** 2 * k)
        c4 = c1 if rng.random() < 0.9 else rng.randrange(k)
        row = (c0, c1, c0 // 2, (c0 * 3) % k, c4, c5, (c1 + c5) % k, c0 % 2,
               rng.randrange(k), (c0 + c1) % k)
        for col, code in zip(columns.values(), row):
            col.append(f"s{code}")
    return Dataset.from_columns(columns)


# cells of a loaded matrix: exact values, signed zeros, infinities and NaN
CELLS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, -0.5, math.nan, math.inf, -math.inf])


class TestPerInstanceOracle:
    """The validators of this module report exactly what the per-instance
    scoring in ``tests/oracle.py`` reports, compared by ``repr``; those of
    ``catent.algebra`` are held to it in ``test_algebra.py::TestSharedWork``."""

    def test_acceptance_population(self):
        for _, data in oracle.acceptance_population():
            _assert_both_validators_match_the_oracle(data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ten_column_tables_take_the_sampled_path(self, seed):
        _assert_both_validators_match_the_oracle(_ten_column_table(seed))

    def test_entropy_laws_on_the_acceptance_population(self):
        for seed, data in oracle.acceptance_population():
            assert _rows(check_entropy_laws(data)) == repr(_entropy_law_rows(data)), seed

    def test_cross_check_on_the_acceptance_population(self):
        for _, data in oracle.acceptance_population():
            _assert_cross_check_matches_the_oracle(data)

    def test_entropy_laws_and_cross_check_on_a_sampled_ten_column_table(self):
        data = _ten_column_table(0, rows=200)
        assert _rows(check_entropy_laws(data, 300, 1)) == repr(_entropy_law_rows(data, 300, 1))
        _assert_cross_check_matches_the_oracle(data)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.sampled_from(["ab", "ba", "aa"]), min_size=n, max_size=n))),
        st.one_of(st.none(), st.integers(1, 12)))
    @settings(max_examples=100)
    def test_loaded_nan_and_inf_matrices(self, case, triples):
        cells, patterns = case
        names = [f"c{i}" for i in range(len(cells))]
        # "ab" and "ba" carve the same partition: an indiscernible pair
        parts = canonical_classes(Dataset.from_columns(dict(zip(names, map(list, patterns)))))
        tsv = "".join("\t".join(fields) + "\n" for fields in [
            ["", *names], *([name, *map(repr, row)] for name, row in zip(names, cells))])
        text = json.dumps({"names": names, "values": cells})
        same = lambda a, b: parts[a] == parts[b]  # noqa: E731
        for matrix in load_matrix(io.StringIO(tsv)), load_matrix(io.StringIO(text), fmt="json"):
            expected = oracle.oracle_distance_checks(
                matrix.names, matrix.value, same, instances(matrix.names, 3, triples))
            assert _rows(check_distance_axioms(matrix, parts, triples)) == repr(expected)


def _per_triple_tally(dataset, triples=None, seed=0):
    """Per-law (instances, nonvacuous, violations, passed) from one
    ``check_conditional_entropy_laws`` call per triple."""
    parts = {nm: induced_partition(dataset[nm], dataset) for nm in dataset.names}
    tally = {name: [0, 0, 0] for name in LAWS}
    for nx, ny, nz in instances(dataset.names, 3, triples, seed):
        for clause in check_conditional_entropy_laws(parts[nx], parts[ny], parts[nz]).clauses:
            counts = tally[clause.name]
            counts[0] += 1
            counts[1] += not clause.vacuous
            counts[2] += not clause.passed
    return {name: (*counts, counts[2] == 0) for name, counts in tally.items()}


def _dataset_tally(report):
    return {c.name: (c.instances, c.nonvacuous, c.violations, c.passed) for c in report.checks}


def _assert_three_way_is_the_join_route(dataset, triples=None, seed=0):
    # H(x v y | z), H(y | x v z), H(x | y v z) and H(x v y), bit for bit
    parts = canonical_classes(dataset)
    for triple in instances(dataset.names, 3, triples, seed):
        x, y, z = map(parts.__getitem__, triple)
        got = [value.hex() for value in _three_way(x, y, z)]
        assert got == [value.hex() for value in _join_route(x, y, z)], triple


def _wide_alphabet_dataset(rows, symbols, weighted):
    # three-way cells past the row-sized key field, so the codes are re-packed
    columns = {f"c{i}": [(r * step + i) % symbols for r in range(rows)]
               for i, step in enumerate((1, 7, 11))}
    if not weighted:
        return Dataset.from_columns(columns)
    mult = [1 + r % 3 for r in range(rows)]
    return Dataset.from_columns(columns, [Fraction(m, sum(mult)) for m in mult])


def _skew_the_law_body(monkeypatch):
    # an offset on every H(a | b) the law body reads breaks the chain rule by
    # 0.5; ``catent.entropy`` names the function ``entropy``, not the module
    module = sys.modules["catent.entropy"]
    real = module.conditional_entropy
    monkeypatch.setattr(module, "conditional_entropy", lambda a, b: real(a, b) + 0.5)


def _report_bits(report):
    # every field of every check, floats as float.hex so that equality is bit for bit
    def bits(v):
        return v.hex() if isinstance(v, float) else v
    return [(c.name, c.instances, c.nonvacuous, c.violations, bits(c.worst_slack),
             c.witness, bits(c.lhs), bits(c.rhs)) for c in report.checks]


class TestEntropyLaws:
    def test_fixture_tallies(self, internship):
        report = check_entropy_laws(internship)
        assert report.passed
        assert [c.name for c in report.checks] == list(LAWS)
        assert _dataset_tally(report) == _per_triple_tally(internship)
        assert report.check("coarsening_monotone").nonvacuous == 72

    def test_both_routes_agree_on_a_sampled_wide_dataset(self):
        data = gen_dataset(GenConfig(seed=11, correlation_mode="refined"), columns=10)
        report = check_entropy_laws(data, triples=400, seed=5)
        assert report.check("chain_rule").instances == 400
        assert _dataset_tally(report) == _per_triple_tally(data, triples=400, seed=5)

    def test_violation_carries_its_triple_and_gap(self, internship, monkeypatch):
        _skew_the_law_body(monkeypatch)
        chain = check_entropy_laws(internship).check("chain_rule")
        assert chain.violations == chain.nonvacuous == 216
        assert chain.lhs == pytest.approx(0.5) and chain.rhs == 0.0
        assert chain.worst_slack == -chain.lhs
        assert len(chain.witness) == 3

    def test_one_patched_kernel_turns_both_validators_red(self, internship, monkeypatch):
        # both validators evaluate the laws through the one body
        _skew_the_law_body(monkeypatch)
        assert not check_entropy_laws(internship).passed
        x, y, z = (induced_partition(internship[nm], internship) for nm in internship.names[:3])
        assert not check_conditional_entropy_laws(x, y, z).passed

    def test_clauses_match_the_five_spelled_out_branches(self):
        def spelled_out(x, y, z):
            chain, monotone, iff, raises, reduces = _law_gaps(
                x, y, z, is_coarser(x, y), _join_route(x, y, z))
            return LawReport((
                LawClause("chain_rule", chain <= TOLERANCE, False, chain),
                LawClause("coarsening_monotone", True, True, 0.0) if monotone is None
                else LawClause("coarsening_monotone", monotone <= TOLERANCE, False, monotone),
                LawClause("zero_iff_coarser", True, True, 0.0) if iff is None
                else LawClause("zero_iff_coarser", iff <= TOLERANCE, False, iff),
                LawClause("join_raises_entropy", raises <= TOLERANCE, False, raises),
                LawClause("conditioning_reduces", reduces <= TOLERANCE, False, reduces),
            ))

        vacuous = 0
        for seed in range(200):
            data = gen_dataset(GenConfig(seed=seed), columns=5)
            parts = canonical_classes(data)
            for triple in itertools.product(data.names, repeat=3):
                x, y, z = map(parts.__getitem__, triple)
                report = check_conditional_entropy_laws(x, y, z)
                assert report == spelled_out(x, y, z), (seed, triple)
                vacuous += sum(c.vacuous for c in report.clauses)
        assert vacuous > 0

    def test_memory_stays_flat_on_wide_sampled_data(self):
        # no join is built: one triple's three-way tally is the largest table
        data = gen_dataset(GenConfig(seed=0, rows=(1024, 1024)), 50)
        tracemalloc.start()
        try:
            report = check_entropy_laws(data, triples=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 3 * 2**20

    # H(x v y | z), H(y | x v z), H(x | y v z) and H(x v y) come from one
    # three-way cell tally per triple: the join route's floats, bit for bit
    def test_join_side_values_are_the_join_routes_on_the_acceptance_population(self):
        for _, data in oracle.acceptance_population():
            _assert_three_way_is_the_join_route(data)

    @given(strategies.weighted_datasets())
    @settings(max_examples=100, deadline=None)
    def test_join_side_values_are_the_join_routes_on_weighted_universes(self, drawn):
        _assert_three_way_is_the_join_route(drawn[0])

    # 12 rows: 1-byte fields re-packed to 2 bytes; 200: 2 to 4; 2000: 4 to 8
    @pytest.mark.parametrize("rows, symbols", [(12, 12), (200, 50), (2000, 2000)])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_join_side_values_are_the_join_routes_in_re_packed_fields(
            self, rows, symbols, weighted):
        data = _wide_alphabet_dataset(rows, symbols, weighted)
        x, y, z = canonical_classes(data).values()
        assert x.n_blocks == y.n_blocks == z.n_blocks == symbols
        keys = memoryview(model.triple_cell_keys(x, y, z))
        assert keys.itemsize > model._field(rows * rows)[0]
        _assert_three_way_is_the_join_route(data)

    def test_join_side_values_are_the_join_routes_on_16384_rows(self):
        data = gen_dataset(GenConfig(seed=0, rows=(16384, 16384), alphabet_size=(2, 30)),
                           columns=3)
        _assert_three_way_is_the_join_route(data)

    def test_past_the_key_bound_the_join_route_gives_the_same_report(self, monkeypatch):
        # no test-sized dataset has 2**64 three-way cells, so the bound is lowered
        data = gen_dataset(GenConfig(seed=11, correlation_mode="refined"), columns=4)
        want = check_entropy_laws(data)
        entropy_module = importlib.import_module("catent.entropy")
        real, routed = entropy_module._join_route, []

        def join_route(x, y, z):
            routed.append((x, y, z))
            return real(x, y, z)

        monkeypatch.setattr(entropy_module, "_join_route", join_route)
        monkeypatch.setattr(model, "MAX_TRIPLE_CELLS", 8)
        got = check_entropy_laws(data)
        assert 0 < len(routed) < 4**3
        assert all(x.n_blocks * y.n_blocks * z.n_blocks > 8 for x, y, z in routed)
        assert _report_bits(got) == _report_bits(want)
        before = len(routed)
        monkeypatch.setattr(model, "MAX_TRIPLE_CELLS", 0)  # every triple past it
        assert _report_bits(check_entropy_laws(data)) == _report_bits(want)
        assert len(routed) - before == 4**3


class TestNondiscreteness:
    def test_frozen_leading_terms(self):
        seq = nondiscreteness_demo(steps=2)
        assert seq[0][0] == 0.25
        assert seq[0][1] == pytest.approx(oracle.DIST_NESTED_N4, abs=oracle.FROZEN_TOL)
        assert seq[1][0] == 0.125
        assert seq[1][1] == pytest.approx(oracle.DIST_NESTED_N8, abs=oracle.FROZEN_TOL)

    def test_strictly_decreasing_positive_and_small_in_the_tail(self):
        seq = nondiscreteness_demo(steps=11)
        dists = [d for _, d in seq]
        assert all(d > 0.0 for d in dists)
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert seq[-1][0] == 1.0 / 4096.0
        assert dists[-1] < 0.05

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            nondiscreteness_demo(steps=0)

    def test_steps_capped_before_any_dataset_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        # never let the demo allocate: the cap alone must stop it
        monkeypatch.setattr(Dataset, "from_columns", refuse)
        with pytest.raises(ValueError, match="steps"):
            nondiscreteness_demo(MAX_DEMO_STEPS + 1)
        with pytest.raises(Built):
            nondiscreteness_demo(MAX_DEMO_STEPS)

    def test_epsilon_halves_each_step(self):
        seq = nondiscreteness_demo(steps=5)
        eps = [e for e, _ in seq]
        assert eps == [0.25, 0.125, 0.0625, 0.03125, 0.015625]


class TestInstances:
    def test_exhaustive_up_to_eight_names(self):
        names = tuple(f"c{i}" for i in range(8))
        assert instances(names, 3) == list(itertools.product(names, repeat=3))
        assert len(instances(names, 2)) == 64

    def test_sampled_past_eight_names_or_when_a_size_is_given(self):
        assert len(instances(tuple(f"c{i}" for i in range(9)), 3)) == 1000
        assert len(instances(("a", "b"), 4, sample=5)) == 5

    def test_sampled_stream_is_pinned(self, internship):
        # recorded draws of SplitMix64: a changed draw order must show here
        wide = instances(tuple(f"c{i}" for i in range(10)), 3, None, 0)
        assert wide[:3] == [("c5", "c0", "c9"), ("c4", "c7", "c0"), ("c3", "c0", "c9")]
        # the parity violation that the ten-column benchmark tables rely on
        assert wide[71] == ("c2", "c0", "c7")
        assert instances(internship.names, 4, 64, 3)[:2] == [
            ("IQuotient", "IQuotient", "IQuotient", "GotHired"),
            ("Neatness", "Creativity", "Neatness", "AttentionType"),
        ]

    def test_sampled_mode_returns_a_fresh_list(self):
        names = tuple(f"c{i}" for i in range(9))
        drawn = instances(names, 3)
        drawn.clear()  # the samples are shared between calls: a caller must not see this
        assert instances(names, 3) == instances(list(names), 3)
        assert len(instances(names, 3)) == 1000

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sample_below_one_rejected(self, sample):
        with pytest.raises(ValueError, match="at least 1"):
            instances(("a", "b"), 3, sample)

    @pytest.mark.parametrize("validator", [
        lambda ds: check_similarity_axioms(ds, triples=0),
        lambda ds: check_distance_axioms(distance_matrix(ds), canonical_classes(ds), triples=0),
        lambda ds: check_monoid_laws(ds, triples=0),
        lambda ds: check_contractivity(ds, quadruples=0),
    ], ids=["similarity", "distance", "monoid", "contractivity"])
    def test_validators_reject_sample_size_zero(self, internship, validator):
        with pytest.raises(ValueError, match="at least 1"):
            validator(internship)
