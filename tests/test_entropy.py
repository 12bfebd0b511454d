import importlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catent.entropy import (
    TOLERANCE,
    UndefinedRatioError,
    check_conditional_entropy_laws,
    conditional_entropy,
    entropic_ratio,
    entropy,
    joint_entropy,
    mutual_information,
    symmetric_uncertainty,
)
from catent.metric import cross_check
from catent.model import (
    Dataset,
    StructuralError,
    induced_partition,
    join,
    trivial_partition,
)
from catent.randgen import GenConfig, gen_dataset

import oracle
import strategies

ROOT = Path(__file__).resolve().parents[1]
# the package re-exports the function ``entropy`` under the module's name
KERNELS = importlib.import_module("catent.entropy")


def parts(dataset, *names):
    return tuple(induced_partition(dataset[nm], dataset) for nm in names)


class TestEntropy:
    def test_fair_binary_is_one_bit(self):
        d = Dataset.from_columns({"a": ["x", "y"]})
        assert entropy(*parts(d, "a")) == 1.0

    def test_constant_is_zero(self):
        d = Dataset.from_columns({"a": ["k"] * 7})
        assert entropy(*parts(d, "a")) == 0.0

    def test_zero_entropies_are_positive_zero(self):
        # -fsum of all-zero terms is -0.0, which would print as -0.0000
        d = Dataset.from_columns({"a": ["x", "y"], "b": ["k", "k"]})
        a, b = parts(d, "a", "b")
        zeros = (entropy(trivial_partition(d)), entropy(b), conditional_entropy(a, a),
                 conditional_entropy(b, a), mutual_information(a, b))
        for value in zeros:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_uniform_four_symbols_two_bits(self):
        d = Dataset.from_columns({"a": ["w", "x", "y", "z"]})
        assert entropy(*parts(d, "a")) == 2.0

    def test_frozen_values(self, internship, indiscernibles):
        (c,) = parts(internship, "Creativity")
        assert entropy(c) == pytest.approx(oracle.H_CREATIVITY, abs=oracle.FROZEN_TOL)
        (n,) = parts(internship, "Neatness")
        assert entropy(n) == pytest.approx(oracle.H_NEATNESS, abs=oracle.FROZEN_TOL)
        (g,) = parts(internship, "GotHired")
        assert entropy(g) == pytest.approx(oracle.H_GOTHIRED, abs=oracle.FROZEN_TOL)
        (a,) = parts(internship, "AttentionType")
        assert entropy(a) == pytest.approx(oracle.H_ATTENTION, abs=oracle.FROZEN_TOL)
        (x,) = parts(indiscernibles, "digits")
        assert entropy(x) == pytest.approx(oracle.H_DIGITS, abs=oracle.FROZEN_TOL)

    def test_matches_counter_oracle_on_fixture(self, internship):
        for nm in internship.names:
            expected = oracle.oracle_entropy(oracle.internship_column(nm))
            assert entropy(*parts(internship, nm)) == pytest.approx(expected, abs=1e-12)

    @given(strategies.datasets(max_cols=1))
    @settings(max_examples=80)
    def test_bounds_and_oracle_agreement(self, d):
        p = induced_partition(d["c0"], d)
        h = entropy(p)
        assert 0.0 <= h <= math.log2(p.n_blocks) + TOLERANCE
        assert h == pytest.approx(oracle.oracle_entropy(d["c0"].labels), abs=1e-12)


class TestConditionalEntropy:
    def test_conditioning_on_trivial_returns_entropy(self):
        d = Dataset.from_columns({"a": ["x", "y", "x"]})
        (p,) = parts(d, "a")
        assert conditional_entropy(p, trivial_partition(d)) == pytest.approx(
            entropy(p), abs=1e-15
        )

    def test_conditioning_on_self_is_zero(self, internship):
        for nm in internship.names:
            (p,) = parts(internship, nm)
            assert conditional_entropy(p, p) == 0.0

    def test_frozen_values(self, internship):
        c, g = parts(internship, "Creativity", "GotHired")
        assert conditional_entropy(c, g) == pytest.approx(
            oracle.H_CREATIVITY_GIVEN_GOTHIRED, abs=oracle.FROZEN_TOL
        )
        assert conditional_entropy(g, c) == pytest.approx(
            oracle.H_GOTHIRED_GIVEN_CREATIVITY, abs=oracle.FROZEN_TOL
        )

    def test_mismatched_universes_rejected(self):
        d1 = Dataset.from_columns({"a": ["x", "y"]})
        d2 = Dataset.from_columns({"a": ["x", "y", "z"]})
        with pytest.raises(StructuralError):
            conditional_entropy(*parts(d1, "a"), *parts(d2, "a"))

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=80)
    def test_posterior_oracle_agreement(self, d):
        p, q = parts(d, "c0", "c1")
        expected = oracle.oracle_conditional_entropy(d["c0"].labels, d["c1"].labels)
        assert conditional_entropy(p, q) == pytest.approx(expected, abs=1e-12)

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=80)
    def test_within_entropy_bounds(self, d):
        p, q = parts(d, "c0", "c1")
        h = conditional_entropy(p, q)
        assert 0.0 <= h <= entropy(p) + TOLERANCE


class TestJointEntropy:
    def test_decomposition_both_ways(self, internship):
        c, g = parts(internship, "Creativity", "GotHired")
        hxy = joint_entropy(c, g)
        assert hxy == pytest.approx(oracle.H_JOINT_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL)
        assert hxy == pytest.approx(entropy(g) + conditional_entropy(c, g), abs=TOLERANCE)
        assert hxy == pytest.approx(entropy(c) + conditional_entropy(g, c), abs=TOLERANCE)

    def test_equals_entropy_of_join(self, internship):
        c, g = parts(internship, "Creativity", "GotHired")
        assert joint_entropy(c, g) == entropy(join(c, g))

    def test_independent_pair_adds(self):
        d = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        p, q = parts(d, "a", "b")
        assert joint_entropy(p, q) == pytest.approx(2.0, abs=1e-15)

    def test_idempotent_and_identity(self):
        d = Dataset.from_columns({"a": ["x", "y", "x"]})
        (p,) = parts(d, "a")
        assert joint_entropy(p, p) == entropy(p)
        assert joint_entropy(p, trivial_partition(d)) == entropy(p)


class TestMutualInformation:
    def test_independent_is_zero(self):
        d = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        assert mutual_information(*parts(d, "a", "b")) == pytest.approx(0.0, abs=1e-15)

    def test_self_information_is_entropy(self, internship):
        (c,) = parts(internship, "Creativity")
        assert mutual_information(c, c) == entropy(c)

    def test_frozen_value_and_symmetry(self, internship):
        c, g = parts(internship, "Creativity", "GotHired")
        assert mutual_information(c, g) == pytest.approx(
            oracle.MI_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL
        )
        assert mutual_information(c, g) == pytest.approx(
            mutual_information(g, c), abs=TOLERANCE
        )

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=80)
    def test_nonnegative_and_bounded(self, d):
        p, q = parts(d, "c0", "c1")
        mi = mutual_information(p, q)
        assert -TOLERANCE <= mi <= min(entropy(p), entropy(q)) + TOLERANCE


class TestSymmetricUncertainty:
    def test_reference_values_to_four_decimals(self, internship):
        (g,) = parts(internship, "GotHired")
        for feature, expected in oracle.REFERENCE_SU_4DP.items():
            (f,) = parts(internship, feature)
            assert symmetric_uncertainty(f, g) == pytest.approx(expected, abs=5e-5)

    def test_frozen_values(self, internship):
        n, c, a, g = parts(
            internship, "Neatness", "Creativity", "AttentionType", "GotHired"
        )
        assert symmetric_uncertainty(c, g) == pytest.approx(
            oracle.SU_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL
        )
        assert symmetric_uncertainty(n, g) == pytest.approx(
            oracle.SU_NEATNESS_GOTHIRED, abs=oracle.FROZEN_TOL
        )
        assert symmetric_uncertainty(a, g) == pytest.approx(
            oracle.SU_ATTENTION_GOTHIRED, abs=oracle.FROZEN_TOL
        )

    def test_self_similarity_is_exactly_one(self, internship):
        for nm in internship.names:
            (p,) = parts(internship, nm)
            assert symmetric_uncertainty(p, p) == 1.0

    def test_indiscernible_pair_is_exactly_one(self, indiscernibles):
        assert symmetric_uncertainty(*parts(indiscernibles, "digits", "letters")) == 1.0

    def test_two_constants_are_similar_by_convention(self):
        d = Dataset.from_columns({"a": ["k"] * 4, "b": ["m"] * 4})
        assert symmetric_uncertainty(*parts(d, "a", "b")) == 1.0

    def test_constant_vs_nonconstant_is_zero(self):
        d = Dataset.from_columns({"a": ["k"] * 4, "b": ["x", "y", "x", "y"]})
        assert symmetric_uncertainty(*parts(d, "a", "b")) == 0.0
        assert symmetric_uncertainty(*parts(d, "b", "a")) == 0.0

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=100)
    def test_range_symmetry_and_oracle_agreement(self, d):
        p, q = parts(d, "c0", "c1")
        su = symmetric_uncertainty(p, q)
        assert -TOLERANCE <= su <= 1.0 + TOLERANCE
        assert su == pytest.approx(symmetric_uncertainty(q, p), abs=TOLERANCE)
        expected = oracle.oracle_su(d["c0"].labels, d["c1"].labels)
        assert su == pytest.approx(expected, abs=1e-9)


class TestEntropicRatio:
    def test_frozen_value(self, internship):
        c, g = parts(internship, "Creativity", "GotHired")
        assert entropic_ratio(c, g) == pytest.approx(
            oracle.RATIO_CREATIVITY_GOTHIRED, abs=oracle.FROZEN_TOL
        )

    def test_half_on_identical(self, internship):
        (c,) = parts(internship, "Creativity")
        assert entropic_ratio(c, c) == pytest.approx(0.5, abs=1e-15)

    def test_one_on_independent(self):
        d = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        assert entropic_ratio(*parts(d, "a", "b")) == pytest.approx(1.0, abs=1e-15)

    def test_undefined_for_two_constants(self):
        d = Dataset.from_columns({"a": ["k"] * 3, "b": ["m"] * 3})
        with pytest.raises(UndefinedRatioError):
            entropic_ratio(*parts(d, "a", "b"))

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=80)
    def test_bounds_and_su_identity(self, d):
        p, q = parts(d, "c0", "c1")
        if entropy(p) + entropy(q) == 0.0:
            return
        r = entropic_ratio(p, q)
        assert 0.5 - TOLERANCE <= r <= 1.0 + TOLERANCE
        assert symmetric_uncertainty(p, q) == pytest.approx(2.0 * (1.0 - r), abs=TOLERANCE)


class TestCrossCheck:
    def test_gaps_tiny_on_fixture_pairs(self, internship):
        names = internship.names
        for a in names:
            for b in names:
                pa, pb = parts(internship, a, b)
                assert cross_check(pa, pb).passed

    def test_constant_pair_has_no_distance_gap(self):
        d = Dataset.from_columns({"a": ["k"] * 3, "b": ["m"] * 3})
        report = cross_check(*parts(d, "a", "b"))
        assert report.check("distance").nonvacuous == 0
        assert report.passed

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=100)
    def test_gaps_tiny_everywhere(self, d):
        assert cross_check(*parts(d, "c0", "c1")).passed

    def test_each_route_pair_is_one_instance_with_both_values(self, internship):
        x, y = parts(internship, "Creativity", "GotHired")
        report = cross_check(x, y)
        assert [c.name for c in report.checks] == [
            "mutual_information", "symmetric_uncertainty", "distance"]
        assert all(c.instances == c.nonvacuous == 1 for c in report.checks)
        mi = report.check("mutual_information")
        assert mi.lhs == entropy(x) - conditional_entropy(x, y)
        assert mi.rhs == entropy(x) + entropy(y) - joint_entropy(x, y)
        assert mi.worst_slack == -abs(mi.lhs - mi.rhs)

    def test_perturbed_joint_route_fails_with_both_values(self, internship, monkeypatch):
        # the check must be able to say no: a joint-entropy route off by 1e-6
        x, y = parts(internship, "Creativity", "GotHired")
        honest = joint_entropy(x, y)
        monkeypatch.setattr("catent.metric.joint_entropy", lambda a, b: honest + 1e-6)
        report = cross_check(x, y)
        assert not report.passed
        mi = report.check("mutual_information")
        assert mi.violations == 1
        assert mi.lhs == entropy(x) - conditional_entropy(x, y)
        assert mi.rhs == entropy(x) + entropy(y) - (honest + 1e-6)
        assert {c.name for c in report.failures()} == {
            "mutual_information", "symmetric_uncertainty"}
        assert f"lhs={mi.lhs!r} rhs={mi.rhs!r}" in report.summary()


class TestConditionalEntropyLaws:
    def test_fixture_triple_passes(self, internship):
        c, g, n = parts(internship, "Creativity", "GotHired", "Neatness")
        report = check_conditional_entropy_laws(c, g, n)
        assert report.passed
        assert not report.failures()

    def test_degenerate_triple_passes_nonvacuously(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "y"]})
        (p,) = parts(d, "a")
        t = trivial_partition(d)
        report = check_conditional_entropy_laws(t, p, p)
        assert report.passed
        assert not report.clause("coarsening_monotone").vacuous
        assert not report.clause("zero_iff_coarser").vacuous

    def test_refined_pair_exercises_coarsening(self):
        d = Dataset.from_columns(
            {"coarse": ["x", "x", "y", "y"], "fine": ["x1", "x2", "y1", "y1"]}
        )
        p, q = parts(d, "coarse", "fine")
        report = check_conditional_entropy_laws(p, q, trivial_partition(d))
        assert report.passed
        assert not report.clause("coarsening_monotone").vacuous
        assert conditional_entropy(p, q) == 0.0

    def test_clause_lookup_unknown_name(self, internship):
        c, g, n = parts(internship, "Creativity", "GotHired", "Neatness")
        with pytest.raises(KeyError):
            check_conditional_entropy_laws(c, g, n).clause("nope")

    def test_refined_generator_triples_nonvacuous(self):
        nonvacuous = 0
        for seed in range(40):
            d = gen_dataset(GenConfig(seed=seed, correlation_mode="refined"), 3)
            p, q, r = parts(d, "c0", "c1", "c2")
            report = check_conditional_entropy_laws(p, q, r)
            assert report.passed
            if not report.clause("coarsening_monotone").vacuous:
                nonvacuous += 1
        assert nonvacuous >= 30  # c0 coarser than c1 by construction

    @given(strategies.datasets(min_cols=3, max_cols=3))
    @settings(max_examples=100, deadline=None)
    def test_laws_hold_on_random_triples(self, d):
        p, q, r = parts(d, "c0", "c1", "c2")
        report = check_conditional_entropy_laws(p, q, r)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("stray", ["y", "z"])
    def test_operand_from_another_universe_raises(self, stray):
        columns = {"a": ["x", "y", "x"], "b": ["p", "p", "q"]}
        p, q = parts(Dataset.from_columns(columns), "a", "b")
        (other,) = parts(Dataset.from_columns(
            columns, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))), "a")
        triple = (p, other, q) if stray == "y" else (p, q, other)
        with pytest.raises(StructuralError, match="different row universes"):
            check_conditional_entropy_laws(*triple)


class TestRouteIndependence:
    def test_conditional_entropy_never_takes_the_joint_route(self, internship, monkeypatch):
        # the chain rule and cross_check compare H(x | y) with joint-entropy
        # sums; they only test something while the two routes stay separate
        def refuse(*args):
            raise AssertionError("conditional_entropy went through the joint-entropy route")

        # the package re-exports the function ``entropy`` under the module's name
        module = importlib.import_module("catent.entropy")
        for name in ("entropy", "join", "joint_entropy"):
            monkeypatch.setattr(module, name, refuse)
        names = internship.names
        ps = dict(zip(names, parts(internship, *names)))
        for a, b in itertools.product(names, repeat=2):
            want = oracle.oracle_conditional_entropy(
                oracle.internship_column(a), oracle.internship_column(b)
            )
            assert conditional_entropy(ps[a], ps[b]) == pytest.approx(want, abs=oracle.FROZEN_TOL)


def blocked(rows: int, *ks: int, weights=None) -> Dataset:
    """Columns c0, c1, ... with exactly ``ks[i]`` blocks each (when rows
    reach the product of the ``ks``): row r's codes are the digits of r."""
    columns, step = {}, 1
    for i, k in enumerate(ks):
        columns[f"c{i}"] = [r // step % k for r in range(rows)]
        step *= k
    return Dataset.from_columns(columns, weights)


def tally(x, y) -> float:
    """``H(x | y)`` by the tally kernel: the cost rule refuses the masks."""
    with mock.patch.object(KERNELS, "_masks_pay", lambda x, y: False):
        return KERNELS._conditional_entropy(x, y)


class TestTallyKernel:
    """The tally kernel reads a unit cell's term (a cell of integer mass 1)
    from the conditioning partition's ``unit_terms``: the float that
    ``n/D log2(n/m)`` gives at ``n = 1``, so every ``H(x | y)`` is the
    ``math.fsum`` of the same terms, bit for bit."""

    @given(st.integers(1, 600), st.data(), st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_the_float_is_the_fsum_of_the_cell_terms(self, rows, data, seed, weighted):
        kx, ky = data.draw(st.integers(1, rows)), data.draw(st.integers(1, rows))
        rng = random.Random(seed)
        xs = [rng.randrange(kx) for _ in range(rows)]
        ys = [rng.randrange(ky) for _ in range(rows)]
        mult = [rng.randint(1, 4) for _ in range(rows)] if weighted else None
        weights = None if mult is None else [Fraction(m, sum(mult)) for m in mult]
        x, y = parts(Dataset.from_columns({"x": xs, "y": ys}, weights), "x", "y")
        for a, b, pa, pb in ((xs, ys, x, y), (ys, xs, y, x), (xs, xs, x, x)):
            want = oracle.oracle_tally_conditional_entropy(a, b, mult)
            assert tally(pa, pb).hex() == want.hex()

    def test_unit_terms_are_stored_once_and_shared_by_mass(self):
        d = Dataset.from_columns({"x": [0, 1, 2, 3, 4, 5, 6, 7],
                                  "y": ["a", "b", "b", "c", "a", "d", "b", "e"]})
        x, y = parts(d, "x", "y")
        assert y.counts == (2, 3, 1, 1, 1) and "unit_terms" not in vars(y)
        tally(x, y)
        assert "unit_terms" in vars(y) and "unit_terms" not in vars(x)
        terms = y.unit_terms
        assert terms is vars(y)["unit_terms"]
        assert terms == tuple(1 / 8 * math.log2(1 / m) for m in y.counts)
        assert terms[2] is terms[3] is terms[4]
        assert len(set(map(id, terms))) == len(set(y.counts)) == 3


class TestMaskRoute:
    """``H(x | y)`` from block bitmasks (``Partition.masks``) is the tally's
    float, bit for bit, and the cost rule sends only tall, few-block,
    unweighted pairs there."""

    @given(st.integers(32, 2000), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_both_kernels_give_the_same_float(self, rows, kx, ky, seed, skewed):
        rng = random.Random(seed)
        draw = (lambda k: int(rng.random() ** 3 * k)) if skewed else rng.randrange
        d = Dataset.from_columns({"x": [draw(kx) for _ in range(rows)],
                                  "y": [draw(ky) for _ in range(rows)]})
        x, y = parts(d, "x", "y")
        for a, b in ((x, y), (y, x), (x, x)):
            assert KERNELS._from_masks(a, b) == tally(a, b)

    def test_masks_hold_each_blocks_rows(self):
        (p,) = parts(Dataset.from_columns({"a": ["u", "v", "u", "w", "u"]}), "a")
        assert p.masks == (0b10101, 0b00010, 0b01000)
        assert [m.bit_count() for m in p.masks] == list(p.counts)

    def test_constant_column_and_self(self):
        d = blocked(128, 4, 1)
        a, c = parts(d, "c0", "c1")
        assert KERNELS._masks_pay(c, a) and KERNELS._masks_pay(a, a)
        assert conditional_entropy(a, a) == conditional_entropy(c, a) == 0.0
        assert conditional_entropy(a, c) == entropy(a) == 2.0
        for x, y in ((a, a), (c, a), (a, c), (c, c)):
            assert KERNELS._from_masks(x, y) == tally(x, y)

    @pytest.mark.parametrize("rows, kx, ky, built, takes", [
        # 16 b <= rows, with b the blocks whose masks are not built yet
        (32, 1, 1, False, True), (31, 1, 1, False, False),
        # 4 kx ky <= rows
        (576, 12, 12, False, True), (575, 12, 12, False, False),
        # b <= 24
        (2000, 12, 12, False, True), (2000, 12, 13, False, False),
        # built masks cost nothing more
        (2000, 13, 13, True, True), (675, 13, 13, True, False),
        # fewer than 32 rows never
        (31, 1, 1, True, False),
    ])
    def test_rule_bounds(self, rows, kx, ky, built, takes):
        x, y = parts(blocked(rows, kx, ky), "c0", "c1")
        assert (x.n_blocks, y.n_blocks) == (kx, ky)
        if built:
            x.masks, y.masks
        assert KERNELS._masks_pay(x, y) is takes
        assert ("masks" in vars(x)) is built
        assert KERNELS._from_masks(x, y) == tally(x, y)

    def test_the_rule_picks_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the other kernel ran")

        tall = parts(blocked(1000, 8, 8), "c0", "c1")
        small = parts(blocked(31, 1, 1), "c0", "c1")
        for p in small:
            p.masks  # built masks do not send fewer than 32 rows to them
        want = tally(*tall), tally(*small)
        with monkeypatch.context() as patched:
            patched.setattr(KERNELS, "cell_keys", refuse)
            assert conditional_entropy(*tall) == want[0]
        assert all("masks" in vars(p) for p in tall)
        monkeypatch.setattr(KERNELS, "_from_masks", refuse)
        assert conditional_entropy(*small) == want[1] == 0.0

    def test_join_operand(self):
        a, b, c = parts(blocked(512, 2, 3, 4), "c0", "c1", "c2")
        ab = join(a, b)
        assert ab.n_blocks == 6 and KERNELS._masks_pay(ab, c) and KERNELS._masks_pay(c, ab)
        for x, y in ((ab, c), (c, ab), (ab, a), (a, ab)):
            assert KERNELS._from_masks(x, y) == tally(x, y)
        assert conditional_entropy(a, ab) == 0.0

    def test_weighted_rows_take_the_tally(self, monkeypatch):
        # the masks count rows, not their weights: they must never see these
        rows = 1000
        weights = [Fraction(1 + r % 3, 2 * rows) for r in range(rows)]
        weights[-1] += 1 - sum(weights)
        x, y = parts(blocked(rows, 2, 2, weights=weights), "c0", "c1")
        x.masks, y.masks
        assert not KERNELS._masks_pay(x, y)
        monkeypatch.setattr(KERNELS, "_from_masks", lambda x, y: math.nan)
        assert conditional_entropy(x, y) == tally(x, y) < 1.0

    @pytest.mark.parametrize("other", ["more rows", "weighted"])
    def test_different_universes_raise(self, other):
        (x,) = parts(blocked(1000, 2), "c0")
        weights = None if other == "more rows" else [Fraction(2, 1001)] + [Fraction(1, 1001)] * 999
        (y,) = parts(blocked(1000 + (other == "more rows"), 2, weights=weights), "c0")
        assert not KERNELS._masks_pay(x, y)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(StructuralError, match="different row universes"):
                conditional_entropy(a, b)

    def test_two_datasets_of_the_same_rows_share_a_universe(self):
        (x,) = parts(blocked(1000, 2), "c0")
        (y,) = parts(blocked(1000, 4), "c0")
        assert KERNELS._masks_pay(x, y)
        assert conditional_entropy(x, y) == tally(x, y) == 0.0

    def test_benchmark_shapes(self, monkeypatch):
        """Every table-tall pair takes the masks; no table-wide-alphabet pair
        and no acceptance-population pair does."""
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        for name, want in (("table-tall", True), ("table-wide-alphabet", False)):
            rows, k = workloads.TABLE_SHAPES[name]
            for seed in range(4):
                d = Dataset.from_columns(workloads.gen_table(rows, k, seed))
                ps = parts(d, *d.names)
                assert {KERNELS._masks_pay(x, y)
                        for x, y in itertools.permutations(ps, 2)} == {want}
        for s in range(0, 1000, 37):
            d = gen_dataset(GenConfig(seed=s), columns=s % 4 + 2)
            ps = parts(d, *d.names)
            assert not any(KERNELS._masks_pay(x, y) for x, y in itertools.product(ps, repeat=2))
