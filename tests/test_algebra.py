import functools
import io
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings

from catent import algebra, metric, model
from catent.algebra import (
    are_indiscernible,
    check_contractivity,
    check_monoid_laws,
    identity_variable,
    joint,
    relabel,
)
from catent.entropy import TOLERANCE, check_conditional_entropy_laws
from catent.ingest import load_csv, save_csv
from catent.metric import instances, partition_distance
from catent.model import (
    CategoricalVariable,
    Dataset,
    StructuralError,
    induced_partition,
    join,
    trivial_partition,
)
from catent.randgen import GenConfig, gen_dataset

import oracle
import strategies

MONOID_CHECKS = (
    "associativity",
    "commutativity",
    "identity_element",
    "well_definedness",
)


@pytest.fixture(scope="module")
def acceptance_population():
    return [gen_dataset(GenConfig(seed=s), columns=s % 4 + 2) for s in range(200)]


def one_sided_joint(monkeypatch):
    """Patch ``catent.algebra.joint`` so that the joint of two different
    columns carries only the left operand's labels, and ``catent.algebra.join``
    (which the validators join pairs with), so that the join
    of two different partitions is the left one: commutativity breaks, while
    associativity, identity and well-definedness still hold."""
    real_joint, real_join = algebra.joint, algebra.join

    def left_only(a, b, dataset):
        j = real_joint(a, b, dataset)
        return j if a == b else CategoricalVariable(j.name, a.labels)

    def left_only_join(p, q):
        return real_join(p, q) if p == q else p

    monkeypatch.setattr(algebra, "joint", left_only)
    monkeypatch.setattr(algebra, "join", left_only_join)


def merging_relabel(monkeypatch):
    """Patch ``catent.algebra.relabel`` so that the copy merges the first
    two labels of the column: the copy is no longer indiscernible, so
    well-definedness breaks and the other laws, which never relabel, hold."""
    real = algebra.relabel

    def merging(var):
        r = real(var)
        merged = dict(zip(r.alphabet[1:2], r.alphabet[:1]))
        return CategoricalVariable(r.name, tuple(merged.get(lab, lab) for lab in r.labels))

    monkeypatch.setattr(algebra, "relabel", merging)


def monoid_by_row_blocks(dataset):
    """``(passed, instances, first counterexample)`` per monoid law,
    recomputed over every ordered instance from joints compared by the
    row blocks of their labels (``oracle.oracle_blocks``), never by codes
    or partitions."""
    canon = lambda v: oracle.oracle_blocks(v.labels)  # noqa: E731
    j = lambda a, b: algebra.joint(a, b, dataset)  # noqa: E731
    r = algebra.relabel  # read at call time, so a patched relabel is seen too
    pair = functools.cache(lambda a, b: j(dataset[a], dataset[b]))
    const = identity_variable(dataset)
    found = {law: [0, None] for law in MONOID_CHECKS}

    def record(law, equal, witness):
        found[law][0] += 1
        if not equal and found[law][1] is None:
            found[law][1] = witness

    names = dataset.names
    for w in itertools.product(names, repeat=3):
        x, y, z = map(dataset.__getitem__, w)
        record("associativity", canon(j(pair(*w[:2]), z)) == canon(j(x, pair(*w[1:]))), w)
    for w in itertools.product(names, repeat=2):
        x, y = map(dataset.__getitem__, w)
        record("commutativity", canon(j(x, y)) == canon(j(y, x)), w)
        record("well_definedness", canon(j(r(x), r(y))) == canon(j(x, y)), w)
    for nm in names:
        record("identity_element", canon(j(dataset[nm], const)) == canon(dataset[nm]), (nm,))
    return {law: (w is None, n, w) for law, (n, w) in found.items()}


def contractivity_by_partition_distance(dataset, quads):
    """The contractivity report over ``quads``, with every distance from
    ``partition_distance`` on the operands in the order in which its pair
    (of columns, or of joined pairs) is first asked for, and a join per
    ordered pair."""
    parts = {nm: induced_partition(dataset[nm], dataset) for nm in dataset.names}
    first: dict[frozenset, float] = {}

    def d(key, p, q):
        if key not in first:
            first[key] = partition_distance(p, q)
        return first[key]

    g = metric._Gauge("contractivity", -TOLERANCE)
    for x, y, z, w in quads:
        lhs = d(frozenset({(x, y), (z, w)}),
                join(parts[x], parts[y]), join(parts[z], parts[w]))
        rhs = d(frozenset({x, z}), parts[x], parts[z]) + d(frozenset({y, w}), parts[y], parts[w])
        g.add(rhs - lhs, (x, y, z, w), lhs=lhs, rhs=rhs)
    return metric._report(g)


def _fields(report):
    """Every field of every check, floats as ``float.hex`` so that equality is
    bit for bit."""
    def bits(v):
        return v.hex() if isinstance(v, float) else v
    return [(c.name, c.instances, c.nonvacuous, c.violations, bits(c.worst_slack),
             c.witness, bits(c.lhs), bits(c.rhs)) for c in report.checks]


def monoid_by_ordered_joins(dataset, triples=None, seed=0):
    """``check_monoid_laws`` by its first algorithm: every ordered pair's
    join computed and kept apart, and both operands relabeled afresh for
    every new pair."""
    parts = {nm: induced_partition(dataset[nm], dataset) for nm in dataset.names}
    pair = functools.cache(lambda a, b: join(parts[a], parts[b]))
    const = trivial_partition(dataset)
    gauges = [metric._Gauge(name, 0.0) for name in MONOID_CHECKS]
    g_assoc, g_commut, g_ident, g_well = gauges
    verdict = lambda equal: 0.0 if equal else float("-inf")  # noqa: E731
    pairs_done, singles_done = set(), set()
    for x, y, z in instances(dataset.names, 3, triples, seed):
        g_assoc.add(verdict(join(pair(x, y), parts[z]) == join(parts[x], pair(y, z))), (x, y, z))
        if (x, y) not in pairs_done:
            pairs_done.add((x, y))
            g_commut.add(verdict(pair(x, y) == pair(y, x)), (x, y))
            copies = joint(relabel(dataset[x]), relabel(dataset[y]), dataset)
            g_well.add(verdict(induced_partition(copies, dataset) == pair(x, y)), (x, y))
        if x not in singles_done:
            singles_done.add(x)
            g_ident.add(verdict(join(parts[x], const) == parts[x]), (x,))
    return metric._report(*gauges)


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that counts its calls."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestJoint:
    def test_labels_are_rowwise_pairs(self, internship):
        j = joint(internship["Creativity"], internship["GotHired"], internship)
        assert j.name == "(Creativity*GotHired)"
        assert j.labels[0] == ("D", "N")
        assert j.labels[3] == ("D", "Y")
        assert len(j) == internship.row_count

    def test_partition_is_join_of_partitions(self, internship):
        x, y = internship["Creativity"], internship["GotHired"]
        j = joint(x, y, internship)
        assert induced_partition(j, internship) == join(
            induced_partition(x, internship), induced_partition(y, internship)
        )

    def test_nested_name_composition(self, internship):
        x, y, z = (internship[nm] for nm in ("Neatness", "Creativity", "GotHired"))
        nested = joint(joint(x, y, internship), z, internship)
        assert nested.name == "((Neatness*Creativity)*GotHired)"
        assert nested.labels[0] == (("R", "D"), "N")

    def test_wrong_length_rejected(self, internship):
        stray = identity_variable(Dataset.from_columns({"a": ["x", "y"]}))
        with pytest.raises(StructuralError):
            joint(internship["Neatness"], stray, internship)

    def test_self_joint_is_indiscernible_from_original(self, internship):
        x = internship["Creativity"]
        assert are_indiscernible(joint(x, x, internship), x, internship)

    def test_rows_with_one_pair_share_its_label(self, internship):
        j = joint(internship["Creativity"], internship["GotHired"], internship)
        assert j.labels[2] == j.labels[3] == ("D", "Y") and j.labels[2] is j.labels[3]

    @staticmethod
    def _fold(count):
        # a joint over `count` columns, one column at a time, as the CLI folds
        names = [f"c{i}" for i in range(count)]
        data = Dataset.from_columns(
            {nm: ["x", "y", "x", "y"] if i % 2 else ["p", "p", "q", "q"]
             for i, nm in enumerate(names)})
        return data, functools.reduce(
            lambda acc, nm: joint(acc, data[nm], data), names[1:], data[names[0]])

    def test_deep_fold_refuses_with_a_structural_error(self):
        # past MAX_JOINT levels, comparing the labels would recurse too deep
        with pytest.raises(StructuralError, match=f"at most {algebra.MAX_JOINT} levels"):
            self._fold(400)
        with pytest.raises(ValueError):
            self._fold(algebra.MAX_JOINT + 2)
        self._fold(algebra.MAX_JOINT + 1)

    def test_first_row_flat_and_second_deep_round_trips_through_csv(self):
        # the nesting bound reads row 0 only, so a deeper row 1 gets through
        deep = "z"
        for _ in range(150):
            deep = (deep, "w")
        data = Dataset.from_columns({"a": ["x", deep, "x"], "b": ["p", "q", "q"]})
        combined = joint(data["a"], data["b"], data)
        back = load_csv(io.StringIO(save_csv(data.with_column(combined))))
        assert (induced_partition(back[combined.name], back)
                == induced_partition(combined, data))

    def test_hundred_column_fold_round_trips_through_csv(self):
        data, combined = self._fold(100)
        text = save_csv(data.with_column(combined))
        back = load_csv(io.StringIO(text))
        assert save_csv(back) == text
        assert (induced_partition(back[combined.name], back)
                == induced_partition(combined, data))

    def test_balanced_wide_fold_is_shallow(self):
        data = Dataset.from_columns({f"c{i}": ["x", "y", "y"] for i in range(400)})
        level = [data[nm] for nm in data.names]
        while len(level) > 1:  # 400 columns, nine levels deep
            level = [joint(*level[i:i + 2], data) if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        assert induced_partition(level[0], data) == induced_partition(data["c0"], data)
        assert len(save_csv(data.with_column(level[0]))) > 0


class TestIdentityAndIndiscernibility:
    def test_identity_variable_is_constant(self, internship):
        e = identity_variable(internship)
        assert e.name == "constant"
        assert set(e.labels) == {"const"}
        assert len(e) == internship.row_count

    def test_joint_with_identity_changes_nothing(self, internship):
        e = identity_variable(internship)
        for nm in internship.names:
            x = internship[nm]
            assert are_indiscernible(joint(x, e, internship), x, internship)
            assert are_indiscernible(joint(e, x, internship), x, internship)

    def test_fixture_relabelings_are_indiscernible(self, internship):
        assert are_indiscernible(
            internship["Neatness"], internship["Punctuality"], internship
        )
        assert are_indiscernible(
            internship["Punctuality"], internship["IQuotient"], internship
        )
        assert not are_indiscernible(
            internship["Creativity"], internship["GotHired"], internship
        )

    def test_indiscernibles_fixture(self, indiscernibles):
        assert are_indiscernible(
            indiscernibles["digits"], indiscernibles["letters"], indiscernibles
        )

    def test_relabel_preserves_class_and_renames(self, internship):
        x = internship["Creativity"]
        r = relabel(x)
        assert r.name == "Creativity'"
        assert set(r.labels) == {"r0", "r1", "r2"}
        assert are_indiscernible(x, r, internship)

    @given(strategies.datasets(max_cols=1))
    @settings(max_examples=60)
    def test_relabel_never_changes_class(self, data):
        x = data["c0"]
        assert induced_partition(relabel(x), data) == induced_partition(x, data)


class TestMonoidLaws:
    def test_fixture_passes_exactly(self, internship):
        report = check_monoid_laws(internship)
        assert report.passed
        for name in MONOID_CHECKS:
            check = report.check(name)
            assert check.passed
            assert check.worst_slack == 0.0
        assert report.check("associativity").instances == 6**3
        assert report.check("commutativity").instances == 6**2
        assert report.check("well_definedness").instances == 6**2
        assert report.check("identity_element").instances == 6

    def test_counterexample_dataset_still_a_monoid(self, triangle_counterexample):
        # the triangle failure is a property of the distance, not the algebra
        report = check_monoid_laws(triangle_counterexample)
        assert report.passed
        assert report.check("associativity").instances == 3**3

    def test_single_column_dataset(self):
        data = Dataset.from_columns({"only": ["x", "y", "x"]})
        report = check_monoid_laws(data)
        assert report.passed
        assert report.check("associativity").instances == 1
        assert report.check("identity_element").instances == 1

    def test_sampled_mode_deterministic(self, internship):
        a = check_monoid_laws(internship, triples=40, seed=11)
        b = check_monoid_laws(internship, triples=40, seed=11)
        assert a.check("associativity").instances == 40
        assert a.passed and b.passed

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_laws_hold_on_random_datasets(self, data):
        report = check_monoid_laws(data)
        assert report.passed, report.summary()

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=60)
    def test_well_definedness_directly(self, data):
        x, y = data["c0"], data["c1"]
        original = induced_partition(joint(x, y, data), data)
        replaced = induced_partition(joint(relabel(x), relabel(y), data), data)
        assert original == replaced

    @pytest.mark.parametrize("order", [1, -1], ids=["columns", "reversed-columns"])
    def test_one_sided_joint_fails_commutativity(self, internship, monkeypatch, order):
        # names c0..c5 run ascending in one order and descending in the other
        columns = [(f"c{i}", internship[nm].labels) for i, nm in enumerate(internship.names)]
        data = Dataset.from_columns(dict(columns[::order]))
        assert check_monoid_laws(data).passed
        one_sided_joint(monkeypatch)
        report = check_monoid_laws(data)
        assert [c.name for c in report.failures()] == ["commutativity"]
        # every discernible pair now fails, so the first one is the witness
        first = next(
            (a, b) for a, b in itertools.product(data.names, repeat=2)
            if not are_indiscernible(data[a], data[b], data)
        )
        assert report.check("commutativity").witness == first

    def test_merging_relabel_fails_only_well_definedness(self, internship, monkeypatch):
        assert check_monoid_laws(internship).passed
        merging_relabel(monkeypatch)
        report = check_monoid_laws(internship)
        assert [c.name for c in report.failures()] == ["well_definedness"]
        # the first column has three labels, so its self-pair is the first to break
        first = internship.names[0]
        assert report.check("well_definedness").witness == (first, first)
        assert report.check("well_definedness").instances == 6**2

    @pytest.mark.parametrize(
        "fault", [None, one_sided_joint, merging_relabel],
        ids=["joint", "one-sided-joint", "merging-relabel"],
    )
    def test_verdicts_equal_canonical_class_recomputation(
        self, acceptance_population, monkeypatch, fault
    ):
        datasets = acceptance_population
        if fault is not None:  # failing verdicts, so that witnesses are compared too
            fault(monkeypatch)
            datasets = datasets[:50]
        failed = 0
        for dataset in datasets:
            report = check_monoid_laws(dataset)
            got = {c.name: (c.passed, c.instances, None if c.passed else c.witness)
                   for c in report.checks}
            assert got == monoid_by_row_blocks(dataset)
            failed += not report.passed
        assert failed == 0 if fault is None else failed > 0

    def test_memory_stays_flat_on_wide_sampled_data(self):
        # a memo of one join per ordered pair grows with columns^2 x rows
        data = gen_dataset(GenConfig(seed=0, rows=(1024, 1024)), 50)
        tracemalloc.start()
        try:
            report = check_monoid_laws(data, triples=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 2**20


    def test_joins_each_stored_pair_once(self, monkeypatch):
        data = gen_dataset(GenConfig(seed=3), columns=5)
        joins = _counting(monkeypatch, model, "_join")
        check_monoid_laws(data)
        # 25 ordered pairs kept in the join store, two associativity joins
        # for each of the 125 triples, and one identity join per column
        assert len(joins) == 25 + 2 * 125 + 5


class TestSharedWork:
    """The validators share every distinct join, distance and relabeled copy
    within one call, with every field of the report, floats bit for bit, as
    the algorithms that computed each instance afresh."""

    @pytest.fixture(scope="class")
    def wide(self):
        return gen_dataset(GenConfig(seed=11, correlation_mode="refined"), columns=10)

    def test_monoid_matches_the_ordered_join_loop(self, acceptance_population, wide):
        for dataset in acceptance_population:
            assert _fields(check_monoid_laws(dataset)) == _fields(monoid_by_ordered_joins(dataset))
        assert (_fields(check_monoid_laws(wide, triples=1000, seed=3))
                == _fields(monoid_by_ordered_joins(wide, 1000, 3)))

    def test_contractivity_matches_the_ordered_join_loop(self, acceptance_population, wide):
        for dataset in acceptance_population:
            assert (_fields(check_contractivity(dataset)) == _fields(
                contractivity_by_partition_distance(dataset, instances(dataset.names, 4))))
        assert (_fields(check_contractivity(wide, quadruples=1000, seed=3)) == _fields(
            contractivity_by_partition_distance(wide, instances(wide.names, 4, 1000, 3))))

    def test_commuted_joins_share_one_distance(self, monkeypatch):
        data = gen_dataset(GenConfig(seed=3), columns=5)
        distances = _counting(monkeypatch, algebra, "partition_distance")
        joins = _counting(monkeypatch, model, "_join")
        check_contractivity(data)
        # 15 column pairs, and 160 of the 325 unordered pairs of ordered joins
        # (15 joins, one per unordered column pair, each order included)
        assert (len(distances), len(joins)) == (175, 15)

    def test_a_sampled_ten_column_run_builds_each_join_once(self, monkeypatch, wide):
        joins = _counting(monkeypatch, model, "_join")
        check_contractivity(wide, quadruples=1000, seed=3)
        assert len(joins) <= 10 * 11 // 2

    def test_the_per_triple_laws_build_each_ordered_pair_once(self, monkeypatch):
        data = gen_dataset(GenConfig(seed=3), columns=5)
        parts = [induced_partition(data[nm], data) for nm in data.names]
        joins = _counting(monkeypatch, model, "_join")
        for x, y, z in itertools.product(parts, repeat=3):
            check_conditional_entropy_laws(x, y, z)
        # x v y, x v z and y v z of 125 triples name the 25 ordered pairs
        assert len(joins) == 25

    def test_the_validators_share_their_column_pair_joins(self, monkeypatch):
        data = gen_dataset(GenConfig(seed=3), columns=5)
        parts = [induced_partition(data[nm], data) for nm in data.names]
        joins = _counting(monkeypatch, model, "_join")
        check_monoid_laws(data)
        check_contractivity(data)
        for x, y, z in itertools.product(parts, repeat=3):
            check_conditional_entropy_laws(x, y, z)
        # the monoid check builds all 25 pair joins; the others only read them
        assert len(joins) == 25 + 2 * 125 + 5

    def test_monoid_relabels_each_column_once(self, monkeypatch):
        data = gen_dataset(GenConfig(seed=3), columns=5)
        copies = _counting(monkeypatch, algebra, "relabel")
        check_monoid_laws(data)
        assert sorted(var.name for (var,) in copies) == sorted(data.names)


class TestContractivity:
    def test_memory_stays_flat_on_wide_sampled_data(self):
        # a memo of every ordered-pair join (with its packed codes) grows with
        # columns^2 x rows: 300 quadruples over 50 columns peak at 5-7 MiB with
        # it and at about 1.5 MiB with the bounded one
        data = gen_dataset(GenConfig(seed=0, rows=(1024, 1024)), 50)
        tracemalloc.start()
        try:
            report = check_contractivity(data, quadruples=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 3 * 2**20

    def test_fixture_passes_exhaustively(self, internship):
        report = check_contractivity(internship)
        assert report.passed
        check = report.check("contractivity")
        assert check.instances == 6**4
        assert check.worst_slack >= 0.0

    def test_holds_even_on_triangle_counterexample(self, triangle_counterexample):
        report = check_contractivity(triangle_counterexample)
        assert report.passed
        assert report.check("contractivity").instances == 3**4

    def test_two_column_exhaustive_count(self):
        data = Dataset.from_columns(
            {"a": ["x", "y", "x", "y"], "b": ["p", "p", "q", "q"]}
        )
        report = check_contractivity(data)
        assert report.passed
        assert report.check("contractivity").instances == 2**4

    def test_sampled_mode_deterministic(self, internship):
        a = check_contractivity(internship, quadruples=64, seed=3)
        b = check_contractivity(internship, quadruples=64, seed=3)
        ca, cb = a.check("contractivity"), b.check("contractivity")
        assert ca.instances == 64
        assert ca.worst_slack == cb.worst_slack
        assert ca.witness == cb.witness

    def test_matches_direct_inequality(self, triangle_counterexample):
        data = triangle_counterexample
        parts = {nm: induced_partition(data[nm], data) for nm in data.names}
        worst = min(
            partition_distance(parts[x], parts[z])
            + partition_distance(parts[y], parts[w])
            - partition_distance(join(parts[x], parts[y]), join(parts[z], parts[w]))
            for x, y, z, w in itertools.product(data.names, repeat=4)
        )
        report = check_contractivity(data)
        assert report.check("contractivity").worst_slack == pytest.approx(
            worst, abs=1e-12
        )

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_holds_on_random_datasets(self, data):
        report = check_contractivity(data)
        assert report.passed, report.summary()

    @given(strategies.weighted_datasets())
    @settings(max_examples=60)
    def test_lhs_rhs_equal_partition_distance_exactly(self, drawn):
        data, _ = drawn
        runs = [(None, 0, list(itertools.product(data.names, repeat=4)))]
        runs += [(1, seed, instances(data.names, 4, 1, seed)) for seed in range(4)]
        for size, seed, quads in runs:
            got = check_contractivity(data, quadruples=size, seed=seed)
            assert _fields(got) == _fields(contractivity_by_partition_distance(data, quads))
