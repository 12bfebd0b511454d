import gc
import io
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catent.algebra import check_contractivity, check_monoid_laws, joint, relabel
from catent.entropy import conditional_entropy
from catent.ingest import load_csv, save_csv
from catent.metric import EXHAUSTIVE_LIMIT, check_entropy_laws
from catent import model
from catent.model import (
    CategoricalVariable,
    ContingencyTable,
    Dataset,
    Partition,
    StructuralError,
    _Masses,
    _tally,
    canonical_classes,
    cell_counts,
    cell_keys,
    contingency,
    format_label,
    induced_partition,
    is_coarser,
    join,
    trivial_partition,
    triple_cell_keys,
)
from catent.randgen import GenConfig, gen_dataset

import oracle
import strategies


def blocks_of(p: Partition) -> set:
    return set(p.blocks)


class TestCategoricalVariable:
    def test_alphabet_first_occurrence_order(self):
        v = CategoricalVariable("v", ("b", "a", "b", "c", "a"))
        assert v.alphabet == ("b", "a", "c")

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            CategoricalVariable("v", ())

    def test_nfc_normalisation_unifies_labels(self):
        # e-acute composed vs decomposed must be one category
        composed, decomposed = "café", "café"
        v = CategoricalVariable("v", (composed, decomposed))
        assert len(v.alphabet) == 1

    def test_len(self):
        assert len(CategoricalVariable("v", ("x", "y"))) == 2

    def test_nfd_and_nfc_spellings_merge_in_first_occurrence_order(self):
        v = CategoricalVariable("v", ["e\u0301", "x", "\u00e9", "x"])
        assert v.labels == ("\u00e9", "x", "\u00e9", "x")
        assert v.alphabet == ("\u00e9", "x")
        assert v.codes == (0, 1, 0, 1)

    def test_non_string_labels_are_left_as_they_are(self):
        v = CategoricalVariable("v", [("e\u0301", 1), "e\u0301", 2.5, ("e\u0301", 1)])
        assert v.labels == (("e\u0301", 1), "\u00e9", 2.5, ("e\u0301", 1))
        assert v.alphabet == (("e\u0301", 1), "\u00e9", 2.5)


class TestDataset:
    def test_uniform_weights_default(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "y"]})
        assert d.row_weights == (Fraction(1, 4),) * 4
        assert d.row_count == 4

    def test_accepts_variables_and_sequences(self):
        v = CategoricalVariable("a", ("x", "y"))
        d = Dataset.from_columns({"a": v, "b": ["p", "q"]})
        assert d["a"] is v
        assert d["b"].labels == ("p", "q")

    def test_length_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            Dataset.from_columns({"a": ["x", "y"], "b": ["p", "q", "r"]})

    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            Dataset.from_columns({"a": ["x", "y"]}, [Fraction(1, 2), Fraction(1, 3)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(StructuralError):
            Dataset.from_columns({"a": ["x", "y"]}, [Fraction(3, 2), Fraction(-1, 2)])

    def test_key_name_mismatch_rejected(self):
        v = CategoricalVariable("a", ("x", "y"))
        with pytest.raises(StructuralError):
            Dataset({"b": v}, (Fraction(1, 2), Fraction(1, 2)))

    def test_with_column_replaces_by_name(self):
        d = Dataset.from_columns({"a": ["x", "y"]})
        d2 = d.with_column(CategoricalVariable("b", ("p", "q")))
        assert d2.names == ("a", "b")
        assert d.names == ("a",)  # original untouched

    def test_unknown_column_raises_keyerror(self):
        d = Dataset.from_columns({"a": ["x", "y"]})
        with pytest.raises(KeyError):
            d["missing"]

    def test_non_string_name_rejected_by_from_columns(self):
        with pytest.raises(StructuralError, match="column name 0 is not a string"):
            Dataset.from_columns({0: ["x", "y"], 1: ["p", "q"]})

    def test_non_string_name_rejected_by_constructor(self):
        v = CategoricalVariable(1, ("x", "y"))
        with pytest.raises(StructuralError, match="column name 1 is not a string"):
            Dataset({1: v}, (Fraction(1, 2), Fraction(1, 2)))

    def test_no_rows_rejected(self):
        with pytest.raises(StructuralError, match="dataset has no rows"):
            Dataset({}, ())

    def test_column_must_be_a_variable(self):
        with pytest.raises(StructuralError, match="'a' is not a CategoricalVariable"):
            Dataset({"a": ("x", "y")}, (Fraction(1, 2), Fraction(1, 2)))

    def test_no_columns_rejected(self):
        with pytest.raises(StructuralError, match="at least one column"):
            Dataset.from_columns({})


class TestInducedPartition:
    def test_basic_blocks(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "z"]})
        p = induced_partition(d["a"], d)
        assert blocks_of(p) == {
            frozenset({0, 2}),
            frozenset({1}),
            frozenset({3}),
        }

    def test_constant_column_is_trivial(self):
        d = Dataset.from_columns({"a": ["k"] * 5})
        assert induced_partition(d["a"], d) == trivial_partition(d)

    def test_probs_follow_weights(self):
        d = Dataset.from_columns(
            {"a": ["x", "y", "x"]},
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        )
        p = induced_partition(d["a"], d)
        assert dict(zip(p.blocks, p.block_probs)) == {
            frozenset({0, 2}): Fraction(3, 4),
            frozenset({1}): Fraction(1, 4),
        }

    def test_fixture_marginals_exact(self, indiscernibles):
        p = induced_partition(indiscernibles["digits"], indiscernibles)
        assert set(p.block_probs) == oracle.MARGINALS_DIGITS

    def test_length_mismatch_rejected(self):
        d = Dataset.from_columns({"a": ["x", "y"]})
        with pytest.raises(StructuralError):
            induced_partition(CategoricalVariable("v", ("x",)), d)

    @given(strategies.datasets())
    @settings(max_examples=60)
    def test_blocks_partition_the_rows(self, d):
        for name in d.names:
            p = induced_partition(d[name], d)
            seen = sorted(i for b in p.blocks for i in b)
            assert seen == list(range(d.row_count))
            assert sum(p.block_probs) == 1


def _labels(seed: int) -> dict:
    d = gen_dataset(GenConfig(seed=seed), columns=seed % 4 + 2)
    return {nm: d[nm].labels for nm in d.names}


class TestDatasetMemo:
    """A dataset builds each column's partition once, and those partitions
    share one table of ``H(x | y)`` keyed by the ordered pair of names."""

    def test_a_column_has_one_partition_per_dataset(self, internship):
        v = internship["Creativity"]
        p = induced_partition(v, internship)
        assert induced_partition(v, internship) is p
        assert canonical_classes(internship)["Creativity"] is p
        assert canonical_classes(internship) is not canonical_classes(internship)
        # the same variable in another dataset gets that dataset's partition
        wider = internship.with_column(CategoricalVariable("k", ("k",) * internship.row_count))
        assert induced_partition(v, wider) is not p
        assert induced_partition(v, wider) is induced_partition(v, wider)

    def test_other_variables_get_a_fresh_partition(self, internship):
        a, b = internship["Creativity"], internship["GotHired"]
        cached = induced_partition(a, internship)
        for make in (lambda: relabel(a), lambda: joint(a, b, internship),
                     lambda: CategoricalVariable(a.name, a.labels)):
            var = make()
            first, second = induced_partition(var, internship), induced_partition(var, internship)
            assert first is not second and first is not cached
            assert first._pairs is None and second._pairs is None
        assert induced_partition(CategoricalVariable(a.name, a.labels), internship) == cached

    def test_cached_values_are_bit_identical_to_a_first_computation(self):
        for seed in range(100):
            columns = _labels(seed)
            d, fresh = Dataset.from_columns(columns), Dataset.from_columns(columns)
            pairs = list(itertools.permutations(columns, 2)) + [(nm, nm) for nm in columns]
            want = {
                (a, b): conditional_entropy(induced_partition(fresh[a], fresh),
                                            induced_partition(fresh[b], fresh)).hex()
                for a, b in pairs
            }
            for _ in range(2):  # the first pass fills the table, the second reads it
                for a, b in reversed(pairs):
                    got = conditional_entropy(induced_partition(d[a], d),
                                              induced_partition(d[b], d))
                    assert got.hex() == want[a, b], (seed, a, b)
            assert set(d._memo[1]) == set(pairs)

    @pytest.mark.parametrize("order", [("x|y", "y|x"), ("y|x", "x|y")])
    def test_the_table_is_keyed_by_the_ordered_pair(self, order):
        d = Dataset.from_columns({"x": ["a", "a", "b", "b"], "y": ["p", "q", "r", "s"]})
        x, y = induced_partition(d["x"], d), induced_partition(d["y"], d)
        want = {"x|y": 0.0, "y|x": 1.0}  # y refines x: knowing y fixes x, not back
        for key in order * 2:
            got = conditional_entropy(x, y) if key == "x|y" else conditional_entropy(y, x)
            assert got == want[key], key

    def test_validators_keep_no_joins(self):
        d = gen_dataset(GenConfig(seed=3, rows=(8, 8)), columns=4)
        check_monoid_laws(d)
        check_contractivity(d)
        check_entropy_laws(d)
        parts, pairs = d._memo
        assert set(parts) == set(d.names)
        assert pairs and all(
            type(key) is tuple and len(key) == 2 and set(key) <= set(d.names)
            and type(value) is float
            for key, value in pairs.items()
        )

    def test_no_reference_cycle_keeps_a_partition_alive(self):
        gc.disable()
        try:
            d = Dataset.from_columns({"a": ["x", "y", "x"], "b": ["p", "p", "q"]})
            p = induced_partition(d["a"], d)
            conditional_entropy(p, induced_partition(d["b"], d))
            alive = weakref.ref(p)
            del d, p
            assert alive() is None
        finally:
            gc.enable()


class TestPartitionConstruction:
    @pytest.mark.parametrize("args", [(), ((frozenset({0}),), (Fraction(1),), (Fraction(1),))])
    def test_direct_construction_is_refused(self, args):
        with pytest.raises(TypeError):
            Partition(*args)


class TestJoin:
    def test_join_crossing_pair(self):
        d = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        p = join(induced_partition(d["a"], d), induced_partition(d["b"], d))
        assert blocks_of(p) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_join_with_trivial_is_identity(self):
        d = Dataset.from_columns({"a": ["x", "y", "x"]})
        p = induced_partition(d["a"], d)
        assert join(p, trivial_partition(d)) == p

    def test_join_of_indiscernible_pair_changes_nothing(self, indiscernibles):
        p = induced_partition(indiscernibles["digits"], indiscernibles)
        q = induced_partition(indiscernibles["letters"], indiscernibles)
        assert join(p, q) == p

    def test_mismatched_universes_rejected(self):
        d1 = Dataset.from_columns({"a": ["x", "y"]})
        d2 = Dataset.from_columns({"a": ["x", "y", "z"]})
        with pytest.raises(StructuralError):
            join(induced_partition(d1["a"], d1), induced_partition(d2["a"], d2))

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60)
    def test_join_laws(self, d):
        parts = [induced_partition(d[nm], d) for nm in d.names]
        p, q = parts[0], parts[1]
        assert join(p, q) == join(q, p)
        assert join(p, p) == p
        assert join(p, trivial_partition(d)) == p
        if len(parts) == 3:
            r = parts[2]
            assert join(join(p, q), r) == join(p, join(q, r))


def _bits(p: Partition) -> tuple:
    return p.codes, p.counts, p.scale, p.multiplicities


class TestJoinStore:
    """The join of two columns of one dataset is built once and kept in one
    process-wide store of at most ``MAX_STORED_JOINS``, keyed by the dataset
    and the ordered pair of names; every other join is built afresh.  A hit
    takes no lock, and a full store evicts its oldest build."""

    def test_the_bound_is_every_ordered_pair_of_an_exhaustive_run(self):
        assert model.MAX_STORED_JOINS == EXHAUSTIVE_LIMIT**2 == 64

    def test_stored_joins_hold_their_packed_codes_alone(self):
        # a join keeps only its packed codes, 4 bytes a row at 4 096 rows; a
        # codes tuple beside them (8 bytes a row) reads about 13 bytes a row
        d = gen_dataset(GenConfig(seed=0, rows=(4096, 4096), alphabet_size=(4, 4),
                                  correlation_mode="independent"), columns=8)
        canonical_classes(d)
        model._joins.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_monoid_laws(d, triples=200)
            gc.collect()
            residue = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        stored = [entry for entry in model._joins.values() if entry[0] is d._memo[1]]
        assert len(stored) == model.MAX_STORED_JOINS
        assert residue / (len(stored) * d.row_count) < 6

    def test_the_two_orders_are_two_joins(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "y"], "b": ["p", "p", "q", "q"]})
        a, b = induced_partition(d["a"], d), induced_partition(d["b"], d)
        ab, ba = join(a, b), join(b, a)
        assert ab is not ba and ab == ba
        assert join(a, b) is ab and join(b, a) is ba

    def test_same_named_datasets_never_share_a_join(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "y"], "b": ["p", "p", "q", "q"]})
        e = Dataset.from_columns({"a": ["x", "x", "y", "y"], "b": ["p", "p", "p", "p"]})
        for _ in range(2):
            dj = join(induced_partition(d["a"], d), induced_partition(d["b"], d))
            ej = join(induced_partition(e["a"], e), induced_partition(e["b"], e))
            assert (dj.codes, ej.codes) == ((0, 1, 2, 3), (0, 0, 1, 1))

    def test_a_dead_datasets_join_never_reaches_a_new_one(self):
        # new datasets of one shape and names, each dropped after use, so that
        # a new one may take a dead one's memory and ids
        for seed in range(300):
            columns = _labels(seed)
            names = list(columns)
            d = Dataset.from_columns(columns)
            x, y = induced_partition(d[names[0]], d), induced_partition(d[names[-1]], d)
            assert _bits(join(x, y)) == _bits(model._join(x, y)), seed
            del d, x, y

    def test_a_rebuilt_dataset_gets_its_own_joins_bit_for_bit(self):
        ds = gen_dataset(GenConfig(seed=3), columns=5)
        twin = Dataset(ds.columns, ds.row_weights)
        for a, b in itertools.product(ds.names, repeat=2):
            got = join(induced_partition(ds[a], ds), induced_partition(ds[b], ds))
            other = join(induced_partition(twin[a], twin), induced_partition(twin[b], twin))
            assert other is not got and _bits(other) == _bits(got)

    def test_only_joins_of_two_columns_are_kept(self, internship):
        a, b = (induced_partition(internship[nm], internship) for nm in internship.names[:2])
        stranger = CategoricalVariable(b._name, internship[b._name].labels)
        others = [
            lambda: join(join(a, b), a),  # a join of a join
            lambda: join(a, trivial_partition(internship)),
            lambda: join(induced_partition(relabel(internship[a._name]), internship), b),
            lambda: join(a, induced_partition(stranger, internship)),  # not the column itself
        ]
        for make in others:
            first, second = make(), make()
            assert first is not second and first == second
            assert all(entry is not first and entry is not second
                       for _, entry in model._joins.values())

    def test_a_sampled_ten_column_monoid_run_keeps_at_most_the_bound(self, monkeypatch):
        wide = gen_dataset(GenConfig(seed=11, correlation_mode="refined"), columns=10)
        real, sizes = model._join, []

        def build(p, q):
            sizes.append(len(model._joins))
            return real(p, q)

        monkeypatch.setattr(model, "_join", build)
        check_monoid_laws(wide, triples=1000, seed=3)
        sizes.append(len(model._joins))
        assert max(sizes) <= model.MAX_STORED_JOINS == sizes[-1]

    def test_a_hit_takes_no_lock(self, monkeypatch):
        class CountingLock:
            acquired = 0

            def __enter__(self):
                CountingLock.acquired += 1

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(model, "_joins_lock", CountingLock())
        d = gen_dataset(GenConfig(seed=7), columns=3)
        x, y = (induced_partition(d[nm], d) for nm in d.names[:2])
        first = join(x, y)
        built = CountingLock.acquired
        assert built >= 1  # the build inserted under the lock
        assert join(x, y) is first and CountingLock.acquired == built

    def test_the_oldest_build_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(model, "_joins", {})
        d = gen_dataset(GenConfig(seed=5), columns=9)
        parts = [induced_partition(d[nm], d) for nm in d.names]
        pairs = list(itertools.product(parts, repeat=2))  # 81 ordered pairs
        real, builds = model._join, []

        def build(p, q):
            builds.append((p._name, q._name))
            return real(p, q)

        monkeypatch.setattr(model, "_join", build)
        for x, y in pairs[:model.MAX_STORED_JOINS]:
            join(x, y)
        assert len(model._joins) == model.MAX_STORED_JOINS == len(builds)
        oldest = pairs[0]
        join(*oldest)  # read again: a hit, which keeps no recency
        join(*pairs[model.MAX_STORED_JOINS])  # one more build evicts the oldest
        del builds[:]
        join(*oldest)
        assert builds == [(oldest[0]._name, oldest[1]._name)]

    def test_four_threads_joining_four_datasets_agree_with_fresh_joins(self):
        datasets = [gen_dataset(GenConfig(seed=s, rows=(12, 12)), columns=5)
                    for s in (1, 5, 9, 13)]
        start, errors, wrong = threading.Barrier(4), [], []

        def work(d):
            try:
                parts = [induced_partition(d[nm], d) for nm in d.names]
                start.wait()
                # 4 x 25 ordered pairs outgrow the store, so threads evict each other
                for _ in range(20):
                    for x, y in itertools.product(parts, repeat=2):
                        if _bits(join(x, y)) != _bits(model._join(x, y)):
                            wrong.append((x._name, y._name))
            except BaseException as exc:  # noqa: BLE001 (any failure is reported)
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(d,)) for d in datasets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that they interleave
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []
        assert len(model._joins) <= model.MAX_STORED_JOINS


class TestRowUniverses:
    """Two partitions meet only on one weighted row universe: the same
    ``scale`` and equal ``multiplicities``, one object or two."""

    UNIFORM = Dataset.from_columns({"a": ["x", "y", "x", "y"], "b": ["p", "p", "q", "q"]})
    # four rows weighing 2/8, 1/8, 3/8, 2/8: another scale on as many rows
    WEIGHTED = Dataset.from_columns(
        {"a": ["x", "y", "x", "y"]}, [Fraction(m, 8) for m in (2, 1, 3, 2)])
    # three rows weighing 2/4, 1/4, 1/4: the uniform scale, other rows
    SHORT = Dataset.from_columns({"a": ["x", "y", "x"]}, [Fraction(m, 4) for m in (2, 1, 1)])
    # the same scale and row count as WEIGHTED, other multiplicities
    SHUFFLED = Dataset.from_columns(
        {"a": ["x", "y", "x", "y"]}, [Fraction(m, 8) for m in (1, 2, 3, 2)])

    KERNELS = {
        "cell_keys": cell_keys,
        "join": join,
        "conditional_entropy": conditional_entropy,
        "triple_cell_keys": lambda p, q: triple_cell_keys(p, p, q),
    }

    @staticmethod
    def _part(d, name="a"):
        return induced_partition(d[name], d)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("other", ["WEIGHTED", "SHORT", "SHUFFLED"])
    def test_another_universe_is_refused(self, kernel, other):
        first = self.UNIFORM if other != "SHUFFLED" else self.WEIGHTED
        p, q = self._part(first), self._part(getattr(self, other))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(StructuralError, match="different row universes"):
                self.KERNELS[kernel](a, b)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_equal_multiplicities_in_two_objects_are_one_universe(self, kernel, weighted):
        source = self.WEIGHTED if weighted else self.UNIFORM
        twin = Dataset.from_columns({"a": source["a"].labels},
                                    [Fraction(w) for w in source.row_weights])
        if weighted:
            assert twin.multiplicities == source.multiplicities
            assert twin.multiplicities is not source.multiplicities
        p, q = self._part(source), self._part(twin)
        want = self.KERNELS[kernel](p, p)
        got = self.KERNELS[kernel](p, q)
        assert (list(got) == list(want) if kernel.endswith("keys") else got == want)


class TestTripleCellKeys:
    """``triple_cell_keys`` against a per-row recount, at a field wide
    enough for the rows and at re-packed wider ones."""

    @pytest.mark.parametrize("rows, symbols", [(6, 3), (12, 12), (200, 50), (2000, 2000)])
    def test_keys_match_the_per_row_formula(self, rows, symbols):
        d = Dataset.from_columns({f"c{i}": [(r * step + i) % symbols for r in range(rows)]
                                  for i, step in enumerate((1, 7, 11))})
        p, q, r = (induced_partition(d[nm], d) for nm in d.names)
        want = [(a * q.n_blocks + b) * r.n_blocks + c
                for a, b, c in zip(p.codes, q.codes, r.codes)]
        assert list(triple_cell_keys(p, q, r)) == want

    def test_none_past_the_bound(self, monkeypatch):
        d = Dataset.from_columns({"a": ["x", "y", "z"], "b": ["p", "q", "q"]})
        p, q = induced_partition(d["a"], d), induced_partition(d["b"], d)
        monkeypatch.setattr(model, "MAX_TRIPLE_CELLS", 3 * 2 * 2 - 1)
        assert triple_cell_keys(p, q, q) is None
        assert triple_cell_keys(q, q, q) is not None


class TestIsCoarser:
    def test_trivial_is_coarsest(self):
        d = Dataset.from_columns({"a": ["x", "y", "z"]})
        p = induced_partition(d["a"], d)
        assert is_coarser(trivial_partition(d), p)
        assert not is_coarser(p, trivial_partition(d))

    def test_crossing_binary_pair_incomparable(self):
        d = Dataset.from_columns(
            {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}
        )
        p = induced_partition(d["a"], d)
        q = induced_partition(d["b"], d)
        assert not is_coarser(p, q)
        assert not is_coarser(q, p)

    @given(strategies.datasets(min_cols=2, max_cols=3))
    @settings(max_examples=60)
    def test_partial_order_laws(self, d):
        parts = [induced_partition(d[nm], d) for nm in d.names]
        p, q = parts[0], parts[1]
        assert is_coarser(p, p)
        # both partitions are coarser than their join
        j = join(p, q)
        assert is_coarser(p, j) and is_coarser(q, j)
        # antisymmetry on canonical content
        if is_coarser(p, q) and is_coarser(q, p):
            assert p == q
        # transitivity through the join
        if len(parts) == 3:
            r = parts[2]
            if is_coarser(p, q) and is_coarser(q, r):
                assert is_coarser(p, r)


def _field_width_dataset(rows: int, weighted: bool) -> Dataset:
    # two all-distinct columns put the cell key rows**2 - 1 in the last field
    columns = {
        "distinct": range(rows),
        "distinct_reversed": range(rows, 0, -1),
        "three": [r % 3 for r in range(rows)],
        "mixed": [(r * 7) % 11 + (r > rows // 2) for r in range(rows)],
    }
    if not weighted:
        return Dataset.from_columns(columns)
    mult = [1 + r % 2 for r in range(rows)]
    return Dataset.from_columns(columns, [Fraction(m, sum(mult)) for m in mult])


class TestCellKeyFieldWidths:
    """Every kernel on the cell keys against a tuple-per-row recount, at
    the row counts on each side of a field-width step (16 | 17 rows: 1 | 2
    bytes; 256 | 257: 2 | 4; 65 536 | 65 537: 4 | 8)."""

    @pytest.mark.parametrize("rows, weighted", [
        (16, False), (17, False), (256, False), (257, False), (257, True),
        (65536, False), (65537, False),
    ])
    def test_kernels_match_tuple_tallies(self, rows, weighted):
        d = _field_width_dataset(rows, weighted)
        mult = d.multiplicities
        parts = {nm: induced_partition(d[nm], d) for nm in d.names}

        def expand(labels):  # the uniform expansion carries the weights as repeated rows
            return labels if mult is None else [
                lab for lab, m in zip(labels, mult) for _ in range(m)]

        pairs = list(itertools.permutations(d.names, 2)) + [("distinct", "distinct")]
        if rows >= 65536:  # the widest keys and one crossing pair keep the tall cases short
            pairs = [("distinct", "distinct_reversed"), ("distinct", "mixed")]
        for a, b in pairs:
            xs, ys = d[a].labels, d[b].labels
            p, q = parts[a], parts[b]
            cells = oracle.oracle_cells(xs, ys, mult)
            assert list(cell_counts(p, q).items()) == list(cells.items()), (rows, a, b)
            joined = join(p, q)
            assert list(joined.codes) == oracle.oracle_codes(list(zip(xs, ys))), (rows, a, b)
            assert joined.counts == tuple(cells.values()), (rows, a, b)
            assert is_coarser(p, q) == oracle.oracle_is_coarser(xs, ys), (rows, a, b)
            assert conditional_entropy(p, q) == pytest.approx(
                oracle.oracle_conditional_entropy(expand(xs), expand(ys)), abs=1e-9
            ), (rows, a, b)


def _counter_items(keys, multiplicities=None) -> list:
    # the Counter a tally replaces: the reference masses, in first-occurrence order
    if multiplicities is None:
        return list(Counter(keys).items())
    masses: Counter = Counter()
    for key, m in zip(keys, multiplicities):
        masses[key] += m
    return list(masses.items())


class TestTally:
    """``_tally`` fills a ``_Masses`` dict with exactly a ``Counter``'s masses, in
    first-occurrence key order, which join block numbers and every
    ``cell_counts`` key follow."""

    @pytest.mark.parametrize("rows, kind", [(16, bytes), (17, memoryview), (256, memoryview)])
    def test_matches_counter_on_cell_keys(self, rows, kind):
        d = _field_width_dataset(rows, weighted=False)
        parts = {nm: induced_partition(d[nm], d) for nm in d.names}
        mixed = tuple(1 + (r * 5) % 7 for r in range(rows))
        for a, b in itertools.permutations(d.names, 2):
            keys = cell_keys(parts[a], parts[b])
            assert type(keys) is kind and (kind is bytes or keys.format == "H")
            for mult in (None, mixed):
                got = _tally(keys, mult)
                assert type(got) is _Masses
                assert list(got.items()) == _counter_items(keys, mult), (rows, a, b, mult)
            assert list(_tally(keys, (1,) * rows).items()) == list(_tally(keys, None).items())

    def test_first_occurrence_order_is_not_sorted_order(self):
        keys = bytes([3, 1, 3, 0, 1, 3, 2])
        mult = (2, 1, 1, 5, 3, 1, 4)
        assert list(_tally(keys, None).items()) == [(3, 3), (1, 2), (0, 1), (2, 1)]
        assert list(_tally(keys, mult).items()) == [(3, 4), (1, 4), (0, 5), (2, 4)]
        assert list(_tally(keys, mult).items()) == _counter_items(keys, mult)


class TestStoredAttributes:
    """Cached attributes are computed on first read, stored in the instance
    dict, and read from there afterwards; the class keeps their docstrings.
    A partition's packed codes are a plain field, set at construction."""

    def test_a_fresh_join_stores_its_entropy_on_first_read(self):
        d = Dataset.from_columns({"a": ["x", "x", "y", "y", "x"], "b": ["p", "q", "p", "p", "q"]})
        p = join(induced_partition(d["a"], d), induced_partition(d["b"], d))
        assert "entropy" not in vars(p) and "packed" in vars(p)
        assert p.entropy == vars(p)["entropy"] == 0.0 - math.fsum(
            c / p.scale * math.log2(c / p.scale) for c in p.counts)
        assert "packed" in vars(p)
        sentinel = object()
        vars(p)["entropy"] = sentinel
        assert p.entropy is sentinel  # later reads never reach the descriptor

    def test_variable_codes_are_stored_on_first_read(self):
        v = CategoricalVariable("v", ("b", "a", "b", "c"))
        assert "codes" not in vars(v)
        assert v.codes == vars(v)["codes"] == (0, 1, 0, 2)
        sentinel = object()
        vars(v)["codes"] = sentinel
        assert v.codes is sentinel

    def test_the_class_keeps_the_docstrings(self):
        assert Partition.entropy.__doc__ == (
            "Shannon entropy in bits, ``-sum P(B) log2 P(B)``; ``+0.0`` when zero.")
        assert "packed" not in Partition.__dict__
        assert CategoricalVariable.codes.__doc__ == "Position of each row's label in ``alphabet``."


class TestPackedCodes:
    """A partition stores its codes once, packed into one integer with row
    r's code in field r: ``codes`` unpacks them on every read, and the keys,
    masks and blocks read the same form, at every field width (1 byte up to
    16 rows, 2 up to 256, 4 up to 65 536, 8 above)."""

    @pytest.mark.parametrize("rows", [16, 256, 1000, 65537])
    def test_round_trip_at_every_field_width(self, rows):
        d = Dataset.from_columns({"a": [f"s{(r * r) % 7}" for r in range(rows)],
                                  "b": [f"t{r % 5}" for r in range(rows)]})
        v = d["a"]
        p, q = induced_partition(v, d), induced_partition(d["b"], d)
        assert p.codes == v.codes == tuple(oracle.oracle_codes(v.labels))
        assert type(p.codes) is tuple
        assert "codes" not in vars(p)
        recount = [set() for _ in p.counts]
        for r, b in enumerate(v.codes):
            recount[b].add(r)
        assert p.blocks == tuple(map(frozenset, recount))
        bits = ("".join("1" if r in block else "0" for r in reversed(range(rows)))
                for block in recount)
        assert p.masks == tuple(int(b, 2) for b in bits)
        assert list(cell_keys(p, q)) == [a * q.n_blocks + b
                                         for a, b in zip(v.codes, d["b"].codes)]

    def test_one_stored_form_on_every_kind_of_partition(self):
        d = Dataset.from_columns({"a": list("xxyyzx"), "b": list("pqppqq")})
        p, q = induced_partition(d["a"], d), induced_partition(d["b"], d)
        for part in (p, join(p, q), join(join(p, q), p), trivial_partition(d)):
            assert "packed" in vars(part)
            part.codes, part.blocks, part.masks, part.entropy
            assert "codes" not in vars(part)
        assert trivial_partition(d).packed == 0
        assert trivial_partition(d).codes == (0,) * 6

    def test_masks_refuse_more_than_256_blocks(self):
        # a field's low byte holds code 256 as 0: the masks must not alias them
        d = Dataset.from_columns({"a": [str(r) for r in range(300)]})
        p = induced_partition(d["a"], d)
        with pytest.raises(ValueError, match=r"byte must be in range\(0, 256\)"):
            p.masks
        assert "masks" not in vars(p)


class TestContingency:
    def test_reference_counts_exact(self, internship):
        table = contingency(internship["Creativity"], internship["GotHired"], internship)
        assert table.row_alphabet == ("D", "S", "I")
        assert table.col_alphabet == ("N", "Y")
        expected = {
            ("D", "Y"): Fraction(8, 20),
            ("D", "N"): Fraction(1, 20),
            ("S", "Y"): Fraction(1, 20),
            ("S", "N"): Fraction(4, 20),
            ("I", "Y"): Fraction(0, 20),
            ("I", "N"): Fraction(6, 20),
        }
        for (r, c), mass in expected.items():
            assert table.mass(r, c) == mass

    def test_marginals_match_column_distributions(self, internship):
        # a column's marginal is its partition's block_probs: the table's rows
        # follow the alphabet, which is also the block order
        table = contingency(internship["Creativity"], internship["GotHired"], internship)
        x = induced_partition(internship["Creativity"], internship)
        y = induced_partition(internship["GotHired"], internship)
        assert set(x.block_probs) == oracle.oracle_marginals(
            oracle.internship_column("Creativity")
        )
        assert set(y.block_probs) == oracle.oracle_marginals(
            oracle.internship_column("GotHired")
        )
        assert tuple(map(sum, table.counts)) == x.block_probs
        assert tuple(map(sum, zip(*table.counts))) == y.block_probs

    def test_self_table_is_diagonal(self):
        d = Dataset.from_columns({"a": ["x", "y", "x", "z"]})
        table = contingency(d["a"], d["a"], d)
        for i, _ in enumerate(table.row_alphabet):
            for j, _ in enumerate(table.col_alphabet):
                if i != j:
                    assert table.counts[i][j] == 0

    @given(strategies.datasets(min_cols=2, max_cols=2))
    @settings(max_examples=60)
    def test_cells_sum_to_one(self, d):
        table = contingency(d["c0"], d["c1"], d)
        assert sum(sum(row) for row in table.counts) == 1

    @pytest.mark.parametrize("rows, cols, counts, message", [
        (("x", "y"), ("p",), ((Fraction(1),),), "one count row per row-alphabet entry"),
        (("x", "y"), ("p", "q"), ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4),)),
         "one count per col-alphabet entry"),
        (("x",), ("p", "q"), ((Fraction(3, 2), Fraction(-1, 2)),), "must be nonnegative"),
        (("x",), ("p", "q"), ((Fraction(1, 2), Fraction(1, 4)),), "must sum to 1"),
    ], ids=["row_count", "ragged_row", "negative_mass", "mass_not_one"])
    def test_malformed_table_rejected(self, rows, cols, counts, message):
        with pytest.raises(StructuralError, match=message):
            ContingencyTable(rows, cols, counts)


class TestCanonicalClass:
    def test_indiscernible_fixture_pair_equal(self, indiscernibles):
        a = induced_partition(indiscernibles["digits"], indiscernibles)
        b = induced_partition(indiscernibles["letters"], indiscernibles)
        assert a == b
        assert a.signature == (Fraction(1, 2), Fraction(2, 5), Fraction(1, 10))

    def test_same_signature_different_partition_distinguished(self):
        # equal probability profiles, different row content
        d = Dataset.from_columns({"a": ["x", "x", "y", "y"], "b": ["x", "y", "x", "y"]})
        ca = induced_partition(d["a"], d)
        cb = induced_partition(d["b"], d)
        assert ca.signature == cb.signature
        assert ca != cb

    @given(strategies.datasets(max_cols=1), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_relabeling_never_changes_class(self, d, rnd):
        v = d["c0"]
        fresh = [f"L{i}" for i in range(len(v.alphabet))]
        rnd.shuffle(fresh)
        rename = dict(zip(v.alphabet, fresh))
        relabeled = CategoricalVariable("c0", tuple(rename[l] for l in v.labels))
        assert induced_partition(relabeled, d) == induced_partition(v, d)

    @given(strategies.datasets(max_cols=2), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_row_permutation_preserves_class_equality(self, d, rnd):
        perm = list(range(d.row_count))
        rnd.shuffle(perm)
        permuted = Dataset.from_columns(
            {nm: [d[nm].labels[i] for i in perm] for nm in d.names}
        )
        for nm in d.names:
            before = induced_partition(d[nm], d)
            after = induced_partition(permuted[nm], permuted)
            assert before.signature == after.signature
        if len(d.names) == 2:
            a, b = d.names
            assert (induced_partition(d[a], d) == induced_partition(d[b], d)) == (
                induced_partition(permuted[a], permuted)
                == induced_partition(permuted[b], permuted)
            )

    def test_canonical_classes_groups_relabelings(self, internship):
        classes = canonical_classes(internship)
        assert classes["Neatness"] == classes["Punctuality"] == classes["IQuotient"]
        distinct = {classes[nm] for nm in internship.names}
        assert len(distinct) == 4


class TestLabelSerialisation:
    """``format_label`` is injective: ``oracle.parse_label`` recovers every label."""

    def test_plain_string_untouched(self):
        assert format_label("abc") == "abc"
        assert oracle.parse_label("abc") == "abc"

    def test_pair_roundtrip(self):
        lab = ("D", "Y")
        assert format_label(lab) == "(D,Y)"
        assert oracle.parse_label("(D,Y)") == lab

    def test_nested_pair_roundtrip(self):
        lab = (("D", "Y"), "R")
        text = format_label(lab)
        assert text == "((D,Y),R)"
        assert oracle.parse_label(text) == lab

    def test_special_characters_escaped(self):
        lab = ("a,b", "c(d)", "e\\f")
        text = format_label(lab)
        assert oracle.parse_label(text) == lab

    def test_string_starting_with_paren_stays_scalar(self):
        text = format_label("(D,Y)")  # a plain string that looks like a pair
        assert text == "\\(D\\,Y\\)"
        assert oracle.parse_label(text) == "(D,Y)"

    def test_label_nested_past_the_recursion_limit_saves(self):
        deep = "x"
        for _ in range(1200):
            deep = (deep, "y")
        data = Dataset.from_columns({"a": [deep, "z", deep]})  # one object on two rows
        back = load_csv(io.StringIO(save_csv(data)))
        text = "(" * 1200 + "x" + ",y)" * 1200
        assert back["a"].labels == (text, "z", text)

    def test_equal_deep_labels_refuse_with_a_structural_error(self):
        # equal but distinct tuples: telling them apart recurses once per level
        def deep(n):
            label = "x"
            for _ in range(n):
                label = (label, "y")
            return label

        with pytest.raises(StructuralError, match="nested too deep"):
            CategoricalVariable("a", (deep(1200), deep(1200)))

    def test_malformed_rejected(self):
        for bad in ("(a,b", "a)b", "(a,b))", "a\\"):
            with pytest.raises(ValueError):
                oracle.parse_label(bad)

    @given(strategies.tuple_labels())
    @settings(max_examples=100)
    def test_roundtrip_property(self, label):
        assert oracle.parse_label(format_label(label)) == label

    @given(st.recursive(
        st.one_of(st.integers(), st.text(st.one_of(st.sampled_from("\\,()é漢"),
                                                   st.characters(blacklist_categories=("Cs",))))),
        lambda parts: st.lists(parts, min_size=1, max_size=3).map(tuple), max_leaves=8))
    @settings(max_examples=200)
    def test_text_is_the_translate_escape(self, label):
        assert format_label(label) == oracle.oracle_format_label(label)
