"""Exact metamorphic laws: equivalent inputs give the same floats, bit for bit.

Masses stay integers until the logarithm, and every kernel ``math.fsum``s
its terms, rounding once in any order.  So two inputs that carry the same
distribution must give the same floats, whichever kernel route each takes:

* a weighted dataset and its uniform expansion (row i repeated ``m_i``
  times): the weighted form tallies its cells, unit cells from
  ``Partition.unit_terms``; the expansion of 32 or more rows counts them
  from block bitmasks when ``_masks_pay``;
* a row permutation, which renumbers the blocks and so reorders every
  cell, mask and term;
* a bijective relabeling of each column, here to labels of other types;
* writing labels in NFD rather than NFC, on every row or on some: a
  column's one tally merges the spellings and adds their counts;
* a reordering and renaming of the columns, compared name for name, since
  the enumeration order of instances (and so a tied witness) moves.

Each form is compared through ``conditional_entropy(...).hex()``, the
joint entropy (a join, kept in the join store), the ``distance_matrix``
values and the reports of ``check_similarity_axioms``,
``check_distance_axioms`` and ``check_entropy_laws`` (one ``_three_way``
tally per triple).  Nothing is compared within a tolerance.
"""

import itertools
import unicodedata
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from catent.entropy import _masks_pay, conditional_entropy, entropy, joint_entropy
from catent.metric import (
    check_distance_axioms,
    check_entropy_laws,
    check_similarity_axioms,
    distance_matrix,
    partition_distance,
)
from catent.model import Dataset, canonical_classes, cell_counts

SYMBOLS = "abcdef"


@st.composite
def tables(draw, max_rows=40, max_columns=4):
    """Columns of up to six symbols over 3 to ``max_rows`` rows, and row
    multiplicities 1 to 4: expansions reach 160 rows."""
    rows = draw(st.integers(3, max_rows))
    mult = draw(st.lists(st.integers(1, 4), min_size=rows, max_size=rows))
    columns = {}
    for i in range(draw(st.integers(2, max_columns))):
        k = draw(st.integers(1, len(SYMBOLS)))
        columns[f"c{i}"] = [SYMBOLS[draw(st.integers(0, k - 1))] for _ in range(rows)]
    return columns, mult


def weighted(columns, mult):
    total = sum(mult)
    return Dataset.from_columns(columns, [Fraction(m, total) for m in mult])


def expanded(columns, mult):
    return {name: [lab for lab, m in zip(col, mult) for _ in range(m)]
            for name, col in columns.items()}


def permuted(columns, order):
    return {name: [col[r] for r in order] for name, col in columns.items()}


def values(dataset, rename=lambda name: name):
    """Every pair value of ``dataset`` as exact text, keyed by the names
    ``rename`` gives its columns."""
    parts = canonical_classes(dataset)
    matrix = distance_matrix(dataset)
    out = {rename(a): entropy(p).hex() for a, p in parts.items()}
    for a, b in itertools.product(dataset.names, repeat=2):
        p, q = parts[a], parts[b]
        out[rename(a), rename(b)] = (conditional_entropy(p, q).hex(),
                                     joint_entropy(p, q).hex(), matrix.value(a, b).hex())
    return out


def reports(dataset):
    parts = canonical_classes(dataset)
    return (check_similarity_axioms(dataset),
            check_distance_axioms(distance_matrix(dataset), parts),
            check_entropy_laws(dataset))


def fingerprint(dataset):
    return values(dataset), tuple(map(repr, reports(dataset)))


@given(tables())
@settings(max_examples=60)
def test_weights_equal_their_uniform_expansion(table):
    columns, mult = table
    assert fingerprint(weighted(columns, mult)) == fingerprint(
        Dataset.from_columns(expanded(columns, mult)))


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_row_permutations(table, rng):
    columns, mult = table
    order = list(range(len(mult)))
    rng.shuffle(order)
    assert fingerprint(weighted(columns, mult)) == fingerprint(
        weighted(permuted(columns, order), [mult[r] for r in order]))
    wide = expanded(columns, mult)
    order = list(range(sum(mult)))
    rng.shuffle(order)
    assert fingerprint(Dataset.from_columns(wide)) == fingerprint(
        Dataset.from_columns(permuted(wide, order)))


@given(tables(), st.permutations(range(len(SYMBOLS))))
@settings(max_examples=30)
def test_bijective_relabelings(table, image):
    columns, mult = table
    wide = expanded(columns, mult)
    # symbol s of column i becomes the tuple (i, image[s]): another type, one to one
    relabeled = {name: [(i, image[SYMBOLS.index(lab)]) for lab in col]
                 for i, (name, col) in enumerate(wide.items())}
    assert fingerprint(Dataset.from_columns(wide)) == fingerprint(
        Dataset.from_columns(relabeled))


# composed letters, each but the last two or three code points in NFD
ACCENTED = dict(zip(SYMBOLS, ["\u00e9", "\u00e0", "\u00f1", "\u1e69", "\u00c5", "o"]))


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_nfd_spellings(table, rng):
    columns, mult = table
    nfc = {name: [ACCENTED[lab] for lab in col] for name, col in columns.items()}
    nfd = {name: [unicodedata.normalize("NFD", lab) for lab in col] for name, col in nfc.items()}
    mixed = {name: [unicodedata.normalize(rng.choice(("NFC", "NFD")), lab) for lab in col]
             for name, col in nfc.items()}
    for build in (lambda cols: weighted(cols, mult),
                  lambda cols: Dataset.from_columns(expanded(cols, mult))):
        want = build(nfc)
        for spelled in build(nfd), build(mixed):
            assert spelled == want
            assert fingerprint(spelled) == fingerprint(want)


def _counts(report):
    return [(c.name, c.instances, c.nonvacuous, c.violations, c.worst_slack) for c in report.checks]


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_column_reordering_and_renaming(table, rng):
    columns, mult = table
    names = list(columns)
    rng.shuffle(names)
    renamed = {"v" + name: columns[name] for name in names}
    for build in (lambda cols: weighted(cols, mult),
                  lambda cols: Dataset.from_columns(expanded(cols, mult))):
        before, after = build(columns), build(renamed)
        old, new = values(before, rename=lambda name: "v" + name), values(after)
        # distance_matrix computes 1 - SU(x, y) with x the earlier column, and
        # SU's two orders may differ in the last bit: a pair whose order flips
        # holds the distance computed in the flipped order
        parts = canonical_classes(before)
        for a, b in itertools.permutations(columns, 2):
            first, second = sorted((a, b), key=names.index)
            if first > second:  # the pair's order flipped: it was in name order
                flipped = partition_distance(parts[first], parts[second]).hex()
                old["v" + a, "v" + b] = old["v" + a, "v" + b][:2] + (flipped,)
        assert old == new
        # the same multiset of margins on the same values: counts and the worst agree
        for one, other in zip(reports(before)[::2], reports(after)[::2]):
            assert _counts(one) == _counts(other)


def test_a_pinned_table_takes_both_kernel_routes():
    # the kind of table drawn above: its expansion counts the cells of a pair
    # from bitmasks, and the weighted form tallies them, one of mass 1
    columns = {"c0": list("ab" * 20), "c1": ["x"] + ["y"] * 39}
    mult = [1, 2, 3, 4] * 10
    light = canonical_classes(weighted(columns, mult))
    heavy = canonical_classes(Dataset.from_columns(expanded(columns, mult)))
    assert 1 in cell_counts(light["c0"], light["c1"]).values()
    assert not _masks_pay(light["c0"], light["c1"]) and _masks_pay(heavy["c0"], heavy["c1"])
    assert conditional_entropy(light["c0"], light["c1"]).hex() == conditional_entropy(
        heavy["c0"], heavy["c1"]).hex()
    assert "unit_terms" in vars(light["c1"]) and "masks" in vars(heavy["c1"])
