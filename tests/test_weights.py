"""Non-uniform row weights against their uniform expansion.

A dataset whose row i weighs ``m_i / sum(m)`` carries the same
distribution as the uniform dataset in which row i is repeated ``m_i``
times, so every entropy, partition verdict and exact mass computed on
the integer multiplicities must agree with the Counter-based oracle run
on the expansion.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from catent.algebra import relabel
from catent.entropy import conditional_entropy, entropy, symmetric_uncertainty
from catent.model import (
    Dataset,
    StructuralError,
    cell_counts,
    contingency,
    induced_partition,
    is_coarser,
    join,
    trivial_partition,
)

import oracle
import strategies

TOL = 1e-12


@given(strategies.weighted_datasets())
@settings(max_examples=150)
def test_weighted_dataset_matches_its_uniform_expansion(case):
    d, expanded = case
    parts = {nm: induced_partition(d[nm], d) for nm in d.names}
    for nm, p in parts.items():
        assert p.signature == oracle.oracle_profile(expanded[nm])
    for a, b in itertools.product(d.names, repeat=2):
        p, q, xs, ys = parts[a], parts[b], expanded[a], expanded[b]
        assert entropy(p) == pytest.approx(oracle.oracle_entropy(xs), abs=TOL)
        assert conditional_entropy(p, q) == pytest.approx(
            oracle.oracle_conditional_entropy(xs, ys), abs=TOL
        )
        assert symmetric_uncertainty(p, q) == pytest.approx(oracle.oracle_su(xs, ys), abs=TOL)
        joined = join(p, q)
        assert entropy(joined) == pytest.approx(oracle.oracle_joint_entropy(xs, ys), abs=TOL)
        assert joined.n_blocks == len(set(zip(xs, ys)))
        # p is coarser than q exactly when joining p to q leaves q unchanged
        assert is_coarser(p, q) == oracle.oracle_is_coarser(xs, ys)
        assert (joined == q) == oracle.oracle_is_coarser(xs, ys)
        cells = Counter(zip(xs, ys))
        table = contingency(d[a], d[b], d)
        for la, lb in itertools.product(table.row_alphabet, table.col_alphabet):
            assert table.mass(la, lb) == Fraction(cells[la, lb], len(xs))


@given(strategies.weighted_datasets())
@settings(max_examples=60)
def test_equal_partitions_hash_equal(case):
    d, _ = case
    for nm in d.names:
        p = induced_partition(d[nm], d)
        for twin in (
            join(p, p),
            join(p, trivial_partition(d)),
            induced_partition(relabel(d[nm]), d),
        ):
            assert twin == p
            assert hash(twin) == hash(p)


def test_same_blocks_with_other_weights_compare_unequal():
    columns = {"a": ["x", "y", "x"]}
    uniform = Dataset.from_columns(columns)
    weighted = Dataset.from_columns(columns, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    p = induced_partition(uniform["a"], uniform)
    q = induced_partition(weighted["a"], weighted)
    assert p.blocks == q.blocks
    assert p != q
    assert p.block_probs == (Fraction(2, 3), Fraction(1, 3))
    assert q.block_probs == (Fraction(3, 4), Fraction(1, 4))


@given(strategies.datasets())
@settings(max_examples=60)
def test_signature_is_the_label_profile(d):
    for nm in d.names:
        assert induced_partition(d[nm], d).signature == oracle.oracle_profile(d[nm].labels)


@pytest.mark.parametrize("weights", [
    pytest.param(None, id="uniform"),
    pytest.param((Fraction(1, 2), Fraction(1, 8), Fraction(3, 8)), id="other-scale"),
    pytest.param((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), id="same-scale"),
])
def test_same_codes_on_other_weights_are_another_universe(weights):
    columns = {"a": ["x", "y", "x"]}
    other = Dataset.from_columns(columns, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    d = Dataset.from_columns(columns, weights)
    p, q = induced_partition(other["a"], other), induced_partition(d["a"], d)
    assert p.codes == q.codes
    assert p != q
    for kernel in (join, cell_counts):
        with pytest.raises(StructuralError, match="different row universes"):
            kernel(p, q)


@pytest.mark.parametrize("weights, twin", [
    pytest.param(None, (Fraction(1, 4),) * 4, id="from-columns-default"),
    pytest.param((Fraction(1, 4),) * 4, tuple(Fraction(1, 4) for _ in range(4)),
                 id="distinct-objects"),
    pytest.param((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
                 (Fraction(2, 4), 0.25, Fraction(1, 8), Fraction(1, 8)), id="mixed-types"),
])
def test_equal_weights_given_any_way_are_one_universe(weights, twin):
    columns = {"a": ["x", "y", "x", "z"]}
    d, e = Dataset.from_columns(columns, weights), Dataset.from_columns(columns, twin)
    p, q = induced_partition(d["a"], d), induced_partition(e["a"], e)
    assert p == q
    assert hash(p) == hash(q)
    assert join(p, q) == p


def test_weights_become_integer_multiplicities():
    columns = {"a": ["x", "y", "x"]}
    uniform = Dataset.from_columns(columns)
    assert (uniform.scale, uniform.multiplicities) == (3, None)
    weighted = Dataset.from_columns(columns, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert (weighted.scale, weighted.multiplicities) == (6, (3, 2, 1))
    assert induced_partition(weighted["a"], weighted).counts == (4, 2)


def lcm_route(weights):
    # scale and multiplicities computed row by row over the common denominator
    scale = math.lcm(*(w.denominator for w in weights))
    mult = tuple(w.numerator * (scale // w.denominator) for w in weights)
    return scale, None if set(mult) == {1} else mult


@pytest.mark.parametrize("weights", [
    pytest.param((Fraction(1, 4),) * 4, id="one-shared-object"),
    pytest.param(tuple(Fraction(1, 4) for _ in range(4)), id="equal-distinct-objects"),
    pytest.param((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), id="mixed"),
    pytest.param((Fraction(1, 4), Fraction(2, 8), Fraction(1, 4), 0.25), id="mixed-types"),
])
def test_uniform_weight_route_matches_the_lcm_route(weights):
    d = Dataset.from_columns({"a": ["x", "y", "x", "z"]}, weights)
    assert (d.scale, d.multiplicities) == lcm_route(tuple(map(Fraction, weights)))
    assert d.row_weights == tuple(map(Fraction, weights))


@pytest.mark.parametrize("weights, message", [
    pytest.param((Fraction(1, 3),) * 2, "sum to 1", id="shared-third"),
    pytest.param((Fraction(2, 3),) * 2, "sum to 1", id="shared-two-thirds"),
    pytest.param((Fraction(0),) * 2, "positive", id="shared-zero"),
    pytest.param((Fraction(-1, 2),) * 2, "positive", id="shared-negative"),
    pytest.param((Fraction(1, 3), Fraction(1, 3)), "sum to 1", id="distinct-thirds"),
    pytest.param((Fraction(0), Fraction(1)), "positive", id="distinct-zero"),
])
def test_invalid_weights_still_rejected(weights, message):
    with pytest.raises(StructuralError, match=message):
        Dataset.from_columns({"a": ["x", "y"]}, weights)
