"""Entropy functionals on partitions, in bits, plus law validators.

Everything here takes ``Partition`` values (build them with
``catent.model.induced_partition``), so a quantity like the conditional
entropy of one column given another is literally a sum over block
intersections.  Block masses stay exact integer counts until the moment
a logarithm is taken; a ratio of two counts is then one correctly
rounded division, the float of the exact ratio.  Sums of float terms go
through ``math.fsum`` so identities hold to near machine precision.

Conventions:

* ``TOLERANCE`` (1e-9) is the acceptance threshold for identities and
  inequalities among computed entropies.
* ``CLAMP`` (1e-12): accumulated round-off can leave a quantity that is
  mathematically nonnegative epsilon-negative; anything in
  ``[-CLAMP, 0)`` is snapped to exactly ``0.0``.
* The symmetric uncertainty of two constant variables is defined as 1
  (they are indiscernible, so they get the similarity value of a
  variable with itself); the entropic ratio of two constants is
  genuinely undefined and raises.
"""

import math

from .model import (
    CatentError,
    Partition,
    _set,
    _tally,
    _Value,
    cell_keys,
    is_coarser,
    join,
)

Bits = float

TOLERANCE = 1e-9
CLAMP = 1e-12


class UndefinedRatioError(CatentError, ZeroDivisionError):
    """The entropic ratio is undefined when both variables are constant."""


def _clamp(value: float) -> float:
    # negative round-off and -0.0 become 0.0; real negatives pass through untouched
    return 0.0 if -CLAMP <= value <= 0.0 else value


def entropy(p: Partition) -> Bits:
    """Shannon entropy of a partition: ``-sum P(B) log2 P(B)``, computed
    once per partition (``Partition.entropy``)."""
    return p.entropy


def conditional_entropy(x: Partition, y: Partition) -> Bits:
    """Entropy of ``x`` remaining after ``y`` is known.

    Computed from the contingency cell counts as
    ``-sum_{Q,R} n(Q & R)/D log2(n(Q & R) / n(R))`` over the nonempty
    block intersections, never as ``H(x v y) - H(y)``, so the chain rule
    and ``cross_check`` compare two independent routes.  A cell's key
    (see ``catent.model.cell_keys``) modulo ``y.n_blocks`` is its block R.
    Two column partitions of one dataset read and fill its table, keyed by
    the ordered pair of names, so each value is computed once per dataset.
    """
    pairs, key = x._pairs, (x._name, y._name)
    if pairs is None or pairs is not y._pairs:
        return _conditional_entropy(x, y)
    if key not in pairs:
        pairs[key] = _conditional_entropy(x, y)
    return pairs[key]


def _conditional_entropy(x: Partition, y: Partition) -> Bits:
    cells = _tally(cell_keys(x, y), x.multiplicities)
    k, scale, marginal = y.n_blocks, x.scale, y.counts
    terms = (n / scale * math.log2(n / marginal[key % k]) for key, n in cells.items())
    return _clamp(-math.fsum(terms))


def joint_entropy(x: Partition, y: Partition) -> Bits:
    """Entropy of the joint observation: the entropy of ``join(x, y)``."""
    return entropy(join(x, y))


def mutual_information(x: Partition, y: Partition) -> Bits:
    """Shared information ``H(x) - H(x | y)`` in bits."""
    return _clamp(entropy(x) - conditional_entropy(x, y))


def symmetric_uncertainty(x: Partition, y: Partition) -> float:
    """Mutual information normalised to ``[0, 1]``:
    ``2 MI / (H(x) + H(y))``.

    Two constants are indiscernible, so the pair is assigned 1, the
    similarity of a variable with itself.
    """
    hx, hy = entropy(x), entropy(y)
    if hx == 0.0 and hy == 0.0:
        return 1.0
    return 2.0 * _clamp(hx - conditional_entropy(x, y)) / (hx + hy)


def entropic_ratio(x: Partition, y: Partition) -> float:
    """Joint entropy over summed marginals, ``H(x,y) / (H(x) + H(y))``.

    Ranges over ``[1/2, 1]``: 1/2 when the partitions carry the same
    information, 1 when independent.  Undefined (raises) for two
    constants.
    """
    hx, hy = entropy(x), entropy(y)
    if hx + hy == 0.0:
        raise UndefinedRatioError(
            "entropic ratio is undefined for two constant variables"
        )
    return joint_entropy(x, y) / (hx + hy)


# ---------------------------------------------------------------------------
# conditional-entropy laws


class LawClause(_Value):
    """Outcome of one law on one triple.

    ``gap`` is the worst violation magnitude (0.0 when the law holds
    cleanly, ``inf`` when a boolean implication fails).  ``vacuous``
    marks clauses whose hypothesis never fired on this triple.
    """

    _fields = _compared = ("name", "passed", "vacuous", "gap")

    def __init__(self, name: str, passed: bool, vacuous: bool, gap: float):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "vacuous", vacuous)
        _set(self, "gap", gap)


class LawReport(_Value):
    """Clause-by-clause outcome of the conditional-entropy laws."""

    _fields = _compared = ("clauses",)

    def __init__(self, clauses: tuple[LawClause, ...]):
        _set(self, "clauses", clauses)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> LawClause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[LawClause, ...]:
        return tuple(c for c in self.clauses if not c.passed)


# the laws in the order every report lists them
LAWS = ("chain_rule", "coarsening_monotone", "zero_iff_coarser",
        "join_raises_entropy", "conditioning_reduces")


def _law_gaps(x, y, z, cond, jn, coarser, h) -> tuple:
    """Gap of each law in ``LAWS`` on one triple; ``None`` where vacuous.

    The operands and the kernels ``cond(a, b) = H(a | b)``,
    ``jn(a, b) = a v b``, ``coarser(a, b)`` and ``h(a) = H(a)`` come
    from the caller, which may evaluate them directly or through memos.
    A law holds when its gap is at most ``TOLERANCE``.
    """
    xy = jn(x, y)
    h_x_y, h_x_z = cond(x, y), cond(x, z)
    chain = abs(cond(xy, z) - (h_x_z + cond(y, jn(x, z))))
    coarse, zero = coarser(x, y), h_x_y <= TOLERANCE
    monotone = max(h_x_z - cond(y, z), cond(z, y) - cond(z, x), 0.0) if coarse else None
    iff = (0.0 if zero else h_x_y) if coarse else (math.inf if zero else None)
    h_x_yz = cond(x, jn(y, z))
    reduces = max(h_x_yz - h_x_y, h_x_yz - h_x_z, 0.0)
    return chain, monotone, iff, max(h(x) - h(xy), 0.0), reduces


def check_conditional_entropy_laws(x: Partition, y: Partition, z: Partition) -> LawReport:
    """Validate the standard conditional-entropy laws on one triple.

    Clauses:

    * ``chain_rule``: ``H(x v y | z) = H(x | z) + H(y | x v z)``.
    * ``coarsening_monotone``: if ``x`` is coarser than ``y`` then
      ``H(x | z) <= H(y | z)`` and ``H(z | x) >= H(z | y)``; vacuous
      when ``x`` is not coarser than ``y``.
    * ``zero_iff_coarser``: ``H(x | y) = 0`` exactly when ``x`` is
      coarser than (or equal to) ``y``; vacuous when neither side
      holds, i.e. when the equivalence is witnessed only negatively.
    * ``join_raises_entropy``: ``H(x) <= H(x v y)``.
    * ``conditioning_reduces``: ``H(x | y v z)`` is at most ``H(x | y)``
      and at most ``H(x | z)``.

    ``catent.metric.check_entropy_laws`` runs the same laws over the
    column triples of a dataset.  Operands from another row universe
    raise ``StructuralError`` in the first ``join`` or
    ``conditional_entropy`` that meets them.
    """
    gaps = _law_gaps(x, y, z, conditional_entropy, join, is_coarser, entropy)
    return LawReport(
        tuple(
            LawClause(name, gap is None or gap <= TOLERANCE, gap is None,
                      0.0 if gap is None else gap)
            for name, gap in zip(LAWS, gaps)
        )
    )
