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
    triple_cell_keys,
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
    pairs = x._pairs
    if pairs is None or pairs is not y._pairs:
        return _conditional_entropy(x, y)
    key = x._name, y._name
    value = pairs.get(key)
    if value is None:
        value = pairs[key] = _conditional_entropy(x, y)
    return value


def _conditional_entropy(x: Partition, y: Partition) -> Bits:
    """``H(x | y)`` with cells counted as ``(q & r).bit_count()`` of block
    bitmasks (``_from_masks``) on 32 or more unweighted rows when ``b <= 24``,
    ``16 b <= rows`` and ``4 kx ky <= rows``, ``b`` the blocks without masks
    yet (``_masks_pay``; a tally costs 46-50 us a pair at 1 000 rows and 8
    symbols, a mask 3-5 us, a block pair 0.2-0.3 us); else, and on weighted
    rows, wide alphabets or two universes (``cell_keys`` raises), tallied
    from cell keys.  A tallied cell of mass 1 takes its term from
    ``y.unit_terms``, the same float as ``n / scale * log2(n / m)`` at
    ``n = 1``; on wide alphabets most cells are such (88% on a 500-row,
    100-symbol table, where a tally costs 64-67 us a pair).  Both kernels
    ``math.fsum`` the same terms, rounded once in any order: the same float
    bit for bit."""
    if x.scale >= 32 and _masks_pay(x, y):  # the first test inline: small data pays no call
        return _from_masks(x, y)
    cells = _tally(cell_keys(x, y), x.multiplicities)
    k, scale, marginal, unit, log2 = y.n_blocks, x.scale, y.counts, y.unit_terms, math.log2
    return _clamp(-math.fsum([unit[key % k] if n == 1 else n / scale * log2(n / marginal[key % k])
                              for key, n in cells.items()]))


def _masks_pay(x: Partition, y: Partition) -> bool:
    rows = x.scale  # the row count, on unweighted rows
    if rows < 32 or x.multiplicities is not None or y.multiplicities is not None or y.scale != rows:
        return False
    unbuilt = sum(p.n_blocks for p in (x, y) if "masks" not in vars(p))
    return unbuilt <= 24 and 16 * unbuilt <= rows and 4 * x.n_blocks * y.n_blocks <= rows


def _from_masks(x: Partition, y: Partition) -> Bits:
    cells = [(q & r).bit_count() for q in x.masks for r in y.masks]
    scale, log2 = x.scale, math.log2
    terms = [n / scale * log2(n / m) for n, m in zip(cells, y.counts * x.n_blocks) if n]
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

    _fields = ("name", "passed", "vacuous", "gap")

    def __init__(self, name: str, passed: bool, vacuous: bool, gap: float):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "vacuous", vacuous)
        _set(self, "gap", gap)


class LawReport(_Value):
    """Clause-by-clause outcome of the conditional-entropy laws."""

    _fields = ("clauses",)

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


def _join_route(x: Partition, y: Partition, z: Partition) -> tuple:
    """``H(x v y | z)``, ``H(y | x v z)``, ``H(x | y v z)`` and ``H(x v y)``."""
    xy = join(x, y)
    return (conditional_entropy(xy, z), conditional_entropy(y, join(x, z)),
            conditional_entropy(x, join(y, z)), entropy(xy))


def _three_way(x: Partition, y: Partition, z: Partition) -> tuple:
    """``_join_route`` from one tally of the ``(x, y, z)`` cells, bit for bit:
    a cell of ``x v y`` and ``z`` (or of ``y`` and ``x v z``, or of ``x`` and
    ``y v z``) is one three-way cell, so the terms are the same floats and
    ``math.fsum`` rounds their exact sum once."""
    keys = triple_cell_keys(x, y, z)
    if keys is None:
        return _join_route(x, y, z)
    cells = _tally(keys, x.multiplicities).items()
    scale, kz, mz, log2, fsum = x.scale, z.n_blocks, z.counts, math.log2, math.fsum
    kyz = y.n_blocks * kz
    xz, yz, xy = {}, {}, {}  # the (x, z), (y, z) and (x, y) marginals
    for key, n in cells:
        i, j, k = key // kyz * kz + key % kz, key % kyz, key // kz
        xz[i], yz[j], xy[k] = xz.get(i, 0) + n, yz.get(j, 0) + n, xy.get(k, 0) + n
    given_z, given_xz, given_yz = [], [], []
    for key, n in cells:
        w = n / scale
        given_z.append(w * log2(n / mz[key % kz]))
        given_xz.append(w * log2(n / xz[key // kyz * kz + key % kz]))
        given_yz.append(w * log2(n / yz[key % kyz]))
    return (_clamp(-fsum(given_z)), _clamp(-fsum(given_xz)), _clamp(-fsum(given_yz)),
            0.0 - fsum([c / scale * log2(c / scale) for c in xy.values()]))


def _law_gaps(x: Partition, y: Partition, z: Partition, coarse: bool, joined: tuple) -> tuple:
    """Gap of each law in ``LAWS`` on one triple; ``None`` where vacuous.

    The caller gives the partitions, whether ``x`` is coarser than ``y``,
    and the four values of ``_join_route`` as ``joined``.  A law holds when
    its gap is at most ``TOLERANCE``.
    """
    h_xy_z, h_y_xz, h_x_yz, h_xy = joined
    h_x_y, h_x_z = conditional_entropy(x, y), conditional_entropy(x, z)
    chain = abs(h_xy_z - (h_x_z + h_y_xz))
    zero = h_x_y <= TOLERANCE
    monotone = max(h_x_z - conditional_entropy(y, z),
                   conditional_entropy(z, y) - conditional_entropy(z, x), 0.0) if coarse else None
    iff = (0.0 if zero else h_x_y) if coarse else (math.inf if zero else None)
    reduces = max(h_x_yz - h_x_y, h_x_yz - h_x_z, 0.0)
    return chain, monotone, iff, max(x.entropy - h_xy, 0.0), reduces


# a vacuous clause is the same on every triple: one shared value per law
_VACUOUS = {name: LawClause(name, True, True, 0.0) for name in LAWS}


def _clause(name: str, gap: float | None) -> LawClause:
    return _VACUOUS[name] if gap is None else LawClause(name, gap <= TOLERANCE, False, gap)


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
    raise ``StructuralError`` in the first ``is_coarser``, ``join`` or
    ``conditional_entropy`` that meets them.
    """
    gaps = _law_gaps(x, y, z, is_coarser(x, y), _join_route(x, y, z))
    return LawReport(tuple(map(_clause, LAWS, gaps)))
