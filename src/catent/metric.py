"""The symmetric-uncertainty distance and its validators.

``d(x, y) = 1 - SU(x, y)`` measures dissimilarity between columns of a
dataset: it is symmetric, lands in ``[0, 1]``, and vanishes exactly on
indiscernible columns (equal induced partitions).  This module computes
single distances and full matrices, and provides executable checks for
the similarity-measure conditions on SU and the metric axioms on d.

One caution, established by the checkers themselves: the triangle
inequality does NOT hold universally for this distance, so d is a
semimetric rather than a metric.  The smallest counterexample has three
uniform rows carved as {0,2}|{1}, {0}|{1}|{2} and {0}|{1,2}; routing
through the middle (finest) partition beats the direct distance by
about 0.19.  The triangle relaxed by 3/2, ``d(x,z) <= 1.5 * (d(x,y) +
d(y,z))``, held on every ordered triple of Pi_3 to Pi_6 and of seeds
0-999 of the acceptance population, with equality for two independent
columns of equal entropy and their join; 3/2 is measured, not proved.
Many datasets, including the bundled one, satisfy the triangle
inequality exhaustively; ``check_distance_axioms`` reports faithfully
either way.  (Contractivity of the joint operation, proved
independently of the triangle inequality in the README, is unaffected.)
Entropy is continuous in d: ``|H(x) - H(y)| = |H(x|y) - H(y|x)| <=
d(x, y) * (H(x) + H(y))``, with equality when x is a function of y.

Every validator checks ordered tuples of column names, enumerated by
``instances``: with no sample size given and at most ``EXHAUSTIVE_LIMIT``
(8) names, every ordered tuple; otherwise N >= 1 seeded SplitMix64 draws
(default ``DEFAULT_SAMPLES``, 1000).  A sample size below 1 raises
``ValueError``.

Reports use a uniform slack convention: every instance of an axiom is
reduced to a margin that must stay nonnegative (inequalities:
``rhs - lhs``; equalities: ``-|a - b|``), and every validator scores an
axiom as one margin list, in instance order.  Every margin short of the
tolerance counts as a violation, and the axiom passes when there is
none.  The worst (first smallest) margin is kept with its witness,
except that a NaN margin, a violation that no comparison ranks, is the
witness when it is the first violation.  A failed check therefore always
carries a concrete witness reproducing the violation, except in
``cross_check``: it compares two routes on one given pair, so its checks
carry no witness, only the two route values.
"""

import functools
import itertools
import math
from typing import Iterable, Mapping, Sequence

from .model import (
    CategoricalVariable,
    Dataset,
    Partition,
    _set,
    _Value,
    canonical_classes,
    induced_partition,
    is_coarser,
)
from .entropy import (
    LAWS,
    TOLERANCE,
    _law_gaps,
    _three_way,
    conditional_entropy,
    entropy,
    joint_entropy,
    symmetric_uncertainty,
)
from .randgen import SplitMix64

# past this many columns, exhaustive enumeration of instances gives way to sampling
EXHAUSTIVE_LIMIT = 8
DEFAULT_SAMPLES = 1000
# the nondiscreteness demo's last dataset has 4 << (steps - 1) rows: 2 Mi at the cap
MAX_DEMO_STEPS = 20


def partition_distance(x: Partition, y: Partition) -> float:
    """``1 - SU`` on two partitions of the same universe."""
    return 1.0 - symmetric_uncertainty(x, y)


def su_distance(
    x: CategoricalVariable, y: CategoricalVariable, dataset: Dataset
) -> float:
    """``1 - SU`` on two columns of a dataset.

    Zero exactly when the columns induce the same partition, one when
    they are independent.
    """
    return partition_distance(
        induced_partition(x, dataset), induced_partition(y, dataset)
    )


class DistanceMatrix(_Value):
    """Symmetric matrix of pairwise SU-distances over named columns.

    ``values`` is one tuple of floats per name.  Each unordered pair is computed
    once, so the matrix is symmetric by construction with an exactly zero diagonal.
    """

    _fields = ("names", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity, not by value

    def __init__(self, names: tuple[str, ...], values: tuple[tuple[float, ...], ...]):
        _set(self, "names", names)
        try:
            rows = tuple(tuple(map(float, row)) for row in values)
        except TypeError as exc:  # a bare number where a row belongs, or a non-number
            raise ValueError("values must be one row of numbers per name") from exc
        if len(rows) != len(self.names) or any(len(row) != len(self.names) for row in rows):
            raise ValueError("matrix shape must match the name list")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate matrix names: {list(self.names)}")
        _set(self, "values", rows)

    def value(self, a: str, b: str) -> float:
        return self.values[self.names.index(a)][self.names.index(b)]


def distance_matrix(dataset: Dataset, subset: Sequence[str] | None = None) -> DistanceMatrix:
    """Pairwise distance matrix over all columns or a named subset.

    Each unordered pair is computed once, as ``1 - SU(x, y)`` with ``x``
    the earlier name; SU's two orders can round differently, so reordering
    the columns may move an entry by its last bit (one ulp)."""
    names = tuple(dataset.names if subset is None else subset)
    parts = [induced_partition(dataset[name], dataset) for name in names]
    n = len(names)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = partition_distance(parts[i], parts[j])
    return DistanceMatrix(names, values)


# ---------------------------------------------------------------------------
# axiom reports


class AxiomCheck(_Value):
    """Result of one axiom over a set of instances.

    ``nonvacuous`` counts the instances whose hypothesis fired (all but
    the vacuous ones of conditional laws) and ``violations`` those whose
    margin fell short: the axiom passes when there is none.
    ``worst_slack`` is the smallest margin observed (``inf`` when none
    was); ``witness`` names the instance attaining it, with the two sides
    of the comparison in ``lhs``/``rhs``.
    """

    _fields = ("name", "instances", "nonvacuous", "violations",
               "worst_slack", "witness", "lhs", "rhs")

    def __init__(self, name: str, instances: int, nonvacuous: int, violations: int,
                 worst_slack: float, witness: tuple[str, ...] | None,
                 lhs: float | None, rhs: float | None):
        values = name, instances, nonvacuous, violations, worst_slack, witness, lhs, rhs
        for field, value in zip(self._fields, values):
            _set(self, field, value)

    @property
    def passed(self) -> bool:
        return self.violations == 0


class AxiomReport(_Value):
    """Bundle of axiom checks with a single overall verdict."""

    _fields = ("checks",)

    def __init__(self, checks: tuple[AxiomCheck, ...]):
        _set(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}: instances={c.instances}"
            if c.instances and math.isfinite(c.worst_slack):
                line += f" worst_slack={c.worst_slack:.3e}"
            if not c.passed and c.witness is not None:
                line += f" witness={','.join(c.witness)}"
            if not c.passed and c.lhs is not None and c.rhs is not None:
                line += f" lhs={c.lhs!r} rhs={c.rhs!r}"
            lines.append(line)
        return "\n".join(lines)


def _score(name: str, margins: list[float], witnesses: Sequence, sides, threshold: float,
           strict: bool = False, vacuous: int = 0) -> AxiomCheck:
    """One axiom's check from its margins in instance order: ``witnesses[i]``
    names ``margins[i]``, ``sides(i)`` gives its ``lhs, rhs``, and ``vacuous``
    more instances had no margin.  A margin below ``threshold`` (with
    ``strict``, not above it) is a violation, and so is NaN.  The witness is
    the first smallest margin, unless the first violation is a NaN, which no
    comparison ranks: then that NaN is."""
    t = threshold  # written as "not good" so that a NaN margin, which no comparison holds for, fails
    bad = [m for m in margins if not m > t] if strict else [m for m in margins if not m >= t]
    if bad and bad[0] != bad[0]:
        i = next(i for i, m in enumerate(margins) if m != m)
    else:
        # any violation is below every other margin; index finds the first smallest
        worst = min([m for m in bad if m == m] if bad else margins, default=math.inf)
        i = margins.index(worst) if worst < math.inf else None
    found = (math.inf, None, None, None) if i is None else (margins[i], witnesses[i], *sides(i))
    return AxiomCheck(name, len(margins) + vacuous, len(margins), len(bad), *found)


def merge_reports(reports: Iterable[AxiomReport]) -> AxiomReport:
    """Combine same-shaped reports: counts add, worst witness wins.  Merged
    scores of consecutive pieces of a NaN-free margin list are ``_score`` of
    the whole list; a report whose first violation is a NaN keeps no finite
    worst slack, so pieces [-0.5] and [nan, -0.9] merge to worst -0.5."""
    merged: dict[str, AxiomCheck] = {}  # in order of first appearance
    for report in reports:
        for c in report.checks:
            prev = merged.get(c.name)
            if prev is not None:
                # the smaller slack wins, and a failing NaN, which no comparison
                # holds for, wins over a record with no violation yet
                nan_first = not c.passed and prev.passed and math.isnan(c.worst_slack)
                w = c if c.worst_slack < prev.worst_slack or nan_first else prev
                c = AxiomCheck(
                    c.name, prev.instances + c.instances, prev.nonvacuous + c.nonvacuous,
                    prev.violations + c.violations, w.worst_slack, w.witness, w.lhs, w.rhs)
            merged[c.name] = c
    return AxiomReport(tuple(merged.values()))


def cross_check(x: Partition, y: Partition) -> AxiomReport:
    """Compare the posterior-sum and joint-entropy routes to MI, SU and
    the SU-distance on one pair of partitions.

    Each check has one instance, whose margin is minus the gap between
    its two routes, ``lhs`` against ``rhs``:

    * ``mutual_information``: ``H(x) - H(x | y)`` against
      ``H(x) + H(y) - H(x v y)``.
    * ``symmetric_uncertainty``: ``2 MI / (H(x) + H(y))`` against
      ``2 (1 - H(x v y) / (H(x) + H(y)))``.
    * ``distance``: ``1 - SU`` against ``(H(x | y) + H(y | x)) / (H(x) + H(y))``.

    For two constants SU is 1 by convention on every route, and the
    distance check, whose second route divides by ``H(x) + H(y)``, is
    vacuous.
    """
    hx, hy, hxy = entropy(x), entropy(y), joint_entropy(x, y)
    hx_y, hy_x = conditional_entropy(x, y), conditional_entropy(y, x)

    def check(name: str, lhs: float, rhs: float) -> AxiomCheck:
        return _score(name, [-abs(lhs - rhs)], [None], lambda i: (lhs, rhs), -TOLERANCE)

    mi_posterior = hx - hx_y
    mi = check("mutual_information", mi_posterior, hx + hy - hxy)
    if hx + hy == 0.0:
        su = check("symmetric_uncertainty", 1.0, 1.0)
        dist = _score("distance", [], [], None, -TOLERANCE, vacuous=1)
    else:
        su_mi = 2.0 * mi_posterior / (hx + hy)
        su = check("symmetric_uncertainty", su_mi, 2.0 * (1.0 - hxy / (hx + hy)))
        dist = check("distance", 1.0 - su_mi, (hx_y + hy_x) / (hx + hy))
    return AxiomReport((mi, su, dist))


def instances(
    names: Sequence[str], width: int, sample: int | None = None, seed: int = 0
) -> list[tuple[str, ...]]:
    """The ordered ``width``-tuples of ``names`` that a validator checks.

    With ``sample=None`` and at most ``EXHAUSTIVE_LIMIT`` names, every
    ordered tuple; otherwise ``sample`` (default ``DEFAULT_SAMPLES``)
    tuples, each of ``width`` consecutive ``SplitMix64(seed)`` draws.
    Raises ``ValueError`` when ``sample`` is below 1.
    """
    if sample is None:
        if len(names) <= EXHAUSTIVE_LIMIT:
            return list(itertools.product(names, repeat=width))
        sample = DEFAULT_SAMPLES
    if sample < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
    return list(_sampled(tuple(names), width, sample, seed))


@functools.lru_cache(maxsize=32)
def _sampled(names: tuple[str, ...], width: int, sample: int, seed: int) -> tuple:
    # the check commands draw the same sample for every dataset and validator
    rng = SplitMix64(seed)
    return tuple(tuple(rng.choice(names) for _ in range(width)) for _ in range(sample))


# ---------------------------------------------------------------------------
# similarity-measure conditions on SU


def check_similarity_axioms(
    dataset: Dataset, triples: int | None = None, seed: int = 0
) -> AxiomReport:
    """Validate the similarity-measure conditions of SU on a dataset.

    Conditions checked, each over ordered instances drawn from the
    columns: symmetry ``SU(x,y) = SU(y,x)``; nonnegative
    self-similarity ``SU(x,x) >= 0``; dominance ``SU(x,x) >= SU(x,y)``;
    the triangle-style bound ``SU(x,y) + SU(y,z) <= SU(x,z) + SU(y,y)``;
    value range ``0 <= SU <= 1``; and maximality exactly on
    indiscernible pairs (``SU = 1`` iff equal induced partitions).

    All conditions except the triangle bound are theorems and can only
    fail through an implementation fault; the triangle bound is a
    genuine property of the data and fails on some datasets (see the
    module docstring), in which case the report carries the witness.

    The triple set is ``instances(names, 3, triples, seed)``.
    Pair-based conditions run over the pairs occurring in the triple
    set plus all self-pairs.
    """
    names = list(dataset.names)
    parts = canonical_classes(dataset)

    triple_list = instances(names, 3, triples, seed)
    seen = {(a, b) for x, y, z in triple_list for a, b in ((x, y), (y, z), (x, z))}
    seen.update((nm, nm) for nm in names)

    # keyed by the ordered pair: symmetry compares two computations
    ordered = seen | {(b, a) for a, b in seen}
    su = {a: {b: symmetric_uncertainty(parts[a], parts[b]) for b in names if (a, b) in ordered}
          for a in names}

    # one margin list per clause, in instance order, beside the values it reads
    t = -TOLERANCE
    selfs = [su[a][a] for a in names]
    pairs = sorted(seen)
    ab, aa = [su[a][b] for a, b in pairs], [su[a][a] for a, _ in pairs]
    once = [(a, b) for a, b in pairs if a <= b or (b, a) not in seen]  # per unordered pair
    sym = [(su[a][b], su[b][a]) for a, b in once]
    same = {(a, b) for a, b in pairs if parts[a] == parts[b]}
    equal, other = [p for p in pairs if p in same], [p for p in pairs if p not in same]
    su_equal, su_other = [su[a][b] for a, b in equal], [su[a][b] for a, b in other]

    def triangle(i):
        x, y, z = triple_list[i]
        return su[x][y] + su[y][z], su[x][z] + su[y][y]

    return AxiomReport((
        _score("symmetry", [-abs(u - v) for u, v in sym], once, sym.__getitem__, t),
        _score("self_similarity_nonnegative", selfs, [(a,) for a in names],
               lambda i: (selfs[i], 0.0), t),
        _score("self_similarity_dominates", [s - v for s, v in zip(aa, ab)], pairs,
               lambda i: (ab[i], aa[i]), t),
        _score("triangle_bound", [(su[x][z] + su[y][y]) - (su[x][y] + su[y][z])
                                  for x, y, z in triple_list], triple_list, triangle, t),
        _score("value_range", [min(v, 1.0 - v) for v in ab], pairs, lambda i: (ab[i], None), t),
        _score("max_on_indiscernible", [-(1.0 - v) for v in su_equal], equal,
               lambda i: (su_equal[i], 1.0), t),
        _score("max_only_on_indiscernible", [1.0 - v for v in su_other], other,
               lambda i: (su_other[i], 1.0), TOLERANCE, strict=True),
    ))


# ---------------------------------------------------------------------------
# metric axioms on the distance matrix


def check_distance_axioms(
    matrix: DistanceMatrix,
    class_keys: Mapping[str, Partition],
    triples: int | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Validate the metric axioms on a computed distance matrix.

    ``class_keys`` maps each matrix column to its induced partition (see
    ``catent.model.canonical_classes``); zero distance must occur
    exactly on equal partitions.  Triangle triples are
    ``instances(names, 3, triples, seed)``.
    """
    names = matrix.names
    missing = [nm for nm in names if nm not in class_keys]
    if missing:
        raise KeyError(f"no class for columns: {missing}")
    d = {a: dict(zip(names, row)) for a, row in zip(names, matrix.values)}  # matrix.value(a, b)

    # one margin list per clause, in instance order, beside the values it reads
    t = -TOLERANCE
    diag = [d[a][a] for a in names]
    pairs = list(itertools.combinations(names, 2))
    ab, ba = [d[a][b] for a, b in pairs], [d[b][a] for a, b in pairs]
    same = {(a, b) for a, b in pairs if class_keys[a] == class_keys[b]}
    equal, other = [p for p in pairs if p in same], [p for p in pairs if p not in same]
    d_equal, d_other = [d[a][b] for a, b in equal], [d[a][b] for a, b in other]
    triple_list = instances(names, 3, triples, seed)

    def triangle(i):
        x, y, z = triple_list[i]
        return d[x][z], d[x][y] + d[y][z]

    return AxiomReport((
        _score("nonnegativity", ab, pairs, lambda i: (ab[i], 0.0), t),
        _score("bounded_by_one", [1.0 - v for v in ab], pairs, lambda i: (ab[i], 1.0), t),
        _score("symmetry", [-abs(u - v) for u, v in zip(ab, ba)], pairs,
               lambda i: (ab[i], ba[i]), t),
        _score("zero_diagonal", [-abs(v) for v in diag], [(a,) for a in names],
               lambda i: (diag[i], 0.0), t),
        _score("triangle_inequality", [d[x][y] + d[y][z] - d[x][z] for x, y, z in triple_list],
               triple_list, triangle, t),
        _score("zero_on_indiscernible", [-v for v in d_equal], equal,
               lambda i: (d_equal[i], 0.0), t),
        _score("zero_only_on_indiscernible", d_other, other, lambda i: (d_other[i], 0.0),
               TOLERANCE, strict=True),
    ))


# ---------------------------------------------------------------------------
# conditional-entropy laws over a dataset


def check_entropy_laws(
    dataset: Dataset, triples: int | None = None, seed: int = 0
) -> AxiomReport:
    """The laws of ``catent.entropy.check_conditional_entropy_laws``, by the
    same body, over the triples ``instances(names, 3, triples, seed)``.

    Coarseness of two columns is memoised by the ordered pair, and
    ``H(x v y | z)``, ``H(y | x v z)``, ``H(x | y v z)`` and ``H(x v y)``
    come from one three-way cell tally per triple (``_three_way``), so no
    join is built or kept unless the cells outgrow an 8-byte key.  Each
    law reports its gap as ``lhs`` against ``rhs`` 0; an instance where a
    conditional law's hypothesis did not fire is vacuous.
    """
    names = dataset.names
    parts = canonical_classes(dataset)
    coarser = functools.cache(lambda a, b: is_coarser(parts[a], parts[b]))
    triple_list = instances(names, 3, triples, seed)
    laws = [([], []) for _ in LAWS]  # each law's margins and their triples
    for triple in triple_list:
        x, y, z = map(parts.__getitem__, triple)
        gaps = _law_gaps(x, y, z, coarser(*triple[:2]), _three_way(x, y, z))
        for (margins, witnesses), gap in zip(laws, gaps):
            if gap is not None:
                margins.append(-gap)
                witnesses.append(triple)
    # the gap is lhs, and its negation is exact
    return AxiomReport(tuple(
        _score(name, margins, witnesses, lambda i: (-margins[i], 0.0), -TOLERANCE,
               vacuous=len(triple_list) - len(margins))
        for name, (margins, witnesses) in zip(LAWS, laws)
    ))


# ---------------------------------------------------------------------------
# the topology is not discrete


def nondiscreteness_demo(steps: int = 11) -> list[tuple[float, float]]:
    """Distances arbitrarily close to zero between distinct columns.

    For ``n = 4, 8, 16, ...`` (doubling ``steps`` times) build ``n``
    uniform rows and two indicator columns: membership in the first
    ``n/2`` rows versus the first ``n/2 + 1`` rows.  The columns induce
    different partitions, so the distance is strictly positive, yet it
    shrinks without bound as ``n`` grows.  Over one nonatomic space, such
    as ``[0, 1)`` with Lebesgue measure, the ``n`` rows are ``n`` equal
    intervals and the columns are the indicators of ``[0, 1/2)`` and
    ``[0, 1/2 + 1/n)``: no ball of positive radius isolates a point, so the
    topology is not discrete.  Within one finite Pi_n every point is isolated.

    Returns ``(1/n, distance)`` pairs in generation order.  ``steps``
    must lie in ``1..MAX_DEMO_STEPS``.
    """
    if not 1 <= steps <= MAX_DEMO_STEPS:
        raise ValueError(f"steps must lie in 1..{MAX_DEMO_STEPS}, got {steps}")
    out = []
    for i in range(steps):
        n = 4 << i
        k = n // 2
        dataset = Dataset.from_columns(
            {
                "first_half": ["in" if r < k else "out" for r in range(n)],
                "half_plus_one": ["in" if r < k + 1 else "out" for r in range(n)],
            }
        )
        dist = su_distance(dataset["first_half"], dataset["half_plus_one"], dataset)
        out.append((1.0 / n, dist))
    return out
