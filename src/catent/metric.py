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
``rhs - lhs``; equalities: ``-|a - b|``), the worst (smallest) margin
and its witness are kept, every margin short of the tolerance counts as
a violation, and the axiom passes when there is none.  A failed check
therefore always carries a concrete witness reproducing the violation,
except in ``cross_check``: it compares two routes on one given pair, so
its checks carry no witness, only the two route values.  The clauses of
``check_distance_axioms`` and ``check_similarity_axioms`` only read a
table of pair values, so each axiom scores one margin list at once, the
witness the first smallest margin; the NaN rule is unchanged: a NaN
margin is a violation, and takes the witness unless a violation came first.
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
    """Pairwise distance matrix over all columns or a named subset."""
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


def _takes_witness(slack: float, violated: bool, worst: float, violations: int) -> bool:
    """Whether an instance (or a report) with ``slack`` replaces the witness
    of a record whose worst slack is ``worst``: the smaller slack wins, and a
    violating NaN, which no comparison holds for, wins over a record with no
    violation yet."""
    return slack < worst or (violated and not violations and math.isnan(slack))


class _Gauge:
    """Accumulates margins for one axiom and keeps the worst instance; a
    margin below ``threshold`` (with ``strict``, not above it) is a violation,
    and so is a NaN margin, which becomes the witness unless a violation is."""

    def __init__(self, name: str, threshold: float, strict: bool = False):
        self.name, self.threshold, self.strict = name, threshold, strict
        self.count = self.nonvacuous = self.violations = 0
        self.worst, self.witness, self.lhs, self.rhs = math.inf, None, None, None

    def add(self, margin: float, witness: tuple[str, ...] | None, lhs=None, rhs=None) -> None:
        self.count += 1
        self.nonvacuous += 1
        # written as "not good" so that a NaN margin, which no comparison holds for, fails
        violated = not (margin > self.threshold if self.strict else margin >= self.threshold)
        if _takes_witness(margin, violated, self.worst, self.violations):
            self.worst, self.witness, self.lhs, self.rhs = margin, witness, lhs, rhs
        self.violations += violated

    def extend(self, margins: list[float], witnesses: Sequence, sides) -> None:
        """``add`` over a list of margins at once: ``witnesses[i]`` names
        ``margins[i]`` and ``sides(*witnesses[i])`` gives its ``lhs, rhs``.  A
        list holding a NaN, which ``min`` cannot rank, goes through ``add``."""
        t = self.threshold  # "not good", as in add, so that a NaN margin fails
        bad = [m for m in margins if not m > t] if self.strict else [
            m for m in margins if not m >= t]
        if any(m != m for m in bad):
            for margin, witness in zip(margins, witnesses):
                self.add(margin, witness, *sides(*witness))
            return
        self.count += len(margins)
        self.nonvacuous += len(margins)
        self.violations += len(bad)
        # any violation is below every other margin; index finds the first smallest, as add keeps
        if margins and (worst := min(bad or margins)) < self.worst:
            witness = witnesses[margins.index(worst)]
            self.worst, self.witness, (self.lhs, self.rhs) = worst, witness, sides(*witness)

    def skip(self) -> None:
        """Count an instance whose hypothesis did not fire: it has no margin."""
        self.count += 1


def _report(*gauges: _Gauge) -> AxiomReport:
    return AxiomReport(tuple(
        AxiomCheck(g.name, g.count, g.nonvacuous, g.violations, g.worst, g.witness, g.lhs, g.rhs)
        for g in gauges
    ))


def merge_reports(reports: Iterable[AxiomReport]) -> AxiomReport:
    """Combine same-shaped reports: counts add, worst witness wins."""
    merged: dict[str, AxiomCheck] = {}  # in order of first appearance
    for report in reports:
        for c in report.checks:
            prev = merged.get(c.name)
            if prev is not None:
                w = c if _takes_witness(c.worst_slack, not c.passed, prev.worst_slack,
                                        prev.violations) else prev
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
    routes = ("mutual_information", "symmetric_uncertainty", "distance")
    g_mi, g_su, g_dist = (_Gauge(name, -TOLERANCE) for name in routes)
    mi_posterior, mi_joint = hx - hx_y, hx + hy - hxy
    g_mi.add(-abs(mi_posterior - mi_joint), None, lhs=mi_posterior, rhs=mi_joint)
    if hx + hy == 0.0:
        g_su.add(-0.0, None, lhs=1.0, rhs=1.0)
        g_dist.skip()
    else:
        su_mi = 2.0 * mi_posterior / (hx + hy)
        su_ratio = 2.0 * (1.0 - hxy / (hx + hy))
        dist_su, dist_conditional = 1.0 - su_mi, (hx_y + hy_x) / (hx + hy)
        g_su.add(-abs(su_mi - su_ratio), None, lhs=su_mi, rhs=su_ratio)
        g_dist.add(-abs(dist_su - dist_conditional), None, lhs=dist_su, rhs=dist_conditional)
    return _report(g_mi, g_su, g_dist)


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

    g_symmetry = _Gauge("symmetry", -TOLERANCE)
    g_self_nonneg = _Gauge("self_similarity_nonnegative", -TOLERANCE)
    g_dominance = _Gauge("self_similarity_dominates", -TOLERANCE)
    g_triangle = _Gauge("triangle_bound", -TOLERANCE)
    g_range = _Gauge("value_range", -TOLERANCE)
    g_max_equal = _Gauge("max_on_indiscernible", -TOLERANCE)
    g_max_only = _Gauge("max_only_on_indiscernible", TOLERANCE, strict=True)

    # one margin list per clause, in instance order
    g_self_nonneg.extend([su[a][a] for a in names], [(a,) for a in names],
                         lambda a: (su[a][a], 0.0))
    pairs = sorted(seen)
    g_range.extend([min(v, 1.0 - v) for v in (su[a][b] for a, b in pairs)], pairs,
                   lambda a, b: (su[a][b], None))
    g_dominance.extend([su[a][a] - su[a][b] for a, b in pairs], pairs,
                       lambda a, b: (su[a][b], su[a][a]))
    once = [(a, b) for a, b in pairs if a <= b or (b, a) not in seen]  # per unordered pair
    g_symmetry.extend([-abs(su[a][b] - su[b][a]) for a, b in once], once,
                      lambda a, b: (su[a][b], su[b][a]))
    same = {(a, b) for a, b in pairs if parts[a] == parts[b]}
    equal, other = [p for p in pairs if p in same], [p for p in pairs if p not in same]
    g_max_equal.extend([-(1.0 - su[a][b]) for a, b in equal], equal, lambda a, b: (su[a][b], 1.0))
    g_max_only.extend([1.0 - su[a][b] for a, b in other], other, lambda a, b: (su[a][b], 1.0))
    g_triangle.extend([(su[x][z] + su[y][y]) - (su[x][y] + su[y][z]) for x, y, z in triple_list],
                      triple_list, lambda x, y, z: (su[x][y] + su[y][z], su[x][z] + su[y][y]))

    return _report(
        g_symmetry, g_self_nonneg, g_dominance, g_triangle, g_range, g_max_equal, g_max_only
    )


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

    g_nonneg = _Gauge("nonnegativity", -TOLERANCE)
    g_bounded = _Gauge("bounded_by_one", -TOLERANCE)
    g_symmetry = _Gauge("symmetry", -TOLERANCE)
    g_diag = _Gauge("zero_diagonal", -TOLERANCE)
    g_triangle = _Gauge("triangle_inequality", -TOLERANCE)
    g_zero_equal = _Gauge("zero_on_indiscernible", -TOLERANCE)
    g_zero_only = _Gauge("zero_only_on_indiscernible", TOLERANCE, strict=True)

    # one margin list per clause, in instance order
    g_diag.extend([-abs(d[a][a]) for a in names], [(a,) for a in names], lambda a: (d[a][a], 0.0))
    pairs = list(itertools.combinations(names, 2))
    g_nonneg.extend([d[a][b] for a, b in pairs], pairs, lambda a, b: (d[a][b], 0.0))
    g_bounded.extend([1.0 - d[a][b] for a, b in pairs], pairs, lambda a, b: (d[a][b], 1.0))
    g_symmetry.extend([-abs(d[a][b] - d[b][a]) for a, b in pairs], pairs,
                      lambda a, b: (d[a][b], d[b][a]))
    same = {(a, b) for a, b in pairs if class_keys[a] == class_keys[b]}
    equal, other = [p for p in pairs if p in same], [p for p in pairs if p not in same]
    g_zero_equal.extend([-d[a][b] for a, b in equal], equal, lambda a, b: (d[a][b], 0.0))
    g_zero_only.extend([d[a][b] for a, b in other], other, lambda a, b: (d[a][b], 0.0))
    triple_list = instances(names, 3, triples, seed)
    g_triangle.extend([d[x][y] + d[y][z] - d[x][z] for x, y, z in triple_list], triple_list,
                      lambda x, y, z: (d[x][z], d[x][y] + d[y][z]))

    return _report(
        g_nonneg, g_bounded, g_symmetry, g_diag, g_triangle, g_zero_equal, g_zero_only
    )


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
    gauges = [_Gauge(name, -TOLERANCE) for name in LAWS]
    for triple in instances(names, 3, triples, seed):
        x, y, z = map(parts.__getitem__, triple)
        gaps = _law_gaps(x, y, z, coarser(*triple[:2]), _three_way(x, y, z))
        for gauge, gap in zip(gauges, gaps):
            if gap is None:
                gauge.skip()
            else:
                gauge.add(-gap, triple, lhs=gap, rhs=0.0)
    return _report(*gauges)


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
