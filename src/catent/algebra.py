"""The joint operation and its algebraic laws.

Two columns combine row-wise into a joint column whose labels are the
pairs of their labels.  Up to indiscernibility (equal induced
partitions) this operation is associative and commutative, any constant
column is its identity, and it is 1-Lipschitz in each argument for the
SU-distance:

    d(x * y, z * w)  <=  d(x, z) + d(y, w)

so joining is continuous in the metric of ``catent.metric``; the README
proves it, for ``d`` and for the variation of information and the Rajski
distance (Meila 2007).

The law checkers below test the monoid laws exactly (induced-partition
equality; no tolerance) and contractivity numerically, on the columns'
partitions.  Each check computes each distinct distance and relabeled
column once.  Joins of two columns come from the process-wide store of
``catent.model.join`` (its docstring states the policy): the checks and
the per-triple conditional-entropy laws share them, and ``x*y`` and
``y*x`` stay two computations.
"""

import functools

from .model import (
    CategoricalVariable,
    Dataset,
    StructuralError,
    canonical_classes,
    induced_partition,
    join,
    trivial_partition,
)
from .entropy import TOLERANCE
from .metric import (
    AxiomReport,
    _score,
    instances,
    partition_distance,
)

# joint nests one label level per fold, and the interpreter compares nested labels
# recursively: far below its recursion limit, even from a deep stack
MAX_JOINT = 100


def _depth(label) -> int:
    depth, level = 0, [label]
    while level := [part for item in level if isinstance(item, tuple) for part in item]:
        depth += 1
    return depth


def joint(
    a: CategoricalVariable, b: CategoricalVariable, dataset: Dataset
) -> CategoricalVariable:
    """Row-wise pairing of two columns: label ``(a[r], b[r])`` at row r.

    The result's partition is exactly ``join`` of the inputs'
    partitions; its name is ``(a.name*b.name)``.  Refuses labels nested
    more than ``MAX_JOINT`` levels deep.
    """
    if len(a) != dataset.row_count or len(b) != dataset.row_count:
        raise StructuralError("variables must have one label per dataset row")
    first = a.labels[0], b.labels[0]  # a joint of joints has one label shape on every row
    if tuple in map(type, first) and _depth(first) > MAX_JOINT:
        raise StructuralError(f"a joint nests its labels at most {MAX_JOINT} levels deep")
    shared: dict = {}  # rows with the same pair share one label tuple
    labels = tuple([shared.setdefault(pair, pair) for pair in zip(a.labels, b.labels)])
    return CategoricalVariable(f"({a.name}*{b.name})", labels)


def identity_variable(dataset: Dataset) -> CategoricalVariable:
    """A constant column named ``constant``: the identity of the joint
    operation up to indiscernibility (pairing with it only relabels)."""
    return CategoricalVariable("constant", ("const",) * dataset.row_count)


def are_indiscernible(
    a: CategoricalVariable, b: CategoricalVariable, dataset: Dataset
) -> bool:
    """True iff the two columns induce the same partition of the rows."""
    return induced_partition(a, dataset) == induced_partition(b, dataset)


def relabel(var: CategoricalVariable) -> CategoricalVariable:
    """An indiscernible copy of ``var`` named ``var.name + "'"``.

    Labels are renamed bijectively by alphabet position to ``r0``,
    ``r1``, ..., so the induced partition is untouched by construction.
    """
    rename = {lab: f"r{i}" for i, lab in enumerate(var.alphabet)}
    return CategoricalVariable(var.name + "'", tuple(rename[l] for l in var.labels))


def check_monoid_laws(
    dataset: Dataset,
    triples: int | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Validate the monoid laws of the joint operation, exactly.

    Every law is an exact equality of induced partitions, so there is no
    tolerance: a law either holds or produces a witness.  Checks:
    associativity ``(x*y)*z ~ x*(y*z)``; commutativity ``x*y ~ y*x``;
    identity ``x*constant ~ x``; and well-definedness, i.e. replacing
    the operands by relabeled (indiscernible) copies leaves the class
    of the result unchanged.  The first three compare joins of the
    columns' partitions, kept by the ordered pair so that commutativity
    compares two computations; well-definedness compares the partition
    of the ``joint`` of the relabeled columns with the join.

    The triples are ``catent.metric.instances(dataset.names, 3,
    triples, seed)``.
    """
    triple_list = instances(dataset.names, 3, triples, seed)
    parts = canonical_classes(dataset)
    const = trivial_partition(dataset)
    copy = functools.cache(lambda name: relabel(dataset[name]))

    def verdict(equal: bool) -> float:
        # exact laws: margin 0 on success, -inf on a counterexample
        return 0.0 if equal else float("-inf")

    assoc = [verdict(join(join(parts[nx], parts[ny]), parts[nz])
                     == join(parts[nx], join(parts[ny], parts[nz])))
             for nx, ny, nz in triple_list]
    # each pair and each single in the order the triples first name it
    pairs = list(dict.fromkeys((nx, ny) for nx, ny, _ in triple_list))
    commut, well = [], []
    for nx, ny in pairs:
        xy = join(parts[nx], parts[ny])
        commut.append(verdict(xy == join(parts[ny], parts[nx])))
        relabeled = joint(copy(nx), copy(ny), dataset)
        well.append(verdict(induced_partition(relabeled, dataset) == xy))
    singles = list(dict.fromkeys((nx,) for nx, _, _ in triple_list))
    ident = [verdict(join(parts[nx], const) == parts[nx]) for (nx,) in singles]

    def no_sides(i):  # an exact law compares two partitions, not two numbers
        return None, None

    return AxiomReport((
        _score("associativity", assoc, triple_list, no_sides, 0.0),
        _score("commutativity", commut, pairs, no_sides, 0.0),
        _score("identity_element", ident, singles, no_sides, 0.0),
        _score("well_definedness", well, pairs, no_sides, 0.0),
    ))


def check_contractivity(
    dataset: Dataset, quadruples: int | None = None, seed: int = 0
) -> AxiomReport:
    """Validate ``d(x*y, z*w) <= d(x,z) + d(y,w)`` over column quadruples.

    The quadruples are ``catent.metric.instances(dataset.names, 4,
    quadruples, seed)``.  The slack reported is the amount by which the
    right side exceeds the left.  ``x*y`` and ``y*x`` have one partition,
    codes and counts alike, so one join, named by the sorted pair, serves
    both orders.
    """
    quad_list = instances(dataset.names, 4, quadruples, seed)
    parts = canonical_classes(dataset)

    def operand(a):  # a column name, or the ordered pair naming a join
        return parts[a] if a.__class__ is str else join(parts[a[0]], parts[a[1]])

    def canonical(a):  # a column name, or the sorted pair naming a join
        return a if a.__class__ is str or a[0] <= a[1] else (a[1], a[0])

    # keyed by the unordered pair of operands (two columns, or two joined pairs),
    # each valued in the order first asked for, from ``between``, keyed by the
    # ordered pair of canonical operands: a commuted instance reuses its float
    memo: dict[tuple, float] = {}
    between: dict[tuple, float] = {}

    def d(a, b) -> float:
        key = (a, b) if a <= b else (b, a)
        value = memo.get(key)
        if value is None:
            ordered = canonical(a), canonical(b)
            value = between.get(ordered)
            if value is None:
                value = between[ordered] = partition_distance(*map(operand, ordered))
            memo[key] = value
        return value

    def sides(i):
        nx, ny, nz, nw = quad_list[i]
        return d((nx, ny), (nz, nw)), d(nx, nz) + d(ny, nw)

    margins = [rhs - lhs for lhs, rhs in map(sides, range(len(quad_list)))]
    return AxiomReport((_score("contractivity", margins, quad_list, sides, -TOLERANCE),))
