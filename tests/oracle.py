"""Independent oracles and frozen expected values.

Everything here deliberately avoids the library's code paths: oracles
work on raw label sequences with ``collections.Counter``, plain ``sum``
instead of ``math.fsum``, and the posterior-weighted route to the
conditional entropy rather than the block-intersection route, and CSV
text comes from ``csv.writer``.  The frozen constants were evaluated
with 40-60 digit ``mpmath`` arithmetic from the closed-form sums over
the verified data tables, before the implementation existed.
"""

import csv
import functools
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

from catent.ingest import CsvSpec
from catent.model import format_label

# ---------------------------------------------------------------------------
# reference transcription of the bundled internship dataset (20 rows)

INTERNSHIP_COLUMNS = (
    "Neatness",
    "Creativity",
    "Punctuality",
    "IQuotient",
    "AttentionType",
    "GotHired",
)

INTERNSHIP_ROWS = (
    ("R", "D", "L", "H", "A", "N"),
    ("U", "S", "E", "L", "A", "N"),
    ("R", "D", "L", "H", "A", "Y"),
    ("U", "D", "E", "L", "SU", "Y"),
    ("R", "I", "L", "H", "SE", "N"),
    ("S", "S", "O", "A", "SU", "Y"),
    ("R", "D", "L", "H", "SU", "Y"),
    ("S", "I", "O", "A", "SE", "N"),
    ("R", "S", "L", "H", "A", "N"),
    ("S", "D", "O", "A", "A", "Y"),
    ("R", "S", "L", "H", "D", "N"),
    ("R", "I", "L", "H", "A", "N"),
    ("U", "D", "E", "L", "SE", "Y"),
    ("R", "D", "L", "H", "D", "Y"),
    ("R", "I", "L", "H", "SU", "N"),
    ("U", "I", "E", "L", "SU", "N"),
    ("U", "D", "E", "L", "SU", "Y"),
    ("S", "D", "O", "A", "A", "Y"),
    ("S", "S", "O", "A", "SU", "N"),
    ("R", "I", "L", "H", "D", "N"),
)

INDISCERNIBLES_COLUMNS = ("digits", "letters")

INDISCERNIBLES_ROWS = (
    ("2", "B"),
    ("3", "C"),
    ("1", "A"),
    ("1", "A"),
    ("3", "C"),
    ("3", "C"),
    ("1", "A"),
    ("3", "C"),
    ("1", "A"),
    ("3", "C"),
)


def internship_column(name: str) -> list[str]:
    i = INTERNSHIP_COLUMNS.index(name)
    return [row[i] for row in INTERNSHIP_ROWS]


# ---------------------------------------------------------------------------
# oracle computations on raw label sequences

def oracle_entropy(labels) -> float:
    counts = Counter(labels)
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def oracle_joint_entropy(xs, ys) -> float:
    return oracle_entropy(list(zip(xs, ys)))


def oracle_conditional_entropy(xs, ys) -> float:
    """Posterior route: sum over y of P(y) times the entropy of the
    conditional distribution of x given that y."""
    n = len(xs)
    by_y: dict = {}
    for x, y in zip(xs, ys):
        by_y.setdefault(y, []).append(x)
    total = 0.0
    for group in by_y.values():
        total += (len(group) / n) * oracle_entropy(group)
    return total


def oracle_mutual_information(xs, ys) -> float:
    return oracle_entropy(xs) + oracle_entropy(ys) - oracle_joint_entropy(xs, ys)


def oracle_su(xs, ys) -> float:
    """Joint-entropy route: ``2 (1 - H(x,y) / (H(x) + H(y)))``."""
    hx, hy = oracle_entropy(xs), oracle_entropy(ys)
    if hx + hy == 0.0:
        return 1.0
    return 2.0 * (1.0 - oracle_joint_entropy(xs, ys) / (hx + hy))


def oracle_distance(xs, ys) -> float:
    return 1.0 - oracle_su(xs, ys)


def oracle_rajski_distance(xs, ys) -> float:
    """Rajski's ``1 - MI(x,y) / H(x,y)``: a true metric on partitions
    (Rajski 1961), zero when ``H(x,y) = 0``."""
    hxy = oracle_joint_entropy(xs, ys)
    if hxy == 0.0:
        return 0.0
    return 1.0 - oracle_mutual_information(xs, ys) / hxy


def oracle_marginals(labels) -> set:
    counts = Counter(labels)
    n = len(labels)
    return {Fraction(c, n) for c in counts.values()}


def oracle_profile(labels) -> tuple:
    """Exact label masses, largest first: the canonical-class signature."""
    n = len(labels)
    return tuple(sorted((Fraction(c, n) for c in Counter(labels).values()), reverse=True))


def oracle_blocks(labels) -> frozenset:
    """The partition of row indices by label, as a set of row sets."""
    rows: dict = {}
    for i, label in enumerate(labels):
        rows.setdefault(label, set()).add(i)
    return frozenset(map(frozenset, rows.values()))


def oracle_is_coarser(xs, ys) -> bool:
    """True iff each y label occurs with a single x label."""
    seen: dict = {}
    return all(seen.setdefault(y, x) == x for x, y in zip(xs, ys))


def oracle_codes(labels) -> list[int]:
    """Each row's block number, blocks numbered by first occurrence."""
    index: dict = {}
    return [index.setdefault(label, len(index)) for label in labels]


def oracle_cells(xs, ys, multiplicities=None) -> Counter:
    """Mass of every (x block, y block) cell, one tuple per row, cells in
    first-occurrence order; row r weighs ``multiplicities[r]`` (default 1)."""
    cells: Counter = Counter()
    for r, pair in enumerate(zip(oracle_codes(xs), oracle_codes(ys))):
        cells[pair] += 1 if multiplicities is None else multiplicities[r]
    return cells


def oracle_tally_conditional_entropy(xs, ys, multiplicities=None) -> float:
    """``H(x | y)`` as the tally kernel's float, bit for bit: the term
    ``n/D log2(n/m)`` of every cell of ``oracle_cells``, with ``D`` the total
    mass and ``m`` the mass of the cell's y block, ``math.fsum``-ed, negated,
    and snapped to +0.0 from ``[-1e-12, 0]``.  A common factor of ``n``,
    ``m`` and ``D`` leaves every ratio the same float."""
    cells = oracle_cells(xs, ys, multiplicities)
    marginal: Counter = Counter()
    for (_, b), n in cells.items():
        marginal[b] += n
    scale = sum(cells.values())
    value = -math.fsum(n / scale * math.log2(n / marginal[b]) for (_, b), n in cells.items())
    return 0.0 if -1e-12 <= value <= 0.0 else value


def oracle_entropy_gap(xs, ys) -> float:
    """``|H(x) - H(y)|``: a pseudometric on partitions that the joint is not
    contractive for (Meila 2007)."""
    return abs(oracle_entropy(xs) - oracle_entropy(ys))


def oracle_variation_of_information(xs, ys) -> float:
    """Meila's ``H(x|y) + H(y|x)``, a true metric on partitions."""
    return oracle_conditional_entropy(xs, ys) + oracle_conditional_entropy(ys, xs)


# ---------------------------------------------------------------------------
# the lattice of set partitions of n rows (Pi_n), exhaustively


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """Every set partition of n rows as a restricted growth string: row r's
    block number, blocks numbered by first occurrence (Bell(n) strings)."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def block_name(codes) -> str:
    """A set partition written as its blocks of rows, e.g. ``01|2``."""
    return "|".join("".join(str(r) for r, c in enumerate(codes) if c == b)
                    for b in range(max(codes) + 1))


def lattice_tally(n: int, width: int, slack, distance=oracle_distance, tol=1e-9):
    """``(violations, worst slack, first worst instance)`` over every ordered
    ``width``-tuple of Pi_n, with ``slack(d, join, *tuple)`` the margin of
    one instance; ``d`` is ``distance`` on the label strings and ``join``
    zips them, both on restricted growth strings.  A margin below ``-tol``
    is a violation."""
    lattice = set_partitions(n)
    d = functools.cache(distance)
    join = functools.cache(lambda a, b: tuple(oracle_codes(list(zip(a, b)))))
    violations, worst, witness = 0, math.inf, None
    for instance in itertools.product(lattice, repeat=width):
        margin = slack(d, join, *instance)
        violations += margin < -tol
        if margin < worst:
            worst, witness = margin, instance
    return violations, worst, witness


def triangle_slack(d, join, x, y, z) -> float:
    return d(x, y) + d(y, z) - d(x, z)


def contractivity_slack(d, join, x, y, z, w) -> float:
    return d(x, z) + d(y, w) - d(join(x, y), join(z, w))


def relaxed_triangle_slack(factor: float):
    """The slack of the ``factor``-relaxed triangle inequality
    ``d(x,z) <= factor * (d(x,y) + d(y,z))``; ``factor`` 1 is the triangle."""
    def slack(d, join, x, y, z) -> float:
        return factor * (d(x, y) + d(y, z)) - d(x, z)

    return slack


# ---------------------------------------------------------------------------
# per-instance scoring of the two pair-table validators, one margin at a time

SCORING_TOLERANCE = 1e-9  # catent.entropy.TOLERANCE, the acceptance threshold


class OracleGauge:
    """One axiom's tally, scored instance by instance.  A margin short of
    ``threshold`` (with ``strict``, not above it) is a violation, and so is
    NaN.  The first smallest margin is the witness; a NaN takes it only while
    no violation has been seen (no comparison ranks it)."""

    def __init__(self, name, threshold, strict=False):
        self.name, self.threshold, self.strict = name, threshold, strict
        self.count = self.violations = 0
        self.worst, self.witness, self.lhs, self.rhs = math.inf, None, None, None

    def add(self, margin, witness, lhs, rhs):
        self.count += 1
        if self.strict:
            violated = not margin > self.threshold
        else:
            violated = not margin >= self.threshold
        nan_first = violated and self.violations == 0 and margin != margin
        if margin < self.worst or nan_first:
            self.worst, self.witness, self.lhs, self.rhs = margin, witness, lhs, rhs
        self.violations += violated

    def row(self):
        """The fields of catent's ``AxiomCheck``, in order; every instance is nonvacuous."""
        return (self.name, self.count, self.count, self.violations,
                self.worst, self.witness, self.lhs, self.rhs)


def oracle_distance_checks(names, d, same, triples):
    """``check_distance_axioms`` scored one instance at a time: ``d(a, b)``
    reads the matrix, ``same(a, b)`` compares two columns' classes, and
    ``triples`` are the triangle instances.  One ``row()`` per axiom."""
    tol = SCORING_TOLERANCE
    nonneg, bounded, symmetry, diag, triangle, zero_equal = (
        OracleGauge(name, -tol) for name in ("nonnegativity", "bounded_by_one", "symmetry",
                                             "zero_diagonal", "triangle_inequality",
                                             "zero_on_indiscernible"))
    zero_only = OracleGauge("zero_only_on_indiscernible", tol, strict=True)
    for i, a in enumerate(names):
        diag.add(-abs(d(a, a)), (a,), d(a, a), 0.0)
        for b in names[i + 1:]:
            v = d(a, b)
            nonneg.add(v, (a, b), v, 0.0)
            bounded.add(1.0 - v, (a, b), v, 1.0)
            symmetry.add(-abs(v - d(b, a)), (a, b), v, d(b, a))
            if same(a, b):
                zero_equal.add(-v, (a, b), v, 0.0)
            else:
                zero_only.add(v, (a, b), v, 0.0)
    for x, y, z in triples:
        lhs, rhs = d(x, z), d(x, y) + d(y, z)
        triangle.add(rhs - lhs, (x, y, z), lhs, rhs)
    gauges = nonneg, bounded, symmetry, diag, triangle, zero_equal, zero_only
    return tuple(g.row() for g in gauges)


def oracle_similarity_checks(names, su, same, triples):
    """``check_similarity_axioms`` scored one instance at a time: ``su(a, b)``
    is SU of the ordered pair, ``same(a, b)`` compares two columns' classes.
    Pair conditions run in sorted order over the pairs of the triples plus
    the self-pairs; symmetry once per unordered pair, at its first."""
    tol = SCORING_TOLERANCE
    symmetry, self_nonneg, dominance, triangle, value_range, max_equal = (
        OracleGauge(name, -tol) for name in ("symmetry", "self_similarity_nonnegative",
                                             "self_similarity_dominates", "triangle_bound",
                                             "value_range", "max_on_indiscernible"))
    max_only = OracleGauge("max_only_on_indiscernible", tol, strict=True)
    seen = {(a, b) for x, y, z in triples for a, b in ((x, y), (y, z), (x, z))}
    seen |= {(a, a) for a in names}
    for a in names:
        self_nonneg.add(su(a, a), (a,), su(a, a), 0.0)
    for a, b in sorted(seen):
        v = su(a, b)
        value_range.add(min(v, 1.0 - v), (a, b), v, None)
        dominance.add(su(a, a) - v, (a, b), v, su(a, a))
        if a <= b or (b, a) not in seen:
            symmetry.add(-abs(v - su(b, a)), (a, b), v, su(b, a))
        if same(a, b):
            max_equal.add(-(1.0 - v), (a, b), v, 1.0)
        else:
            max_only.add(1.0 - v, (a, b), v, 1.0)
    for x, y, z in triples:
        lhs, rhs = su(x, y) + su(y, z), su(x, z) + su(y, y)
        triangle.add(rhs - lhs, (x, y, z), lhs, rhs)
    gauges = symmetry, self_nonneg, dominance, triangle, value_range, max_equal, max_only
    return tuple(g.row() for g in gauges)


# ---------------------------------------------------------------------------
# label text: catent only writes it, so its inverse lives with the tests


def parse_label(text: str):
    """Inverse of ``catent.model.format_label`` on labels built from strings
    and tuples: a scalar parses back as a string."""
    label, pos = _parse_label(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters in label text: {text!r}")
    return label


def _parse_label(text: str, pos: int):
    if pos < len(text) and text[pos] == "(":
        parts = []
        pos += 1
        while True:
            part, pos = _parse_label(text, pos)
            parts.append(part)
            if pos >= len(text):
                raise ValueError("unterminated pair in label text")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                return tuple(parts), pos + 1
            raise ValueError(f"malformed pair at position {pos}")
    chars = []
    while pos < len(text) and text[pos] not in ",()":
        if text[pos] == "\\":
            pos += 1
            if pos >= len(text):
                raise ValueError("dangling escape in label text")
        chars.append(text[pos])
        pos += 1
    return "".join(chars), pos


_ESCAPE = str.maketrans({ch: "\\" + ch for ch in "\\,()"})


def oracle_format_label(label) -> str:
    """``catent.model.format_label`` by recursion, each scalar escaped with
    one ``str.translate`` table."""
    if isinstance(label, tuple):
        return "(" + ",".join(map(oracle_format_label, label)) + ")"
    return str(label).translate(_ESCAPE)


def oracle_save_csv(dataset, spec=CsvSpec()) -> str:
    """What ``catent.ingest.save_csv`` must return: every record through
    ``csv.writer``, non-string labels through ``format_label``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=spec.delimiter)
    writer.writerow(dataset.names)
    cols = []
    for var in dataset.columns.values():
        formatted = {lab: format_label(lab) for lab in var.alphabet if not isinstance(lab, str)}
        cols.append(map(formatted.get, var.labels, var.labels) if formatted else var.labels)
    writer.writerows(zip(*cols))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# frozen high-precision constants (40-60 digit arithmetic, truncated to
# double precision); compare with abs tolerance 1e-12

# bundled internship dataset
H_NEATNESS = 1.5
H_CREATIVITY = 1.5394910703001343
H_ATTENTION = 1.8812908992306926
H_GOTHIRED = 0.9927744539878083
H_JOINT_CREATIVITY_GOTHIRED = 1.9464393446710155
H_CREATIVITY_GIVEN_GOTHIRED = 0.9536648906832072
H_GOTHIRED_GIVEN_CREATIVITY = 0.40694827437088115
MI_CREATIVITY_GOTHIRED = 0.58582617961692714
SU_CREATIVITY_GOTHIRED = 0.46268937755384703
RATIO_CREATIVITY_GOTHIRED = 0.76865531122307649
DIST_CREATIVITY_GOTHIRED = 0.53731062244615297
SU_NEATNESS_GOTHIRED = 0.053477527450185957
SU_ATTENTION_GOTHIRED = 0.019224342631282644

# 4-decimal reference values the five feature/class pairs must reproduce
REFERENCE_SU_4DP = {
    "Neatness": 0.0535,
    "Creativity": 0.4627,
    "Punctuality": 0.0535,
    "IQuotient": 0.0535,
    "AttentionType": 0.0192,
}

# bundled indiscernibles dataset
H_DIGITS = 1.3609640474436812
MARGINALS_DIGITS = {Fraction(2, 5), Fraction(1, 10), Fraction(1, 2)}

# nested-indicator shrinking-distance sequence
DIST_NESTED_N4 = 0.65628898151454917
DIST_NESTED_N8 = 0.43841036343608070

# smallest triangle-inequality counterexample: three uniform rows carved
# as X = {0,2}|{1}, Y = {0}|{1}|{2}, Z = {0}|{1,2}
TRIANGLE_CE_COLUMNS = {
    "pair_02": ["a", "b", "a"],
    "finest": ["p", "q", "r"],
    "pair_12": ["u", "v", "v"],
}
SU_CE_XY = 0.73368043665121099
SU_CE_XZ = 0.27401754212128089
TRIANGLE_CE_VIOLATION = 0.19334333118114108

FROZEN_TOL = 1e-12
