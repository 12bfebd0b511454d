"""Independent reference answers for the benchmark's checks.

Nothing here imports catent.  Every quantity is computed from raw label
sequences with ``collections.Counter`` and plain ``sum``: entropies and
symmetric uncertainty follow the joint-entropy route, conditional
entropies the posterior route, and indiscernibility compares
first-occurrence codes.  The library computes the same numbers from
partitions and block intersections, so agreement is evidence, not a
tautology.
"""

import csv
import itertools
import math
import unicodedata
from collections import Counter
from fractions import Fraction
from pathlib import Path

# same acceptance threshold as ``catent.entropy.TOLERANCE``
TOLERANCE = 1e-9


def read_csv(path: Path) -> dict[str, list[str]]:
    """Raw ``name -> labels`` columns of a CSV file, NFC-normalised."""
    with path.open(encoding="utf-8-sig", newline="") as stream:
        header, *rows = list(csv.reader(stream))
    norm = lambda s: unicodedata.normalize("NFC", s)  # noqa: E731
    return {norm(h): [norm(row[i]) for row in rows] for i, h in enumerate(header)}


def entropy(labels) -> float:
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in Counter(labels).values())


def joint_entropy(xs, ys) -> float:
    return entropy(list(zip(xs, ys)))


def conditional_entropy(xs, ys) -> float:
    """``H(x | y)``: each y-group's entropy of x, weighted by its size."""
    groups: dict = {}
    for x, y in zip(xs, ys):
        groups.setdefault(y, []).append(x)
    n = len(xs)
    return sum(len(g) / n * entropy(g) for g in groups.values())


def su(xs, ys) -> float:
    """Symmetric uncertainty ``2 (1 - H(x,y) / (H(x) + H(y)))``; two
    constants are indiscernible and get 1."""
    hx, hy = entropy(xs), entropy(ys)
    if hx + hy == 0.0:
        return 1.0
    return 2.0 * (1.0 - joint_entropy(xs, ys) / (hx + hy))


def partition_key(labels) -> tuple[int, ...]:
    """First-occurrence codes: equal exactly for indiscernible columns."""
    codes: dict = {}
    return tuple(codes.setdefault(lab, len(codes)) for lab in labels)


def class_groups(columns: dict) -> list[list[str]]:
    """Column names grouped by indiscernibility, in first-seen order."""
    groups: dict = {}
    for name, labels in columns.items():
        groups.setdefault(partition_key(labels), []).append(name)
    return list(groups.values())


def profile(labels) -> list[Fraction]:
    """Block probabilities, largest first."""
    n = len(labels)
    return sorted((Fraction(c, n) for c in Counter(labels).values()), reverse=True)


class Reference:
    """Reference answers for one dataset given as ``name -> labels``."""

    def __init__(self, columns: dict):
        self.columns = columns
        self.names = list(columns)
        self._su: dict = {}

    def su(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._su:
            self._su[key] = su(self.columns[a], self.columns[b])
        return self._su[key]

    def distance(self, a: str, b: str) -> float:
        return 0.0 if a == b else 1.0 - self.su(a, b)

    def triangle_bound_margin(self, x: str, y: str, z: str) -> float:
        """``SU(x,z) + SU(y,y) - SU(x,y) - SU(y,z)`` on one ordered triple."""
        return self.su(x, z) + self.su(y, y) - self.su(x, y) - self.su(y, z)

    def triangle_inequality_margin(self, x: str, y: str, z: str) -> float:
        """``d(x,y) + d(y,z) - d(x,z)`` on one ordered triple."""
        return self.distance(x, y) + self.distance(y, z) - self.distance(x, z)

    def triangle_bound_slack(self) -> float:
        """Worst triangle-bound margin over all ordered triples."""
        return min(itertools.starmap(self.triangle_bound_margin,
                                     itertools.product(self.names, repeat=3)))

    def triangle_inequality_slack(self) -> float:
        """Worst triangle-inequality margin over all ordered triples."""
        return min(itertools.starmap(self.triangle_inequality_margin,
                                     itertools.product(self.names, repeat=3)))

    def class_groups(self) -> list[list[str]]:
        return class_groups(self.columns)


def close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return abs(a - b) <= tol
