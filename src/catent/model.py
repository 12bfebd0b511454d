"""Immutable data model for categorical datasets.

A dataset is a finite weighted sample space (rows) carrying named
categorical columns.  Every column induces a partition of the row
indices via inverse images of its labels, and all information-theoretic
structure downstream is computed from partitions, never from labels.

The engine counts in integers: a dataset holds its row weights as a
common denominator ``scale`` and integer ``multiplicities`` (``None`` on
uniform rows, which so hold no per-row weight); a column is encoded from
one tally of its labels, whose counts are its blocks' masses on uniform
rows; and a partition is one block code per row, packed into one
integer, plus an integer mass per block.  Partition equality,
coarseness, joins and contingency cells are therefore exact discrete
facts with no floating-point ambiguity; a column's class up to
relabeling is its induced ``Partition``.  Exact ``Fraction`` values
remain at the API (``row_weights``, ``Partition.block_probs``,
``Partition.signature``, ``ContingencyTable``), and ``fractions`` is
imported only where one is built.  Floats enter only when logarithms
are taken: in ``catent.entropy`` and in ``Partition.entropy``.  A
partition's cached attributes, ``entropy`` among them, are computed on
first read and stored on the instance without a lock.  A dataset
builds each column's partition once, and those partitions share one
table of conditional entropies keyed by the ordered pair of column
names, so each ``H(x | y)`` of two columns is computed once per dataset
(``induced_partition``).
The join of two such partitions is built once as well, but a dataset
does not keep it: ``join`` keeps it in one process-wide store of at most
``MAX_STORED_JOINS`` (64); its docstring states the store's policy and
cost (10.5 MB at 65 536 rows after a sampled monoid check).

Every value class of catent is a plain class on the immutable base
``_Value``: the constructor sets each field once, assigning or deleting
one raises ``AttributeError``, and equality, hash and repr follow the
fields a class names once, in ``_fields``.

Contingency cells are keyed by integer arithmetic.  A partition stores
its codes once, ``packed`` into one integer, row r's code in field r;
for two partitions on the same rows,
``packed(p) * q.n_blocks + packed(q)`` holds row r's cell key
``p.codes[r] * q.n_blocks + q.codes[r]`` in field r (``cell_keys``).
Every key is below rows**2, and the field width follows from the row
count (1 byte up to 16 rows, 2 up to 256, 4 up to 65 536, else 8), so no
field carries into the next.  Three partitions fold the same way into
fields that hold ``k_p * k_q * k_r`` keys (``triple_cell_keys``).  For
tall, few-block pairs, ``H(x | y)`` counts its cells from cached block
bitmasks instead (``masks``: bit r of a block's integer is set when row
r is in it), by the cost rule of ``catent.entropy._conditional_entropy``
and to the same float bit for bit; ``cell_counts``, ``join``,
``is_coarser`` and the three-way keys tally.
"""

import math
import operator
import unicodedata
from _thread import allocate_lock  # threading's lock, without importing threading
from array import array
# CPython-private but always exported: the C helper from _collections, else a
# pure-Python fallback in collections/__init__.py; Counter.update calls it too
from collections import _count_elements
from sys import byteorder
from types import MappingProxyType
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:  # annotations only: fractions loads where a Fraction is built
    from fractions import Fraction

Label = Hashable


class CatentError(Exception):
    """Base class of catent's own error types; every refusal of bad input
    (``StructuralError``, ``ConfigError``, ``ParseError``) is also a
    ``ValueError``."""


class StructuralError(CatentError, ValueError):
    """A structural contract is violated: mismatched lengths, mismatched
    row universes, invalid weights, or malformed partitions."""


def _integer_weights(weights: "tuple[Fraction, ...]") -> tuple[int, tuple[int, ...] | None]:
    # (D, m) with weight i = m[i] / D and D the least common denominator;
    # m is None when every m[i] is 1
    scale = math.lcm(*(w.denominator for w in weights))
    mult = tuple(w.numerator * (scale // w.denominator) for w in weights)
    return scale, None if mult.count(1) == len(mult) else mult


class _Masses(dict):
    __slots__ = ()  # GC-tracked from birth: inserts skip an exact dict's tracking test


def _tally(keys: Iterable[Hashable], multiplicities: tuple[int, ...] | None) -> dict:
    # integer mass of every distinct key, in first-occurrence order
    masses = _Masses()
    if multiplicities is None:
        _count_elements(masses, keys)
    else:
        for key, m in zip(keys, multiplicities):
            masses[key] = masses.get(key, 0) + m
    return masses


def _each(table, keys: tuple) -> tuple:
    # table[key] for every key in order, in one C loop: faster than a map of
    # table.__getitem__, and an itemgetter of one key returns no tuple
    return operator.itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[0]],)


# constructors set their fields with this, past _Value.__setattr__; unlike
# vars(self).update it leaves the instance dict unmaterialised on 3.11+
_set = object.__setattr__


class _Value:
    """Immutable value base.  A subclass names its fields in ``_fields``, in
    order: the repr shows them, and equality and the hash take them as one
    tuple; an instance equals only its own class's."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class _stored:
    """A cached attribute: the first read stores it in the instance dict,
    which later reads find before this non-data descriptor.  No lock."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


class CategoricalVariable(_Value):
    """A named column: one category label per row.

    Labels may be any hashable values.  Plain columns use strings;
    joint variables (see ``catent.algebra``) use tuples of labels.
    String labels are NFC-normalised, so visually identical labels are one.
    """

    # ``alphabet``: the distinct labels in first-occurrence order, and
    # ``counts``: each one's row count, both from one tally of the labels
    _fields = ("name", "labels")

    def __init__(self, name: str, labels: tuple[Label, ...]):
        labels = tuple(labels)
        if not labels:
            raise StructuralError(f"variable {name!r} has no rows")
        try:
            tally = _tally(labels, None)
        except RecursionError:  # equal but distinct labels, nested too deep to compare
            raise StructuralError(f"variable {name!r}: labels nested too deep") from None
        # each distinct non-NFC string is normalised once; the spellings it merges
        # add their counts, and the rows take the NFC text through their codes
        nfc = {lab: unicodedata.normalize("NFC", lab) for lab in tally
               if isinstance(lab, str) and not unicodedata.is_normalized("NFC", lab)}
        if nfc:
            merged = _tally(map(nfc.get, tally, tally), tally.values())
            position = dict(zip(merged, range(len(merged))))
            codes = _each({lab: position[nfc.get(lab, lab)] for lab in tally}, labels)
            alphabet = tuple(merged)
            labels = _each(alphabet, codes)
            vars(self).update(codes=codes)
            tally = merged
        vars(self).update(name=name, labels=labels, alphabet=tuple(tally),
                          counts=tuple(tally.values()))

    @_stored
    def codes(self) -> tuple[int, ...]:
        """Position of each row's label in ``alphabet``."""
        return _each(dict(zip(self.alphabet, range(len(self.alphabet)))), self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class Dataset(_Value):
    """A finite weighted sample space with named categorical columns.

    Column names are strings, and every column has exactly one label per
    row.  The weights are integers: row ``i`` of ``row_count`` weighs
    ``multiplicities[i] / scale``, with ``scale`` the least common
    denominator, and ``multiplicities`` is ``None`` when all rows weigh
    ``1 / scale``.  ``row_weights``, the positive ``Fraction`` weights
    summing to one, is what the constructor takes; ``from_columns``
    defaults to uniform weights and ``with_column`` keeps its dataset's.
    No dataset keeps a weight per row: ``row_weights`` is derived from the
    integers on first read.
    """

    _fields = ("columns", "row_weights")

    def __init__(self, columns: Mapping[str, CategoricalVariable],
                 row_weights: "tuple[Fraction, ...]"):
        if not row_weights:
            raise StructuralError("dataset has no rows")
        from fractions import Fraction
        weights = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in row_weights)
        scale, mult = _integer_weights(weights)
        if mult is not None and min(mult) <= 0:
            raise StructuralError("row weights must be positive")
        if (len(weights) if mult is None else sum(mult)) != scale:
            raise StructuralError("row weights must sum to 1")
        _on_universe(self, columns, len(weights), scale, mult)

    @_stored
    def row_weights(self) -> "tuple[Fraction, ...]":
        """Row i's weight ``multiplicities[i] / scale``, as a ``Fraction``."""
        from fractions import Fraction
        if self.multiplicities is None:
            return (Fraction(1, self.scale),) * self.row_count
        return tuple(Fraction(m, self.scale) for m in self.multiplicities)

    @_stored
    def _memo(self) -> tuple[dict, dict]:
        """Each column's partition by name, and their ``H(x | y)`` by name pair."""
        return {}, {}

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Union[CategoricalVariable, Sequence[Label]]],
        row_weights: "Sequence[Union[Fraction, int]] | None" = None,
    ) -> "Dataset":
        """Build a dataset from a ``name -> variable or labels`` mapping.

        With ``row_weights=None`` every row gets weight ``1/n``.
        """
        vars_ = {}
        for name, value in columns.items():
            if isinstance(value, CategoricalVariable):
                vars_[name] = value
            else:
                vars_[name] = CategoricalVariable(name, tuple(value))
        if not vars_:
            raise StructuralError("dataset needs at least one column")
        if row_weights is None:
            n = len(next(iter(vars_.values())))
            return _on_universe(object.__new__(cls), vars_, n, n, None)
        # the constructor turns the weights into Fractions and validates them
        return cls(vars_, tuple(row_weights))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def __getitem__(self, name: str) -> CategoricalVariable:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def with_column(self, var: CategoricalVariable) -> "Dataset":
        """A new dataset with ``var`` appended (or replaced, by name)."""
        cols = dict(self.columns)
        cols[var.name] = var
        return _on_universe(object.__new__(Dataset), cols, self.row_count, self.scale,
                            self.multiplicities)


def _on_universe(dataset: Dataset, columns: Mapping[str, CategoricalVariable], rows: int,
                 scale: int, multiplicities: tuple[int, ...] | None) -> Dataset:
    # fills a new dataset: its weighted universe (see Dataset) and its checked columns
    vars(dataset).update(row_count=rows, scale=scale, multiplicities=multiplicities)
    cols = dict(columns)
    for name, var in cols.items():
        if not isinstance(name, str):
            raise StructuralError(f"column name {name!r} is not a string")
        if not isinstance(var, CategoricalVariable):
            raise StructuralError(f"column {name!r} is not a CategoricalVariable")
        if name != var.name:
            raise StructuralError(
                f"column key {name!r} does not match variable name {var.name!r}"
            )
        if len(var) != rows:
            raise StructuralError(f"column {name!r} has {len(var)} rows, dataset has {rows}")
    _set(dataset, "columns", MappingProxyType(cols))
    return dataset


class Partition(_Value):
    """Disjoint nonempty blocks of row indices covering the sample space.

    Blocks are numbered in the order of their smallest row index:
    ``codes[r]`` is the number of row r's block and ``counts[b]`` the
    exact mass of block b over ``scale``, the common denominator of the
    row weights.  The codes are stored once, packed (see ``cell_keys``);
    ``codes``, ``blocks``, ``block_probs`` and ``signature`` are derived
    views.  The weighted universe travels with the partition as ``scale``
    and the row ``multiplicities`` (see ``Dataset``), which fix the row
    weights, so two partitions compare equal only when they carve up the
    same weighted universe the same way.  Two columns of one dataset are
    indiscernible (the same point of the quotient space) exactly when
    their partitions are equal.  Partitions come only from
    ``induced_partition``, ``join`` and ``trivial_partition``; calling
    ``Partition`` raises ``TypeError``.
    """

    _fields = ("codes", "counts", "scale")
    # a dataset column's partition holds its name and its dataset's pair table
    _name = _pairs = None

    def __init__(self, *args, **kwargs):
        raise TypeError("partitions come from induced_partition, join or trivial_partition")

    # spelled out rather than _Value's generic key, which would unpack codes:
    # the monoid and indiscernibility checks compare partitions once per instance
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.packed, self.scale, self.multiplicities)
                    == (other.packed, other.scale, other.multiplicities))
        return NotImplemented

    def __hash__(self):
        return hash((self.packed, self.scale, self.multiplicities))

    @property
    def codes(self) -> tuple[int, ...]:
        """Row r's block number, for every row in order, unpacked from ``packed``."""
        return tuple(_unpack(self.packed, self.row_count, self.row_count ** 2))

    @_stored
    def blocks(self) -> tuple[frozenset[int], ...]:
        rows: list[list[int]] = [[] for _ in self.counts]
        for r, b in enumerate(self.codes):
            rows[b].append(r)
        return tuple(map(frozenset, rows))

    @_stored
    def block_probs(self) -> "tuple[Fraction, ...]":
        from fractions import Fraction
        return tuple(Fraction(c, self.scale) for c in self.counts)

    @property
    def signature(self) -> "tuple[Fraction, ...]":
        """Block probabilities, largest first: invariant under relabeling
        and under row permutations."""
        from fractions import Fraction
        return tuple(Fraction(c, self.scale) for c in sorted(self.counts, reverse=True))

    @property
    def n_blocks(self) -> int:
        return len(self.counts)

    @_stored
    def masks(self) -> tuple[int, ...]:
        """One integer per block, bit r set when row r is in the block, from
        one ``translate`` and one base-2 parse per block; at most 256 blocks."""
        if len(self.counts) > 256:  # a field's low byte would alias block b + 256 to b
            raise ValueError("byte must be in range(0, 256)")
        # big-endian puts row 0's low byte last; a bytearray translates and parses faster
        width = _field(self.row_count ** 2)[0]
        raw = bytearray(self.packed.to_bytes(self.row_count * width, "big"))[width - 1::width]
        return tuple(int(raw.translate(b"0" * b + b"1" + b"0" * (255 - b)), 2)
                     for b in range(len(self.counts)))

    @_stored
    def entropy(self) -> float:
        """Shannon entropy in bits, ``-sum P(B) log2 P(B)``; ``+0.0`` when zero."""
        scale = self.scale
        return 0.0 - math.fsum(c / scale * math.log2(c / scale) for c in self.counts)

    @_stored
    def unit_terms(self) -> tuple[float, ...]:
        """Block b's term ``1 / scale * log2(1 / counts[b])`` of ``H(x | self)``
        for a cell of mass 1 inside it; blocks of equal mass share one float."""
        scale, log2 = self.scale, math.log2
        by_mass = {m: 1 / scale * log2(1 / m) for m in set(self.counts)}
        return tuple(map(by_mass.__getitem__, self.counts))


def _field(keys: int) -> tuple[int, str]:
    # bytes and array typecode of a field that holds every integer below keys
    return ((1, "B") if keys <= 1 << 8 else (2, "H") if keys <= 1 << 16
            else (4, "I") if keys <= 1 << 32 else (8, "Q"))


def _pack(codes: Iterable[int], keys: int) -> int:
    # codes as one integer, row r's code in field r, a field for keys (_field)
    width, fmt = _field(keys)
    return int.from_bytes(bytes(codes) if width == 1 else array(fmt, codes), byteorder)


def _unpack(packed: int, rows: int, keys: int) -> Sequence[int]:
    # the integer in field r of _pack's fields, for every row r in order
    width, fmt = _field(keys)
    raw = packed.to_bytes(rows * width, byteorder)
    return raw if width == 1 else memoryview(raw).cast(fmt)


def _on_rows(codes: Iterable[int], rows, counts=None) -> Partition:
    # first-occurrence block codes, packed, on the weighted rows of a Dataset or Partition;
    # the one place a Partition is built.  Without counts it tallies codes: pass a sequence
    if counts is None:
        counts = tuple(_tally(codes, rows.multiplicities).values())
    p = object.__new__(Partition)
    vars(p).update(packed=_pack(codes, rows.row_count ** 2), row_count=rows.row_count,
                   counts=counts, scale=rows.scale, multiplicities=rows.multiplicities)
    return p


class ContingencyTable(_Value):
    """Exact joint probability mass of two variables over a dataset.

    ``counts[i][j]`` is the probability of seeing ``row_alphabet[i]``
    and ``col_alphabet[j]`` together; every cell is a ``Fraction`` and
    the whole grid sums to one.
    """

    _fields = ("row_alphabet", "col_alphabet", "counts")

    def __init__(self, row_alphabet: tuple[Label, ...], col_alphabet: tuple[Label, ...],
                 counts: "tuple[tuple[Fraction, ...], ...]"):
        if len(counts) != len(row_alphabet):
            raise StructuralError("one count row per row-alphabet entry required")
        for row in counts:
            if len(row) != len(col_alphabet):
                raise StructuralError("one count per col-alphabet entry required")
            if any(c < 0 for c in row):
                raise StructuralError("cell masses must be nonnegative")
        if sum(c for row in counts for c in row) != 1:
            raise StructuralError("cell masses must sum to 1")
        vars(self).update(row_alphabet=row_alphabet, col_alphabet=col_alphabet, counts=counts)

    def mass(self, row_label: Label, col_label: Label) -> "Fraction":
        """Joint mass of one (row label, column label) cell."""
        i = self.row_alphabet.index(row_label)
        j = self.col_alphabet.index(col_label)
        return self.counts[i][j]


def induced_partition(var: CategoricalVariable, dataset: Dataset) -> Partition:
    """Partition of row indices by inverse images of the variable's labels.

    A column of ``dataset`` (that very variable) has one, kept by the dataset."""
    if len(var) != dataset.row_count:
        raise StructuralError(
            f"variable {var.name!r} has {len(var)} rows, dataset has {dataset.row_count}"
        )
    # a block's mass is its label's row count on unweighted rows; weighted rows tally
    counts = var.counts if dataset.multiplicities is None else None
    if dataset.columns.get(var.name) is not var:
        return _on_rows(var.codes, dataset, counts)
    parts, pairs = dataset._memo
    p = parts.get(var.name)
    if p is None:
        p = parts[var.name] = _on_rows(var.codes, dataset, counts)
        vars(p).update(_name=var.name, _pairs=pairs)
    return p


def trivial_partition(dataset: Dataset) -> Partition:
    """The one-block partition: the whole sample space, probability one."""
    return _on_rows((), dataset, (dataset.scale,))  # all codes 0 pack to 0, as no codes do


def cell_keys(p: Partition, q: Partition) -> Sequence[int]:
    """Row r's contingency cell as the integer ``p.codes[r] * q.n_blocks
    + q.codes[r]``, for every row in order, from one multiply-add on the
    packed codes; raises unless both carve the same weighted row universe."""
    # the partitions of one dataset share its multiplicities object
    if p.scale != q.scale or (p.multiplicities is not q.multiplicities
                              and p.multiplicities != q.multiplicities):
        raise StructuralError("partitions live on different row universes")
    rows = p.row_count
    return _unpack(p.packed * len(q.counts) + q.packed, rows, rows * rows)


# past this many three-way cells no 8-byte field holds their keys
MAX_TRIPLE_CELLS = 1 << 64


def triple_cell_keys(p: Partition, q: Partition, r: Partition) -> Sequence[int] | None:
    """Row i's key ``(p.codes[i] * q.n_blocks + q.codes[i]) * r.n_blocks +
    r.codes[i]``, as ``cell_keys`` folds two, re-packing the codes when the
    row-sized fields are too narrow; ``None`` past ``MAX_TRIPLE_CELLS``."""
    if any((s.scale, s.multiplicities) != (p.scale, p.multiplicities) for s in (q, r)):
        raise StructuralError("partitions live on different row universes")
    rows, kq, kr = p.row_count, len(q.counts), len(r.counts)
    cells = len(p.counts) * kq * kr
    if cells > MAX_TRIPLE_CELLS:
        return None
    keys = max(rows * rows, cells)
    wide = _field(keys) != _field(rows * rows)
    a, b, c = (_pack(s.codes, keys) if wide else s.packed for s in (p, q, r))
    return _unpack((a * kq + b) * kr + c, rows, keys)


def cell_counts(p: Partition, q: Partition) -> dict[tuple[int, int], int]:
    """Integer mass, over the common ``scale``, of every nonempty
    intersection of a block of ``p`` with a block of ``q``, keyed by the
    pair of block numbers in first-occurrence order."""
    cells = _tally(cell_keys(p, q), p.multiplicities)
    return {divmod(key, q.n_blocks): n for key, n in cells.items()}


# the joins of two columns of one dataset (policy: ``join``), keyed by the id
# of the dataset's pair table and the ordered pair of names; an entry holds
# that table, so no other table takes its id while the entry lives
MAX_STORED_JOINS = 64
_joins: dict[tuple, tuple[dict, Partition]] = {}
_joins_lock = allocate_lock()


def join(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: blocks are the nonempty pairwise
    intersections of blocks of ``p`` and ``q``.

    The join of two columns of one dataset (both partitions from its
    ``induced_partition``) is built once and kept in one process-wide
    store, keyed by the dataset and the ordered pair of names; every other
    join is built afresh.  A hit is one dict read, without a lock; a build
    takes the lock to insert and, past ``MAX_STORED_JOINS``, to evict the
    oldest build, however recently read.  The cost is memory: up to 64
    joins stay referenced after a call, each with its packed codes, up to
    4 bytes a row up to 65 536 rows (10.5 MB, 2.6 bytes a row a join, at
    65 536 rows after a sampled monoid check)."""
    pairs = p._pairs
    if pairs is None or pairs is not q._pairs:
        return _join(p, q)
    key = id(pairs), p._name, q._name
    entry = _joins.get(key)
    if entry is not None:
        return entry[1]
    joined = _join(p, q)
    with _joins_lock:
        _joins[key] = pairs, joined
        if len(_joins) > MAX_STORED_JOINS:
            del _joins[next(iter(_joins))]
    return joined


def _join(p: Partition, q: Partition) -> Partition:
    keys = cell_keys(p, q)
    cells = _tally(keys, p.multiplicities)
    index = {key: i for i, key in enumerate(cells)}
    return _on_rows(map(index.__getitem__, keys), p, tuple(cells.values()))


def is_coarser(p: Partition, q: Partition) -> bool:
    """True iff every block of ``q`` sits inside a single block of ``p``
    (so ``p`` is coarser than or equal to ``q``)."""
    return len(set(cell_keys(p, q))) == q.n_blocks


def contingency(
    x: CategoricalVariable, y: CategoricalVariable, dataset: Dataset
) -> ContingencyTable:
    """Exact joint mass table of two variables over the dataset."""
    from fractions import Fraction
    cells = cell_counts(induced_partition(x, dataset), induced_partition(y, dataset))
    cols = range(len(y.alphabet))
    grid = tuple(
        tuple(Fraction(cells.get((i, j), 0), dataset.scale) for j in cols)
        for i in range(len(x.alphabet))
    )
    return ContingencyTable(x.alphabet, y.alphabet, grid)


def canonical_classes(dataset: Dataset) -> dict[str, Partition]:
    """Every column's class up to relabeling: its induced partition."""
    return {name: induced_partition(dataset[name], dataset) for name in dataset.names}


# ---------------------------------------------------------------------------
# label serialisation

def _escape(text: str) -> str:
    # the backslash first, so the escapes added after it are not escaped again
    return text.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)")


def format_label(label: Label) -> str:
    """Serialise a label to text.

    Tuple labels (joint variables) become ``(a,b)``; the characters
    ``\\ , ( )`` inside scalar labels are backslash-escaped, so distinct
    labels built from strings and tuples never share a text: a reloaded
    joint column keeps its class.  Nested tuples are walked with an
    explicit stack, so no depth of nesting recurses.
    """
    if not isinstance(label, tuple):
        return _escape(str(label))
    out, stack = ["("], [iter(label)]
    while stack:
        for part in stack[-1]:
            if out[-1] != "(":  # past a tuple's first part (a scalar's text is never "(")
                out.append(",")
            if isinstance(part, tuple):
                out.append("(")
                stack.append(iter(part))
                break
            out.append(_escape(str(part)))
        else:
            stack.pop()
            out.append(")")
    return "".join(out)
