"""CSV input, matrix output, and the bundled example datasets.

CSV contract: UTF-8, header row of column names, one record per row,
standard quoting (quoted fields may contain delimiters, quotes and
newlines).  Cell text and header names are NFC-normalised on load.
Empty cells either become the ordinary category ``"<NA>"`` (default) or,
with ``CsvSpec.drop_na``, drop the whole row with uniform re-weighting of
the remainder.

Distance matrices serialise to TSV (header row and row labels) or JSON
(``{"names": [...], "values": [[...]]}``); numbers are written with 17
significant digits so values round-trip bit-exactly.  ``save_csv`` and
``save_matrix`` return text and write nothing.
"""

import contextlib
import csv
import io
import math
import sys
import unicodedata
from pathlib import Path
from typing import Iterator, TextIO, Union

from .metric import DistanceMatrix
from .model import CatentError, Dataset, _set, _Value, format_label

NA_LABEL = "<NA>"

INTERNSHIP = "internship.csv"
INDISCERNIBLES = "indiscernibles.csv"


class ParseError(CatentError, ValueError):
    """Malformed or empty input, or colliding column names; ``line`` is
    the 1-based physical line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class CsvSpec(_Value):
    """Parsing options for ``load_csv`` (and the writing options of
    ``save_csv``).  The delimiter is any single character but the quote
    ``"`` and the line breaks ``\r`` and ``\n``."""

    _fields = ("delimiter", "drop_na")

    def __init__(self, delimiter: str = ",", drop_na: bool = False):
        _set(self, "delimiter", delimiter)
        _set(self, "drop_na", drop_na)
        if len(self.delimiter) != 1:
            raise ParseError("delimiter must be a single character")
        if self.delimiter in '"\r\n':  # these already mean something in CSV
            raise ParseError(f"delimiter {self.delimiter!r} is the quote or a line break")


Source = Union[str, Path, TextIO]


@contextlib.contextmanager
def _open_source(source: Source) -> Iterator[TextIO]:
    # a path and stdin's bytes are decoded alike: utf-8-sig accepts an
    # optional BOM, and a byte that is not UTF-8 raises; stdin stays open
    if source == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text-only stand-in for stdin
            yield sys.stdin
            return
        stream = io.TextIOWrapper(buffer, encoding="utf-8-sig", newline="")
        try:
            yield stream
        finally:
            stream.detach()
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as stream:
            yield stream
    else:
        yield source


def load_csv(source: Source, spec: CsvSpec = CsvSpec()) -> Dataset:
    """Read a categorical dataset from a path, an open stream, or ``"-"``
    (stdin).  Rows get uniform weights."""
    rows: list[list[str]] = []
    with _open_source(source) as stream:
        reader = csv.reader(stream, delimiter=spec.delimiter)
        # the csv module's own errors (such as an over-long field) are bad input
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("input has no header row")
            names = [unicodedata.normalize("NFC", h) for h in header]
            if any(not n for n in names):
                raise ParseError("empty column name in header", line=1)
            if len(set(names)) != len(names):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise ParseError(f"duplicate column names: {dupes}")
            for record in reader:
                if len(record) != len(names):
                    raise ParseError(
                        f"expected {len(names)} fields, got {len(record)}",
                        line=reader.line_num,
                    )
                if not (spec.drop_na and "" in record):
                    rows.append(record)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from exc

    if not rows:
        raise ParseError("input has no data rows")

    # one tuple per column; an empty cell is the category NA_LABEL, so only
    # a column that has one is rewritten
    na = {"": NA_LABEL}
    columns = {
        name: tuple(map(na.get, col, col)) if "" in col else col
        for name, col in zip(names, zip(*rows))
    }
    return Dataset.from_columns(columns)


def save_csv(dataset: Dataset, *, spec: CsvSpec = CsvSpec()) -> str:
    """A dataset as CSV text, byte for byte what ``csv.writer`` writes.

    One record per row; weights are not serialised (CSV datasets are
    uniform by construction).  String labels are written verbatim;
    composite labels (joint columns) via ``format_label``.  Each distinct
    label of a column is quoted once, by ``csv.writer``'s QUOTE_MINIMAL
    rule: a text holding the delimiter, ``"``, ``\r`` or ``\n`` is wrapped
    in ``"`` with its ``"`` doubled.
    """
    special = frozenset(spec.delimiter + '"\r\n')
    empty = '""' if len(dataset.names) == 1 else ""  # csv.writer writes no empty record

    def field(text: str) -> str:
        if special.isdisjoint(text):
            return text or empty
        return '"' + text.replace('"', '""') + '"'

    cols = []
    for var in dataset.columns.values():
        texts = {lab: field(lab if isinstance(lab, str) else format_label(lab))
                 for lab in var.alphabet}
        cols.append(map(texts.__getitem__, var.labels))
    records = [spec.delimiter.join(map(field, dataset.names)),
               *map(spec.delimiter.join, zip(*cols))]
    return "\r\n".join(records) + "\r\n"


# ---------------------------------------------------------------------------
# distance matrices

MATRIX_FORMATS = ("tsv", "json")
# a tab or anything str.splitlines breaks at would split a TSV name
_TSV_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def save_matrix(matrix: DistanceMatrix, fmt: str = "tsv", number_format: str = ".17g") -> str:
    """A distance matrix as TSV or JSON text.

    The default ``number_format`` keeps 17 significant digits, enough
    for ``load_matrix`` to reproduce every float bit-exactly.  TSV
    cannot hold a name with a tab or a line break (``ParseError``);
    JSON can.
    """
    if fmt not in MATRIX_FORMATS:
        raise ParseError(f"unknown matrix format {fmt!r}; expected one of {MATRIX_FORMATS}")
    if fmt == "tsv":
        unwritable = [n for n in matrix.names if not _TSV_BREAKS.isdisjoint(n)]
        if unwritable:
            raise ParseError(
                f"matrix names {unwritable} contain a tab or line break, "
                "which TSV cannot hold; write JSON instead"
            )
        lines = ["\t".join(("", *matrix.names))]
        for i, name in enumerate(matrix.names):
            lines.append(
                "\t".join((name, *(format(v, number_format) for v in matrix.values[i])))
            )
        return "\n".join(lines) + "\n"
    payload = {
        "names": list(matrix.names),
        "values": [[float(format(v, number_format)) for v in row] for row in matrix.values],
    }
    import json  # here, not at the top: the CLI imports this module on every start
    return json.dumps(payload, indent=2) + "\n"


def _finite_float(literal: str) -> float:
    # json.loads's parse_float; Infinity and NaN come through parse_constant
    if math.isinf(value := float(literal)):
        raise ParseError(f"matrix cell {literal} does not fit a float")
    return value


def load_matrix(source: Source, fmt: str = "tsv") -> DistanceMatrix:
    """Read a distance matrix written by ``save_matrix``.

    Names must be one or more distinct strings, TSV row labels must
    repeat the header's names in the same order, and the body must have
    one row per name, each of one number per name; anything else raises
    ``ParseError``.  A JSON cell is a number literal that fits a float,
    or ``Infinity``, ``-Infinity`` or ``NaN``.  A TSV cell is any text
    ``float`` reads, ``1e999999`` (``inf``) included.  Cells become Python
    floats.  The values themselves are not validated:
    ``check_distance_axioms`` reports asymmetry and the other axioms.
    """
    if fmt not in MATRIX_FORMATS:
        raise ParseError(f"unknown matrix format {fmt!r}; expected one of {MATRIX_FORMATS}")
    with _open_source(source) as stream:
        text = stream.read()
    try:
        if fmt == "json":
            import json  # here, not at the top: the CLI imports this module on every start
            payload = json.loads(text, parse_float=_finite_float)
            names, rows = payload["names"], payload["values"]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ParseError("matrix names must be a list of strings")
            if any(type(v) not in (int, float) for row in rows for v in row):
                raise ParseError("matrix cells must be numbers")
            names, values = tuple(names), [[float(v) for v in row] for row in rows]
        else:
            lines = [ln.split("\t") for ln in text.splitlines() if ln]
            if not lines:
                raise ParseError("matrix TSV is empty")
            names = tuple(lines[0][1:])
            labels = tuple(fields[0] for fields in lines[1:])
            if labels != names:
                raise ParseError(f"matrix row labels {labels} do not match the header {names}")
            values = [[float(f) for f in fields[1:]] for fields in lines[1:]]
        if not names:
            raise ParseError("matrix has no names")
        # the matrix itself refuses duplicate names and a body that does not fit them
        return DistanceMatrix(names, values)
    except ParseError:  # the refusals above are already worded
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix {fmt.upper()}: {exc}") from exc


# ---------------------------------------------------------------------------
# bundled example datasets


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example dataset."""
    from importlib import resources  # not at the top: on 3.12+ it imports inspect
    path = Path(str(resources.files("catent.data").joinpath(name)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled dataset named {name!r}")
    return path


def load_fixture(name: str) -> Dataset:
    """Load a bundled example dataset (``INTERNSHIP``, ``INDISCERNIBLES``)."""
    return load_csv(fixture_path(name))
