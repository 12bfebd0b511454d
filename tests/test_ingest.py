import csv
import io
import json
import math
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catent.algebra import joint
from catent.ingest import (
    INDISCERNIBLES,
    INTERNSHIP,
    NA_LABEL,
    CsvSpec,
    ParseError,
    fixture_path,
    load_csv,
    load_fixture,
    load_matrix,
    save_csv,
    save_matrix,
)
from catent.metric import DistanceMatrix, distance_matrix
from catent.model import CatentError, Dataset

import oracle
import strategies

# every single character but the quote and the line breaks, over the ASCII
# range and a few beyond it
DELIMITERS = [ch for ch in map(chr, [*range(128), 0x85, 0xE9, 0x2028, 0x1F600])
              if ch not in '"\r\n']


def csv_dataset(text: str, **spec_kw):
    return load_csv(io.StringIO(text), CsvSpec(**spec_kw))


@st.composite
def csv_cases(draw):
    """A dataset of 1-3 columns and 1-6 rows, sometimes with the joint of two
    of its columns appended, and a delimiter.  Labels and names mix the
    shared label strategies with short texts of the characters that
    ``csv.writer`` quotes on, the empty text included."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    quotable = st.text(st.sampled_from([delimiter, '"', "\r", "\n", " ", "x"]), max_size=4)
    labels = st.one_of(strategies.tuple_labels(), quotable)
    names = draw(st.lists(st.one_of(strategies.scalar_labels, quotable),
                          min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 6))
    columns = {}
    for name in names:
        alphabet = draw(st.lists(labels, min_size=1, max_size=3))
        columns[name] = [draw(st.sampled_from(alphabet)) for _ in range(n)]
    d = Dataset.from_columns(columns)
    if len(names) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(names))[:2]
        d = d.with_column(joint(d[a], d[b], d))
    return d, CsvSpec(delimiter=delimiter)


class TestLoadCsv:
    def test_basic_parse(self):
        d = csv_dataset("a,b\nx,p\ny,q\n")
        assert d.names == ("a", "b")
        assert d.row_count == 2
        assert d["a"].labels == ("x", "y")

    def test_quoted_fields_may_contain_delimiters_and_newlines(self):
        d = csv_dataset('a,b\n"x,1","line\nbreak"\ny,q\n')
        assert d["a"].labels == ("x,1", "y")
        assert d["b"].labels == ("line\nbreak", "q")

    def test_custom_delimiter(self):
        d = csv_dataset("a;b\nx;p\n", delimiter=";")
        assert d.names == ("a", "b")

    def test_nfc_normalisation_of_cells_and_headers(self):
        decomposed = "café"  # e + combining acute
        composed = "café"
        d = csv_dataset(f"{decomposed}\n{decomposed}\n{composed}\n")
        assert d.names == (composed,)
        assert d[composed].alphabet == (composed,)

    def test_bom_accepted_from_path(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\nx,p\n")
        d = load_csv(p)
        assert d.names == ("a", "b")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="input has no header row"):
            csv_dataset("")

    def test_header_only_rejected(self):
        with pytest.raises(ParseError, match="input has no data rows"):
            csv_dataset("a,b\n")

    def test_empty_header_name_rejected(self):
        with pytest.raises(ParseError):
            csv_dataset("a,,c\nx,y,z\n")

    def test_duplicate_headers_rejected(self):
        with pytest.raises(ParseError, match="duplicate column names"):
            csv_dataset("a,a\nx,y\n")

    def test_nfc_collision_detected(self):
        with pytest.raises(ParseError, match="duplicate column names"):
            csv_dataset("café,café\nx,y\n")

    def test_oversized_field_is_a_parse_error(self):
        # one field past the csv module's 128 KiB limit, on the second line
        with pytest.raises(ParseError) as err:
            csv_dataset("a,b\n" + "x" * 200_000 + ",y\n")
        assert err.value.line == 2
        assert "field larger than field limit" in str(err.value)

    def test_ragged_row_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            csv_dataset("a,b\nx,p\nonlyone\n")
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_na_keep_as_category(self):
        d = csv_dataset("a,b\n,p\nx,q\n")
        assert d["a"].labels == (NA_LABEL, "x")

    def test_na_drop_row_reweights(self):
        d = csv_dataset("a,b\n,p\nx,q\nx,r\n", drop_na=True)
        assert d.row_count == 2
        assert float(sum(d.row_weights)) == pytest.approx(1.0, abs=1e-15)

    def test_drop_all_rows_rejected(self):
        with pytest.raises(ParseError, match="input has no data rows"):
            csv_dataset("a,b\n,\nx,\n", drop_na=True)

    def test_bad_spec_rejected(self):
        with pytest.raises(ParseError):
            CsvSpec(delimiter=",,")

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"], ids=["quote", "cr", "lf"])
    def test_quote_and_line_breaks_are_not_delimiters(self, delimiter):
        with pytest.raises(ParseError, match="quote or a line break"):
            CsvSpec(delimiter=delimiter)

    def test_every_other_single_character_delimiter_round_trips(self):
        for ch in DELIMITERS:
            spec = CsvSpec(delimiter=ch)
            d = Dataset.from_columns({
                f"a{ch}b": [f"x{ch}y", 'q"r', "line\nbreak", " s ", "t"],
                "c": ["1", "2", "3", "4", "5"],
            })
            again = load_csv(io.StringIO(save_csv(d, spec=spec), newline=""), spec)
            assert again.names == d.names, repr(ch)
            assert [again[n].labels for n in again.names] == [d[n].labels for n in d.names]

    def test_errors_share_a_base_class(self):
        # catent's own error type, and a ValueError like every refusal of bad input
        assert issubclass(ParseError, CatentError)
        assert issubclass(ParseError, ValueError)


class TestSaveCsv:
    def test_roundtrip_text(self, internship):
        text = save_csv(internship)
        again = csv_dataset(text)
        assert again.names == internship.names
        for nm in again.names:
            assert again[nm].labels == internship[nm].labels

    def test_roundtrip_via_path(self, tmp_path, indiscernibles):
        p = tmp_path / "out.csv"
        p.write_text(save_csv(indiscernibles), encoding="utf-8")
        again = load_csv(p)
        assert again["digits"].labels == indiscernibles["digits"].labels

    def test_spec_is_keyword_only(self, tmp_path, indiscernibles):
        # a path where the spec used to follow is refused, not silently ignored
        with pytest.raises(TypeError):
            save_csv(indiscernibles, tmp_path / "out.csv")

    def test_joint_labels_serialised_readably(self, internship):
        j = joint(internship["Neatness"], internship["GotHired"], internship)
        with_joint = internship.with_column(j)
        text = save_csv(with_joint)
        assert "(R,N)" in text
        again = csv_dataset(text)
        assert again["(Neatness*GotHired)"].labels[0] == "(R,N)"

    def test_quoting_survives_roundtrip(self):
        d = csv_dataset('a\n"x,y"\nz\n')
        assert csv_dataset(save_csv(d))["a"].labels == ("x,y", "z")

    @given(csv_cases())
    @example((Dataset.from_columns({"a": ["", "x", ""]}), CsvSpec()))  # one empty field
    def test_text_is_what_csv_writer_writes(self, case):
        d, spec = case
        assert save_csv(d, spec=spec) == oracle.oracle_save_csv(d, spec)


def row_by_row(text: str, delimiter: str = ",", drop_na: bool = False):
    """What ``load_csv`` must return, built one record at a time: NFC
    names, NFC labels with ``""`` as ``NA_LABEL`` (or the row dropped),
    first-occurrence alphabets and codes, uniform weights."""
    header, *records = csv.reader(io.StringIO(text), delimiter=delimiter)
    kept = [r for r in records if not (drop_na and "" in r)]
    expected = {}
    for i, name in enumerate(header):
        labels = tuple(unicodedata.normalize("NFC", r[i]) if r[i] else NA_LABEL for r in kept)
        alphabet = tuple(dict.fromkeys(labels))
        expected[unicodedata.normalize("NFC", name)] = (
            labels, alphabet, tuple(map(alphabet.index, labels))
        )
    return expected, (Fraction(1, len(kept)),) * len(kept)


class TestIngestBytes:
    """Exact loaded columns and exact ``save_csv`` text for the inputs
    the ingest path treats specially."""

    def assert_loads_as_row_by_row(self, text, **spec_kw):
        d = csv_dataset(text, **spec_kw)
        expected, weights = row_by_row(
            text, spec_kw.get("delimiter", ","), spec_kw.get("drop_na", False)
        )
        assert d.names == tuple(expected)
        for n, (labels, alphabet, codes) in expected.items():
            assert (d[n].labels, d[n].alphabet, d[n].codes) == (labels, alphabet, codes)
        assert d.row_weights == weights
        return d

    def test_na_keep_as_category_text(self):
        d = self.assert_loads_as_row_by_row("a,b\n,p\nx,\nx,q\n")
        assert save_csv(d) == "a,b\r\n<NA>,p\r\nx,<NA>\r\nx,q\r\n"

    def test_na_drop_row_text_and_weights(self):
        d = self.assert_loads_as_row_by_row("a,b\n,p\nx,q\ny,r\nz,\n", drop_na=True)
        assert d.row_weights == (Fraction(1, 2),) * 2
        assert save_csv(d) == "a,b\r\nx,q\r\ny,r\r\n"

    def test_quoted_delimiter_quote_and_newline(self):
        d = self.assert_loads_as_row_by_row(
            'a,b\n"x,1","say ""hi"""\n"line\nbreak",q\n"x,1",q\n'
        )
        assert d["b"].labels == ('say "hi"', "q", "q")
        assert save_csv(d) == (
            'a,b\r\n"x,1","say ""hi"""\r\n"line\nbreak",q\r\n"x,1",q\r\n'
        )

    def test_semicolon_delimiter(self):
        text = 'a;b\n"x;1";p\n;q\nx,2;p\n'
        d = self.assert_loads_as_row_by_row(text, delimiter=";")
        assert d["a"].labels == ("x;1", NA_LABEL, "x,2")
        assert save_csv(d, spec=CsvSpec(delimiter=";")) == (
            'a;b\r\n"x;1";p\r\n<NA>;q\r\nx,2;p\r\n'
        )

    def test_nfd_cells_and_header(self):
        nfd, nfc = "cafe\u0301", "caf\u00e9"
        d = self.assert_loads_as_row_by_row(
            f"{nfd},b\ne\u0301,{nfd}\ne\u0301,x\n\u00e9,{nfc}\n"
        )
        assert d.names == (nfc, "b")
        assert d[nfc].alphabet == ("\u00e9",)
        assert d["b"].codes == (0, 1, 0)
        assert save_csv(d) == f"{nfc},b\r\n\u00e9,{nfc}\r\n\u00e9,x\r\n\u00e9,{nfc}\r\n"

    def test_nested_joint_with_special_characters(self):
        d = self.assert_loads_as_row_by_row(
            'a,b,c\nx\\y,"p,q",(r)\n"s,t",u(,)v\nx\\y,"p,q",)v\n'
        )
        j = joint(joint(d["a"], d["b"], d), d["c"], d)
        assert j.name == "((a*b)*c)"
        assert save_csv(d.with_column(j)) == (
            "a,b,c,((a*b)*c)\r\n"
            'x\\y,"p,q",(r),"((x\\\\y,p\\,q),\\(r\\))"\r\n'
            '"s,t",u(,)v,"((s\\,t,u\\(),\\)v)"\r\n'
            'x\\y,"p,q",)v,"((x\\\\y,p\\,q),\\)v)"\r\n'
        )

    def test_one_empty_field_is_written_quoted(self):
        # csv.writer writes no empty record: a lone empty field becomes ""
        d = Dataset.from_columns({"a": ["", "x", ""]})
        assert save_csv(d) == 'a\r\n""\r\nx\r\n""\r\n'
        assert save_csv(Dataset.from_columns({"": ["x"]})) == '""\r\nx\r\n'

    def test_empty_field_beside_another_stays_empty(self):
        d = Dataset.from_columns({"a": ["", "x"], "b": ["p", ""]})
        assert save_csv(d) == "a,b\r\n,p\r\nx,\r\n"

    def test_header_names_are_quoted_like_labels(self):
        # each of the first three names holds one character that forces quoting: the
        # delimiter, " and \r; a comma is plain text under another delimiter
        d = Dataset.from_columns({"x;y": ["1"], 'q"r': ["2"], "c\rd": ["3"], "e,f": ["4"]})
        assert save_csv(d, spec=CsvSpec(delimiter=";")) == (
            '"x;y";"q""r";"c\rd";e,f\r\n1;2;3;4\r\n'
        )

    def test_joint_label_text_holding_the_delimiter_is_quoted(self):
        d = Dataset.from_columns({"a": ["x", "y"], "b": ["p", "p"]})
        d = d.with_column(joint(d["a"], d["b"], d))
        assert save_csv(d) == 'a,b,(a*b)\r\nx,p,"(x,p)"\r\ny,p,"(y,p)"\r\n'
        assert save_csv(d, spec=CsvSpec(delimiter=";")) == (
            "a;b;(a*b)\r\nx;p;(x,p)\r\ny;p;(y,p)\r\n"
        )

    def test_fixtures_load_as_row_by_row(self):
        for name in (INTERNSHIP, INDISCERNIBLES):
            self.assert_loads_as_row_by_row(fixture_path(name).read_text(encoding="utf-8-sig"))


class TestMatrixIO:
    def test_tsv_roundtrip_bit_exact(self, internship):
        m = distance_matrix(internship)
        text = save_matrix(m, fmt="tsv")
        again = load_matrix(io.StringIO(text), fmt="tsv")
        assert again.names == m.names
        assert again.values == m.values

    def test_json_roundtrip_bit_exact(self, internship):
        m = distance_matrix(internship)
        text = save_matrix(m, fmt="json")
        again = load_matrix(io.StringIO(text), fmt="json")
        assert again.names == m.names
        assert again.values == m.values

    def test_json_payload_shape(self, indiscernibles):
        payload = json.loads(save_matrix(distance_matrix(indiscernibles), fmt="json"))
        assert payload["names"] == ["digits", "letters"]
        assert payload["values"][0][1] == 0.0

    def test_tsv_layout(self, indiscernibles):
        lines = save_matrix(distance_matrix(indiscernibles)).splitlines()
        assert lines[0] == "\tdigits\tletters"
        assert lines[1].startswith("digits\t")
        assert len(lines) == 3

    def test_number_format_parameter(self, internship):
        m = distance_matrix(internship, subset=["Creativity", "GotHired"])
        text = save_matrix(m, fmt="tsv", number_format=".4f")
        assert "0.5373" in text

    def test_path_targets(self, tmp_path, internship):
        m = distance_matrix(internship)
        p = tmp_path / "m.tsv"
        p.write_text(save_matrix(m), encoding="utf-8")
        assert load_matrix(p).values == m.values

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b"])
    def test_tsv_refuses_names_it_cannot_read_back(self, name):
        m = DistanceMatrix((name, "c"), [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ParseError, match="tab or line break"):
            save_matrix(m, fmt="tsv")
        again = load_matrix(io.StringIO(save_matrix(m, fmt="json")), fmt="json")
        assert again.names == (name, "c")

    def test_unknown_format_rejected(self, internship):
        m = distance_matrix(internship)
        with pytest.raises(ParseError):
            save_matrix(m, fmt="xml")
        with pytest.raises(ParseError):
            load_matrix(io.StringIO(""), fmt="xml")

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ParseError):
            load_matrix(io.StringIO(""), fmt="tsv")
        with pytest.raises(ParseError):
            load_matrix(io.StringIO("\ta\tb\na\t0.0\t1.0\n"), fmt="tsv")
        with pytest.raises(ParseError):
            load_matrix(io.StringIO('{"names": ["a"]}'), fmt="json")

    def test_row_labels_must_follow_the_header(self):
        for text in (
            "\ta\tb\nb\t0\t0.25\nzzz\t0.5\t0\n",  # unknown label
            "\ta\tb\nb\t0.25\t0\na\t0\t0.25\n",  # header names, other order
        ):
            with pytest.raises(ParseError, match="row labels"):
                load_matrix(io.StringIO(text), fmt="tsv")

    @pytest.mark.parametrize("text, fmt", [
        ("\ta\tb\na\t0\tx\nb\t0.5\t0\n", "tsv"),
        ('{"names": ["a", "b"], "values": [[0, "x"], [0.5, 0]]}', "json"),
        ("\ta\tb\na\t0\t0.5\nb\t0.5\n", "tsv"),  # ragged body
        ("\ta\tb\na\t0\t0.5\t1\nb\t0.5\t0\n", "tsv"),  # a row too long
        ('{"names": ["a"], "values": [[0]]', "json"),  # truncated JSON
        ('{"names": ["a", "b"], "values": [[0, 0.5], [0.5]]}', "json"),  # ragged body
        ('{"names": ["a"], "values": [[0], [0]]}', "json"),  # a row too many
        ('{"names": [], "values": []}', "json"),  # no names
        ("x\n", "tsv"),  # no names
        pytest.param('{"names": ["a"], "values": [[1' + "0" * 400 + ']]}', "json",
                     id="json-integer-beyond-float"),
    ])
    def test_non_numeric_or_unparsable_body_is_a_parse_error(self, text, fmt):
        with pytest.raises(ParseError):
            load_matrix(io.StringIO(text), fmt=fmt)

    @pytest.mark.parametrize("text, fmt", [
        ("\ta\ta\na\t0\t1\na\t1\t0\n", "tsv"),
        ('{"names": ["a", "a"], "values": [[0, 1], [1, 0]]}', "json"),
    ])
    def test_duplicate_names_rejected(self, text, fmt):
        with pytest.raises(ParseError, match="duplicate"):
            load_matrix(io.StringIO(text), fmt=fmt)

    @pytest.mark.parametrize("names", ['"ab"', '["a", 2]', '{"a": 0, "b": 1}'])
    def test_json_names_must_be_a_list_of_strings(self, names):
        text = f'{{"names": {names}, "values": [[0, 1], [1, 0]]}}'
        with pytest.raises(ParseError, match="list of strings"):
            load_matrix(io.StringIO(text), fmt="json")

    @pytest.mark.parametrize("cell", ['"0.5"', "true", "null"])
    def test_json_cells_must_be_numbers(self, cell):
        text = f'{{"names": ["a", "b"], "values": [[0, {cell}], [0.5, 0]]}}'
        with pytest.raises(ParseError, match="numbers"):
            load_matrix(io.StringIO(text), fmt="json")

    @pytest.mark.parametrize("literal", ["1e999999", "-1e999999"])
    def test_json_float_literal_beyond_float_is_a_parse_error(self, literal):
        text = f'{{"names": ["a", "b"], "values": [[0, {literal}], [{literal}, 0]]}}'
        with pytest.raises(ParseError, match="does not fit a float"):
            load_matrix(io.StringIO(text), fmt="json")

    def test_json_infinity_loads_and_round_trips_bit_exactly(self):
        text = '{"names": ["a", "b"], "values": [[0, Infinity], [-Infinity, 0]]}'
        m = load_matrix(io.StringIO(text), fmt="json")
        assert m.values == ((0.0, math.inf), (-math.inf, 0.0))
        again = load_matrix(io.StringIO(save_matrix(m, fmt="json")), fmt="json")
        assert [[v.hex() for v in row] for row in again.values] == [
            [v.hex() for v in row] for row in m.values]

    def test_tsv_cells_are_what_float_reads(self):
        m = load_matrix(io.StringIO("\ta\tb\na\t0\t1e999999\nb\tinf\t0\n"), fmt="tsv")
        assert m.value("a", "b") == m.value("b", "a") == math.inf

    def test_asymmetric_values_still_load(self):
        # reporting asymmetry is check_distance_axioms's job, not the loader's
        m = load_matrix(io.StringIO("\ta\tb\na\t0\t0.25\nb\t0.5\t0\n"), fmt="tsv")
        assert m.names == ("a", "b")
        assert (m.value("a", "b"), m.value("b", "a")) == (0.25, 0.5)

    def test_matrix_shape_guard(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a",), [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), [[0.0, 0.5], [0.5]])  # ragged rows
        with pytest.raises(ValueError):
            DistanceMatrix(("a",), [0.0])  # a scalar where a row belongs


class TestFixtures:
    def test_internship_contents_match_reference(self, internship):
        assert internship.names == oracle.INTERNSHIP_COLUMNS
        assert internship.row_count == 20
        for i, nm in enumerate(internship.names):
            expected = tuple(row[i] for row in oracle.INTERNSHIP_ROWS)
            assert internship[nm].labels == expected

    def test_indiscernibles_contents_match_reference(self, indiscernibles):
        assert indiscernibles.names == oracle.INDISCERNIBLES_COLUMNS
        assert indiscernibles.row_count == 10
        for i, nm in enumerate(indiscernibles.names):
            expected = tuple(row[i] for row in oracle.INDISCERNIBLES_ROWS)
            assert indiscernibles[nm].labels == expected

    def test_fixture_path_exists(self):
        for name in (INTERNSHIP, INDISCERNIBLES):
            assert fixture_path(name).is_file()
        with pytest.raises(FileNotFoundError):
            fixture_path("missing.csv")

    def test_load_fixture_uniform_weights(self):
        d = load_fixture(INTERNSHIP)
        assert float(sum(d.row_weights)) == pytest.approx(1.0, abs=1e-15)
        assert len(set(d.row_weights)) == 1
