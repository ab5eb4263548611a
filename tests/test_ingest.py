import csv
import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench import ingest
from flowbench.errors import DataFormatError, SchemaError
from flowbench.ingest import (
    FALSE_TOKENS, MISSING_TOKENS, TRUE_TOKENS, FeatureMatrix, RawTable, clean_values,
    deduplicate, drop_identifiers, dump_feature_matrix, encode_categoricals, load_csv,
    load_feature_matrix,
)
from flowbench.schema import (
    CSE_CIC_IDS2018, DatasetSchema, TON_IOT, UNSW_NB15, get_schema, schema_from_file,
    schema_to_file,
)
from flowbench.synth import SynthSpec, schema_for, synth_generate

from helpers import write_csv
from ingest_reference import reference_feature_matrix

TINY = DatasetSchema(
    name="tiny",
    identifier_columns=("fid", "src"),
    categorical_columns=("proto",),
    boolean_columns=("flag",),
    label_column="label",
    attack_type_column="kind",
    positive_token="bad",
)
TINY_HEADER = ["fid", "src", "proto", "flag", "bytes", "label", "kind"]


def tiny_rows():
    return [
        ["1", "10.0.0.1", "tcp", "T", "100", "bad", "dos"],
        ["2", "10.0.0.2", "udp", "F", "200", "ok", "-"],
        ["3", "10.0.0.3", "icmp", "T", "300", "bad", "scan"],
    ]


class TestLoadCsv:
    def test_identity_load(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", TINY_HEADER, tiny_rows())
        table = load_csv(path, TINY)
        assert table.n_rows == 3
        assert table.columns == TINY_HEADER
        assert table.rows[0][4] == "100"

    def test_missing_label_column_is_named(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["fid", "bytes"], [["1", "2"]])
        with pytest.raises(SchemaError, match="label"):
            load_csv(path, TINY)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", TINY)

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: file is empty"):
            load_csv(path, TINY)

    def test_ragged_row_reports_index(self, tmp_path):
        rows = tiny_rows()
        rows[1] = rows[1][:-1]
        path = write_csv(tmp_path / "t.csv", TINY_HEADER, rows)
        with pytest.raises(DataFormatError, match="row 1"):
            load_csv(path, TINY)

    def test_extra_columns_allowed(self, tmp_path):
        header = TINY_HEADER + ["extra"]
        rows = [r + ["x"] for r in tiny_rows()]
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert load_csv(path, TINY).n_rows == 3

    def test_absent_identifier_tolerated(self, tmp_path):
        header = TINY_HEADER[1:]
        rows = [r[1:] for r in tiny_rows()]
        path = write_csv(tmp_path / "t.csv", header, rows)
        table = load_csv(path, TINY)
        assert "fid" not in table.columns


class TestDropIdentifiers:
    def test_unsw_drops_seven(self, tmp_path):
        # identifier list per the public UNSW-NB15 layout
        assert set(UNSW_NB15.identifier_columns) == {
            "id", "srcip", "dstip", "sport", "dport", "stime", "ltime"
        }
        header = list(UNSW_NB15.identifier_columns) + [
            "proto", "service", "state", "label", "attack_cat"
        ]
        path = write_csv(tmp_path / "u.csv", header,
                         [["1"] * 7 + ["tcp", "http", "FIN", "1", "dos"]])
        table = load_csv(path, UNSW_NB15)
        dropped = drop_identifiers(table, UNSW_NB15)
        assert len(table.columns) - len(dropped.columns) == 7
        assert dropped.columns == ["proto", "service", "state", "label", "attack_cat"]

    def test_ton_iot_drops_five(self):
        assert len(TON_IOT.identifier_columns) == 5
        assert set(TON_IOT.identifier_columns) == {
            "ts", "src_ip", "dst_ip", "src_port", "dst_port"
        }

    def test_empty_identifier_list_is_identity(self):
        schema = DatasetSchema(name="n", label_column="label")
        table = load_table(tiny_rows())
        out = drop_identifiers(table, schema)
        assert out.columns == table.columns
        assert out.rows == table.rows

    def test_column_order_preserved(self):
        table = load_table(tiny_rows())
        out = drop_identifiers(table, TINY)
        assert out.columns == ["proto", "flag", "bytes", "label", "kind"]


def load_table(rows):
    return RawTable(columns=list(TINY_HEADER), rows=[tuple(r) for r in rows])


class TestDeduplicate:
    def test_exact_duplicates_collapse(self):
        rows = tiny_rows()
        table = load_table(rows + [rows[0]])
        assert deduplicate(table).n_rows == 3

    def test_distinct_unchanged(self):
        table = load_table(tiny_rows())
        assert deduplicate(table).rows == table.rows

    def test_idempotent_and_order_preserving(self):
        rows = [tuple(r) for r in tiny_rows()]
        table = load_table([rows[1], rows[0], rows[1], rows[2], rows[0]])
        once = deduplicate(table)
        twice = deduplicate(once)
        assert once.rows == twice.rows
        assert once.rows == [rows[1], rows[0], rows[2]]

    def test_nul_inside_cells_keeps_rows_apart(self, tmp_path):
        # both rows join with NUL to "x\0y\0z"; the csv reader keeps NUL in a cell
        table = RawTable(columns=["a", "b"], rows=[("x\0y", "z"), ("x", "y\0z"), ("x", "y\0z")])
        assert deduplicate(table).rows == table.rows[:2]
        rows = [list(r) for r in tiny_rows()[:2]]
        rows[1][2:] = rows[0][2:5] + ["bad\0dos", ""]
        rows[0][5:] = ["bad", "dos\0"]
        path = tmp_path / "nul.csv"
        ingest.write_csv(path, TINY_HEADER, rows)
        fm, _ = load_feature_matrix(path, TINY)
        assert fm.labels.tolist() == [1, 0]
        assert list(fm.attack_types) == ["dos\0", ""]


class TestEncodeCategoricals:
    def test_lexicographic_codes(self):
        table = load_table(tiny_rows())
        _, emap = encode_categoricals(table, TINY)
        assert emap.maps["proto"] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_single_category_all_zero(self):
        rows = [list(r) for r in tiny_rows()]
        for r in rows:
            r[2] = "tcp"
        encoded, _ = encode_categoricals(load_table(rows), TINY)
        assert {r[2] for r in encoded.rows} == {"0"}

    def test_repeated_column_name_encodes_once(self):
        table = load_table(tiny_rows())
        twice = replace(TINY, categorical_columns=TINY.categorical_columns * 2)
        assert encode_categoricals(table, twice) == encode_categoricals(table, TINY)



class TestCleanValues:
    def prep(self, rows):
        table = load_table(rows)
        table = drop_identifiers(table, TINY)
        table, _ = encode_categoricals(table, TINY)
        return clean_values(table, TINY)

    def test_infinity_dash_nan_become_zero(self):
        rows = tiny_rows()
        rows[0][4] = "Infinity"
        rows[1][4] = "-"
        rows[2][4] = "nan"
        fm = self.prep(rows)
        bytes_col = fm.feature_names.index("bytes")
        assert (fm.values[:, bytes_col] == 0.0).all()

    def test_boolean_tokens(self):
        fm = self.prep(tiny_rows())
        flag = fm.feature_names.index("flag")
        np.testing.assert_array_equal(fm.values[:, flag], [1.0, 0.0, 1.0])

    def test_labels_from_positive_token(self):
        fm = self.prep(tiny_rows())
        np.testing.assert_array_equal(fm.labels, [1, 0, 1])
        assert list(fm.attack_types) == ["dos", "-", "scan"]

    def test_everything_finite(self):
        rows = tiny_rows()
        rows[0][4] = "-Infinity"
        fm = self.prep(rows)
        assert np.isfinite(fm.values).all()

    def test_non_numeric_residue_fails_with_location(self):
        rows = tiny_rows()
        rows[2][4] = "garbage"
        with pytest.raises(DataFormatError, match="row 2.*bytes"):
            self.prep(rows)

    def test_benign_token_schema(self, tmp_path):
        header = ["Flow ID", "Dur", "Label"]
        rows = [["a", "1.0", "Benign"], ["b", "2.0", "Bot"], ["c", "3.0", "Benign"]]
        path = write_csv(tmp_path / "c.csv", header, rows)
        fm, _ = load_feature_matrix(path, CSE_CIC_IDS2018)
        np.testing.assert_array_equal(fm.labels, [0, 1, 0])
        assert list(fm.attack_types) == ["Benign", "Bot", "Benign"]
        assert fm.feature_names == ["Dur"]


def read_dump(path):
    """(values, labels, attack types) read back from dump_feature_matrix output."""
    with open(path, encoding="utf-8", newline="") as fh:
        body = list(csv.reader(fh))[1:]
    values = np.array([[float(cell) for cell in row[:-2]] for row in body])
    return values, [int(row[-2]) for row in body], [row[-1] for row in body]


class TestErrorRows:
    """Errors name the 0-based data row of the file, also after deduplication."""

    SCHEMA = DatasetSchema(name="rows", identifier_columns=("fid",),
                           boolean_columns=("flag",), label_column="label")

    @pytest.mark.parametrize("column,bad,message", [
        ("bytes", "oops", "non-numeric cell 'oops'"),
        ("flag", "maybe", "unrecognised Boolean token 'maybe'"),
    ])
    def test_bad_cell_after_duplicates(self, tmp_path, column, bad, message):
        header = ["fid", "bytes", "flag", "label"]
        rows = [["1", "5", "T", "1"], ["2", "5", "T", "1"], ["3", "5", "T", "1"],
                ["4", "7", "F", "0"]]
        rows[3][header.index(column)] = bad
        path = write_csv(tmp_path / "d.csv", header, rows)
        with pytest.raises(DataFormatError) as info:
            load_feature_matrix(path, self.SCHEMA)
        assert (info.value.row, info.value.column) == (3, column)
        assert str(info.value) == f"{message} (row 3, column {column!r})"

    def test_first_bad_cell_in_file_order_is_named(self):
        header = ["fid", "bytes", "flag", "label"]
        rows = [("1", "5", "T", "1"), ("2", "5", "T", "1"), ("3", "6", "T", "1"),
                ("4", "7", "maybe", "0"), ("5", "oops", "T", "0")]
        table = deduplicate(drop_identifiers(RawTable(header, rows), self.SCHEMA))
        with pytest.raises(DataFormatError, match="row 3, column 'flag'"):
            clean_values(table, self.SCHEMA)


WHITESPACE = ("", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f")
SPECIAL_NUMBERS = (
    "nan", "+nan", "-nan", "inf", "+inf", "-inf", "1e400", "-1e400", "-0.0", "1_000",
    "+.5", "\u0661\u0662\u0663", "\u0663.\u0665", "\uff11\uff12", "1e-320", "0", "1",
)
BAD_NUMBERS = ("oops", "1.2.3", "--", "t", "Yes", "nan nan", "1__0")
BAD_BOOLEANS = ("2", "maybe", "-1", "yes!", "0.0")


def case_variants(tokens):
    """Every token of ``tokens`` in any mix of upper and lower case."""
    return st.sampled_from(sorted(tokens)).flatmap(
        lambda t: st.lists(st.booleans(), min_size=len(t), max_size=len(t)).map(
            lambda upper, t=t: "".join(c.upper() if u else c for c, u in zip(t, upper))))


def padded(cells):
    return st.tuples(st.sampled_from(WHITESPACE), cells, st.sampled_from(WHITESPACE)).map(
        "".join)


NUMERIC_CELLS = padded(st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(SPECIAL_NUMBERS),
    case_variants(MISSING_TOKENS),
))
BOOLEAN_CELLS = padded(case_variants(TRUE_TOKENS | FALSE_TOKENS | MISSING_TOKENS))

PROP = DatasetSchema(
    name="prop",
    identifier_columns=("fid",),
    categorical_columns=("proto",),
    boolean_columns=("flag",),
    label_column="label",
    attack_type_column="kind",
    positive_token="bad",
)
PROP_HEADER = ["fid", "a", "proto", "flag", "b", "label", "kind"]


@st.composite
def raw_tables(draw, bad_cells=0):
    """Rows of PROP_HEADER cells, with duplicates that differ only in ``fid``.

    With ``bad_cells`` > 0, that many numeric or Boolean cells are replaced
    by tokens the pipeline must reject.
    """
    body = st.tuples(
        NUMERIC_CELLS,
        st.sampled_from(["tcp", "udp", " tcp", "ICMP", ""]),
        BOOLEAN_CELLS,
        NUMERIC_CELLS,
        st.sampled_from(["bad", "ok", " bad ", "Bad", "\u00a0bad", "ok\t"]),
        st.sampled_from(["dos", " scan", "-", "", "worm\u3000"]),
    )
    rows = [list(r) for r in draw(st.lists(body, min_size=1, max_size=20))]
    for src, at in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                           st.integers(0, len(rows))), max_size=8)):
        rows.insert(at, list(rows[src]))
    for _ in range(bad_cells):
        r = draw(st.integers(0, len(rows) - 1))
        j = draw(st.sampled_from([0, 2, 3]))
        rows[r][j] = draw(st.sampled_from(BAD_BOOLEANS if j == 2 else BAD_NUMBERS))
    return [[str(i)] + cells for i, cells in enumerate(rows)]


def pipeline(columns, rows, schema):
    table = RawTable(columns=list(columns), rows=[tuple(r) for r in rows])
    table = drop_identifiers(table, schema)
    table = deduplicate(table)
    table, emap = encode_categoricals(table, schema)
    return clean_values(table, schema), emap


def assert_same_as_reference(got, want):
    fm, emap = got
    ref, ref_maps = want
    assert fm.feature_names == ref.feature_names
    assert fm.values.tobytes() == ref.values.tobytes()
    assert fm.labels.tobytes() == ref.labels.tobytes()
    assert list(fm.attack_types) == list(ref.attack_types)
    assert [(c, list(m.items())) for c, m in emap.maps.items()] == \
        [(c, list(m.items())) for c, m in ref_maps.items()]


class TestReferenceEquivalence:
    """The column-wise pipeline against the per-cell reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(raw_tables())
    def test_same_matrix_and_maps(self, rows):
        assert_same_as_reference(pipeline(PROP_HEADER, rows, PROP),
                                 reference_feature_matrix(PROP_HEADER, rows, PROP))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: raw_tables(bad_cells=k)))
    def test_same_error(self, rows):
        with pytest.raises(DataFormatError) as want:
            reference_feature_matrix(PROP_HEADER, rows, PROP)
        with pytest.raises(DataFormatError) as got:
            pipeline(PROP_HEADER, rows, PROP)
        assert str(got.value) == str(want.value)
        assert (got.value.row, got.value.column) == (want.value.row, want.value.column)

    def test_dirty_synth_file(self, tmp_path):
        spec = SynthSpec(rows=3000, n_noise=12, duplicate_rate=0.1, dirty_rate=0.05)
        path = tmp_path / "dirty.csv"
        result = synth_generate(spec, seed=11, path=path)
        schema = schema_for(spec)
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        got = load_feature_matrix(path, schema)
        assert_same_as_reference(got, reference_feature_matrix(header, rows, schema))
        assert got[0].n_samples == result.unique_rows


def streamed(columns, rows, schema, chunk_rows):
    """load_feature_matrix on the rows written as a CSV file, ``chunk_rows`` rows per chunk."""
    with mock.patch.object(ingest, "CHUNK_CELLS", chunk_rows * len(columns)):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "t.csv"
            ingest.write_csv(path, columns, rows)
            return load_feature_matrix(path, schema)


CHUNK_SIZES = [1, 3, 512]  # rows a chunk; 512 puts a table in one chunk, as CHUNK_CELLS does


# The chunked stream on written tables against the per-cell reference loop
# (module-level: hypothesis runs a parametrized method from several executors)
@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
@settings(max_examples=60, deadline=None)
@given(rows=raw_tables())
def test_streamed_same_matrix_and_maps(chunk_rows, rows):
    assert_same_as_reference(streamed(PROP_HEADER, rows, PROP, chunk_rows),
                             reference_feature_matrix(PROP_HEADER, rows, PROP))


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3).flatmap(lambda k: raw_tables(bad_cells=k)))
def test_streamed_same_error(chunk_rows, rows):
    with pytest.raises(DataFormatError) as want:
        reference_feature_matrix(PROP_HEADER, rows, PROP)
    with pytest.raises(DataFormatError) as got:
        streamed(PROP_HEADER, rows, PROP, chunk_rows)
    assert str(got.value) == str(want.value)
    assert (got.value.row, got.value.column) == (want.value.row, want.value.column)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"chunk{n}")
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_CELLS", request.param * len(TINY_HEADER))
    return request.param


class TestChunkBoundaries:
    """Rows that meet across chunks: duplicates, categories, errors, no rows at all."""

    def load(self, tmp_path, rows, header=TINY_HEADER):
        path = write_csv(tmp_path / "t.csv", header, rows)
        return load_feature_matrix(path, TINY)

    def test_duplicate_of_an_earlier_chunk_dropped(self, tmp_path, chunk_rows):
        rows = tiny_rows() + [["9", "10.9.9.9", *tiny_rows()[0][2:]]]  # row 0 again, new ids
        fm, emap = self.load(tmp_path, rows)
        assert fm.n_samples == 3
        assert_same_as_reference((fm, emap), reference_feature_matrix(TINY_HEADER, rows, TINY))

    def test_category_first_seen_in_a_later_chunk(self, tmp_path, chunk_rows):
        rows = tiny_rows() * 2
        for r, proto in enumerate(["udp", "udp", "tcp", "udp", "tcp", "icmp"]):
            rows[r] = [str(r), rows[r][1], proto, rows[r][3], str(r), *rows[r][5:]]
        fm, emap = self.load(tmp_path, rows)
        assert emap.maps == {"proto": {"icmp": 0, "tcp": 1, "udp": 2}}
        assert fm.values[:, fm.feature_names.index("proto")].tolist() == [2, 2, 1, 2, 1, 0]
        assert_same_as_reference((fm, emap), reference_feature_matrix(TINY_HEADER, rows, TINY))

    def test_ragged_row_in_chunk_three_wins_over_bad_cell_in_chunk_one(
            self, tmp_path, chunk_rows):
        rows = [[str(r), *row[1:]] for r, row in enumerate(tiny_rows() * 3)]
        rows[0][4] = "oops"
        ragged = 2 * chunk_rows  # the first row of the third chunk
        rows[ragged] = rows[ragged][:-1]
        with pytest.raises(DataFormatError) as info:
            self.load(tmp_path, rows)
        assert str(info.value) == f"ragged row: expected 7 cells, got 6 (row {ragged})"

    def test_first_bad_cell_of_the_file_named_across_chunks(self, tmp_path, chunk_rows):
        rows = [[str(r), *row[1:]] for r, row in enumerate(tiny_rows() * 3)]
        rows[8][3] = "maybe"
        rows[4][4] = "oops"
        rows[4][3] = "nah"  # same row, earlier column
        with pytest.raises(DataFormatError) as info:
            self.load(tmp_path, rows)
        assert str(info.value) == "unrecognised Boolean token 'nah' (row 4, column 'flag')"

    def test_load_csv_reads_every_chunk(self, tmp_path, chunk_rows):
        rows = [[str(r), *row[1:]] for r, row in enumerate(tiny_rows() * 3)]
        path = write_csv(tmp_path / "t.csv", TINY_HEADER, rows)
        assert load_csv(path, TINY).rows == [tuple(row) for row in rows]
        ragged = 2 * chunk_rows  # the first row of the third chunk
        rows[ragged] = rows[ragged][:-1]
        write_csv(path, TINY_HEADER, rows)
        with pytest.raises(DataFormatError) as info:
            load_csv(path, TINY)
        assert info.value.row == ragged

    def test_header_only_file(self, tmp_path, chunk_rows):
        fm, emap = self.load(tmp_path, [])
        assert fm.values.shape == (0, 3) and fm.labels.shape == (0,)
        assert fm.attack_types.shape == (0,)
        assert emap.maps == {"proto": {}}
        assert_same_as_reference((fm, emap), reference_feature_matrix(TINY_HEADER, [], TINY))


def test_peak_memory_is_a_few_output_matrices(tmp_path):
    # The stream holds one chunk of text and the digests of the rows seen
    # beside the growing matrix; a whole-file string table takes about 11x
    # the matrix here.
    rng = np.random.default_rng(0)
    n, d = 10_000, 12
    attack = (rng.random(n) < 0.3).tolist()
    rows = ([i, *values, proto, flag, "bad" if a else "ok", "dos" if a else "-"]
            for i, values, proto, flag, a in zip(
                range(n), np.round(rng.normal(size=(n, d)), 6).tolist(),
                rng.choice(["tcp", "udp", "icmp"], n).tolist(),
                rng.choice(["T", "F"], n).tolist(), attack))
    path = tmp_path / "wide.csv"
    ingest.write_csv(path, ["fid", *(f"f{j}" for j in range(d)), "proto", "flag", "label",
                            "kind"], rows)
    tracemalloc.start()
    try:
        fm, _ = load_feature_matrix(path, TINY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fm.values.shape == (n, d + 2)
    assert peak < 5 * fm.values.nbytes


@pytest.mark.parametrize("n_noise", [28, 76], ids=["48-columns", "96-columns"])
def test_text_in_flight_is_bounded_whatever_the_width(tmp_path, n_noise):
    # Chunks hold ingest.CHUNK_CELLS cells of text, so what the load holds
    # beside its output does not grow with the width. Chunks of 512 rows
    # held 3.2 MB at 48 columns and 6.4 MB at 96; these hold about 1.2 MB.
    spec = SynthSpec(rows=3000, n_informative=8, n_noise=n_noise, duplicate_rate=0.02,
                     dirty_rate=0.01)
    path = tmp_path / "wide.csv"
    synth_generate(spec, seed=3, path=path)
    tracemalloc.start()
    try:
        fm, _ = load_feature_matrix(path, schema_for(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fm.n_features == n_noise + 12  # 8 informative, 2 categorical, 2 Boolean
    assert peak - fm.values.nbytes - fm.labels.nbytes < 2_000_000


def digest(hi: int, lo: int) -> bytes:
    """The 16 bytes that ``_DigestTable`` reads as the halves (hi, lo)."""
    return np.array([hi, lo], dtype=np.uint64).tobytes()


def first_new(batches):
    """Per batch, the positions of the digests no earlier position held (a set's answer)."""
    seen, out = set(), []
    for batch in batches:
        out.append([r for r, d in enumerate(batch) if d not in seen and not seen.add(d)])
    return out


HALVES = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1))  # few values: many shared halves


class TestDigestTable:
    """``_DigestTable`` against a set of the same digests, halves shared on purpose."""

    def add_all(self, batches):
        table = ingest._DigestTable()
        return [table.add(b"".join(batch)).tolist() for batch in batches], table

    def test_shared_hi_different_lo_both_kept(self):
        a, b, c = digest(7, 1), digest(7, 2), digest(7, 3)
        got, table = self.add_all([[a, b, a, b], [b, c, a, c]])
        assert got == [[0, 1], [1]]
        assert len(table) == 3

    def test_repeats_dropped_within_and_across_batches(self):
        a, b = digest(1, 1), digest(2, 2)
        assert self.add_all([[a, a, b, a], [b, a], [b, digest(1, 2)]])[0] == [[0, 2], [], [1]]

    def test_empty_batches(self):
        a = digest(5, 6)
        got, table = self.add_all([[], [a], [], [a, digest(6, 5)], []])
        assert got == [[], [0], [], [1], []]
        assert len(table) == 2

    def test_first_occurrence_in_row_order(self):
        # hi falls as the position rises, so the sorted order is the reverse of row order
        batch = [digest(9 - r % 5, 0) for r in range(10)]
        assert self.add_all([batch])[0] == [[0, 1, 2, 3, 4]]

    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(st.lists(st.tuples(HALVES, HALVES).map(lambda h: digest(*h)),
                                     max_size=12), max_size=40))
    def test_matches_a_set(self, batches):
        got, table = self.add_all(batches)
        assert got == first_new(batches)
        assert len(table) == len(set().union(*batches))

    def test_merges_keep_every_digest(self):
        # enough batches for runs of several sizes and merges across them
        rng = np.random.default_rng(4)
        pool = [digest(int(rng.integers(0, 40)), int(lo)) for lo in rng.integers(0, 2**64, 300,
                                                                              dtype=np.uint64)]
        batches = [[pool[i] for i in rng.integers(0, len(pool), 16)] for _ in range(120)]
        table, got = ingest._DigestTable(), []
        for batch in batches:
            got.append(table.add(b"".join(batch)).tolist())
            sizes = [len(hi) for hi, _ in table.runs]
            assert all(8 * b <= a for a, b in zip(sizes, sizes[1:]))  # each run 8x the next
        assert got == first_new(batches)
        assert len(table) == len(set().union(*batches))


def one_hi(original):
    """``_row_digests`` with every digest's first 8 bytes set to 0, so all rows share a hi."""
    return lambda rows, width: (bytes(8) + d[8:] for d in original(rows, width))


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
@settings(max_examples=40, deadline=None)
@given(rows=raw_tables())
def test_streamed_with_every_hi_shared(chunk_rows, rows):
    # every lookup scans the rows that share a hi, and every chunk sorts on both halves
    with mock.patch.object(ingest, "_row_digests", one_hi(ingest._row_digests)):
        got = streamed(PROP_HEADER, rows, PROP, chunk_rows)
    assert_same_as_reference(got, reference_feature_matrix(PROP_HEADER, rows, PROP))


def test_digest_table_holds_16_bytes_a_row():
    n, c = 50_000, ingest.CHUNK_CELLS // 48  # a 48-column file's rows per chunk
    data = np.random.default_rng(0).integers(0, 2**64, (n, 2), dtype=np.uint64).tobytes()
    batches = [data[i:i + 16 * c] for i in range(0, len(data), 16 * c)]

    def held(store, add):
        """(bytes held, peak bytes) while ``add`` puts every batch into ``store``."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in batches:
                add(store, batch)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return now - before, peak - before

    table = ingest._DigestTable()
    table_held, table_peak = held(table, ingest._DigestTable.add)
    assert len(table) == n
    assert table_held <= 32 * n
    assert table_peak <= 48 * n  # the merge copies the large run once
    # the bound tells the table from a set of the same digests
    seen = set()
    set_held, _ = held(seen, lambda s, b: s.update(b[i:i + 16] for i in range(0, len(b), 16)))
    assert len(seen) == n
    assert set_held > 32 * n


def test_load_logs_what_it_dropped(tmp_path, caplog):
    rows = tiny_rows()
    rows += [["7", "10.7.7.7", *rows[0][2:]], rows[1], ["8", "10.8.8.8", *rows[0][2:]]]
    path = write_csv(tmp_path / "t.csv", TINY_HEADER, rows)
    with caplog.at_level("INFO", logger="flowbench.ingest"):
        fm, _ = load_feature_matrix(path, TINY)
    assert fm.n_samples == 3
    assert f"{path}: read 6 rows, dropped 3 duplicate rows, kept 3" in caplog.messages


def test_load_logs_an_absent_identifier_column_once(tmp_path, caplog):
    path = write_csv(tmp_path / "t.csv", TINY_HEADER[1:], [r[1:] for r in tiny_rows()])
    with caplog.at_level("INFO", logger="flowbench.ingest"):
        load_feature_matrix(path, TINY)
    assert caplog.messages == [f"{path}: identifier column(s) ['fid'] not present",
                               f"{path}: read 3 rows, dropped 0 duplicate rows, kept 3"]


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.array([[np.nan]]), feature_names=["a"],
                          labels=np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 7, 11])
    def test_rejects_non_finite_anywhere(self, bad, at):
        values = np.arange(12.0).reshape(4, 3)
        values.flat[at] = bad
        with pytest.raises(ValueError, match="^values contain non-finite entries$"):
            FeatureMatrix(values=values, feature_names=["a", "b", "c"], labels=np.zeros(4))

    def test_accepts_empty_matrices(self):
        assert FeatureMatrix(np.zeros((0, 3)), ["a", "b", "c"], np.zeros(0)).n_samples == 0
        assert FeatureMatrix(np.zeros((3, 0)), [], np.zeros(3)).n_features == 0

    def test_finiteness_check_allocates_less_than_the_values(self):
        n, d = 20_000, 16
        values = np.random.default_rng(0).normal(size=(n, d))
        labels = np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            FeatureMatrix(values, [f"f{j}" for j in range(d)], labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d  # a Boolean temporary of the values alone takes n * d bytes

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.array([[1.0]]), feature_names=["a"],
                          labels=np.array([2]))

    @pytest.mark.parametrize("bad", [-1, 2, 3, -2, 2**62])
    def test_label_check_is_exact(self, bad):
        values = np.zeros((4, 1))
        with pytest.raises(ValueError, match="labels must contain only 0 and 1"):
            FeatureMatrix(values=values, feature_names=["a"], labels=np.array([0, 1, bad, 1]))
        for labels in ([0, 1, 1, 0], [1, 1, 1, 1]):
            FeatureMatrix(values=values, feature_names=["a"], labels=np.array(labels))
        FeatureMatrix(values=np.zeros((0, 1)), feature_names=["a"], labels=np.array([], dtype=int))

    @pytest.mark.parametrize("bad", [[0.5, 1.7, 0.2], [0.0, 1.0, 0.999], [0.0, 1.0, np.nan],
                                     [0.0, 1.0, 2.0]])
    def test_float_labels_rejected_not_truncated(self, bad):
        with pytest.raises(ValueError, match="labels must contain only 0 and 1"):
            FeatureMatrix(np.zeros((3, 1)), ["a"], np.array(bad))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 1.0]), np.array([False, True, True]),
                                        np.array([0, 1, 1], dtype=np.uint8), [0, 1, 1]])
    def test_exact_binary_labels_accepted(self, labels):
        fm = FeatureMatrix(np.zeros((3, 1)), ["a"], labels)
        assert fm.labels.dtype == np.int64
        assert fm.labels.tolist() == [0, 1, 1]

    def test_immutable_after_construction(self):
        fm = FeatureMatrix(values=np.array([[1.0]]), feature_names=["a"],
                           labels=np.array([1]))
        with pytest.raises(ValueError):
            fm.values[0, 0] = 2.0


class TestFullPipeline:
    def test_deterministic(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", TINY_HEADER, tiny_rows() * 5)
        a, _ = load_feature_matrix(path, TINY)
        b, _ = load_feature_matrix(path, TINY)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_dump_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", TINY_HEADER, tiny_rows())
        fm, _ = load_feature_matrix(path, TINY)
        out = tmp_path / "clean.csv"
        dump_feature_matrix(fm, out)
        header = out.read_text().splitlines()[0].split(",")
        assert header == fm.feature_names + ["label", "attack_type"]
        values, labels, attacks = read_dump(out)
        assert values.tobytes() == fm.values.tobytes()
        assert labels == fm.labels.tolist()
        assert attacks == list(fm.attack_types)

    def test_dump_values_round_trip_bit_for_bit(self, tmp_path):
        values = np.array([
            [0.1, -0.0, 1 / 3],
            [5e-324, -2.5e-310, 1.7976931348623157e308],
            [123456789.0, 1e-7, -1e22],
        ])
        fm = FeatureMatrix(values=values, feature_names=["a", "b", "c"],
                           labels=np.array([0, 1, 1]),
                           attack_types=np.array(["benign", 'dos, "v2"', ""], dtype=object))
        out = tmp_path / "clean.csv"
        dump_feature_matrix(fm, out)
        got, labels, attacks = read_dump(out)
        assert got.tobytes() == values.tobytes()
        assert labels == [0, 1, 1]
        assert attacks == ["benign", 'dos, "v2"', ""]

        untyped = FeatureMatrix(values=values, feature_names=["a", "b", "c"],
                                labels=np.array([0, 1, 1]))
        dump_feature_matrix(untyped, out)
        assert read_dump(out)[2] == ["", "", ""]

    def test_schema_json_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        for schema in (TINY, CSE_CIC_IDS2018):  # the second's attack type is its label
            schema_to_file(schema, path)
            assert schema_from_file(path) == schema

    @pytest.mark.parametrize("doc, message", [
        (["label"], r"schema must be a JSON object, got \['label'\]"),
        ({"name": "x", "label": "y"}, r"unknown schema key\(s\) \['label'\]"),
        ({"label_column": "y"}, "name"),
        ({"name": "x", "categorical_columns": ["proto"], "boolean_columns": ["proto"]},
         r"\['proto'\] appear in both categorical_columns and boolean_columns"),
        ({"name": "x", "identifier_columns": "flow_id"},
         "identifier_columns must be a list of strings, got 'flow_id'"),
        ({"name": "x", "label_column": 5}, "label_column must be a string, got 5"),
        ({"name": "x", "identifier_columns": ["kind"], "attack_type_column": "kind"},
         "attack_type_column 'kind' is also in identifier_columns"),
        ({"name": "x", "categorical_columns": ["kind"], "attack_type_column": "kind"},
         "attack_type_column 'kind' is also in categorical_columns"),
    ], ids=["list", "unknown-key", "missing-name", "two-roles", "string-columns",
            "number-label", "attack-type-identifier", "attack-type-categorical"])
    def test_bad_schema_file_names_file(self, tmp_path, doc, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: .*{message}"):
            schema_from_file(path)

    def test_builtin_schemas_by_name(self):
        for name in ("unsw-nb15", "ton-iot", "cse-cic-ids2018", "synthetic"):
            assert get_schema(name).name == name
        with pytest.raises(SchemaError):
            get_schema("nope")
