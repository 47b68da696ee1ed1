import csv
import errno
import io
import json
import os
import stat
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoyield import reporting
from cryptoyield.core import Coded, Columns
from cryptoyield.errors import CryptoYieldError
from cryptoyield.reporting import Report, Series, config_hash
from tests.oracles import rows as table_rows


def render_value(value):
    """The reference cell text: repr for floats, str otherwise; numpy scalars as their Python values."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None:
        return "" if value is None else str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def written_cells(values):
    """The cells of a one-column list series as Report.write writes them."""
    with tempfile.TemporaryDirectory() as out:
        Report(command="demo", summary={}, series=[Series("s", Columns({"c": list(values)}))]).write(out)
        with open(os.path.join(out, "s.csv"), newline="", encoding="utf-8") as fh:
            return [row[0] for row in csv.reader(fh)][1:]


def reference_csv(columns, rows) -> bytes:
    """A series as csv.writer writes it with every cell through render_value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([render_value(row[c]) for c in columns])
    return buffer.getvalue().encode()


def table(rows, *columns):
    """Row dicts as one table of list columns (all of them, or those named), the shape a Series holds."""
    return Columns({name: [row[name] for row in rows] for name in columns or rows[0]})


def mixed_rows(n):
    """Rows whose cells cover every rendering path; `drift` changes type part-way down."""
    texts = ["plain", "with,comma", 'with "quote"', "two\nlines", "", "cr\rhere"]
    rows = []
    for i in range(n):
        rows.append({
            "i": i,
            "x": (-1) ** i * 1.5 ** (i % 90) * 1e-20,  # scientific repr at both ends
            "zero": -0.0 if i % 3 else 0.0,
            "flag": i % 2 == 0,
            "maybe": None if i % 4 == 0 else i / 7,
            "text": texts[i % len(texts)] if i > n // 2 else "quiet",
            "drift": float(i) if i < n // 3 else (i if i < 2 * n // 3 else f"t{i}"),
            "np": np.float64(i / 3),
        })
    return rows


class TestRendering:
    def test_float_uses_repr(self):
        assert written_cells([0.1, 1 / 3, 1e16, 1e-5, -0.0]) == ["0.1", "0.3333333333333333", "1e+16", "1e-05", "-0.0"]

    def test_none_renders_empty(self):
        assert written_cells([None, 1.5]) == ["", "1.5"]

    def test_numpy_scalars_render_as_their_python_values(self):
        cells = [np.float64(1.5), np.float64(1 / 3), np.int64(7), np.bool_(True), np.bool_(False), np.float32(0.1)]
        assert written_cells(cells) == ["1.5", "0.3333333333333333", "7", "true", "false", repr(float(np.float32(0.1)))]

    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestReportWrite:
    def make_report(self):
        report = Report(command="demo", summary={"answer": 42},
                        series=[Series("numbers", table([{"i": 1, "x": 0.5}, {"i": 2, "x": 0.25}]))])
        report.finalize_provenance({"command": "demo"}, input_paths=(), seed=7)
        return report

    def test_round_trip(self, tmp_path):
        written = self.make_report().write(tmp_path / "out")
        assert sorted(os.path.basename(p) for p in written) == ["numbers.csv", "report.json"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["summary"] == {"answer": 42}
        assert payload["provenance"]["config"] == {"command": "demo"}
        assert payload["provenance"]["seed"] == 7
        assert (tmp_path / "out" / "numbers.csv").read_text() == "i,x\n1,0.5\n2,0.25\n"

    def test_write_is_byte_deterministic(self, tmp_path):
        self.make_report().write(tmp_path / "a")
        self.make_report().write(tmp_path / "b")
        for name in ("numbers.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        ragged = Series("bad", Columns({"i": [1], "x": [1, 2]}))  # ValueError mid-write
        report = Report(command="demo", summary={}, series=[Series("good", table([{"i": 1}])), ragged])
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            report.write(out)
        assert not out.exists()

    def test_failed_write_keeps_existing_directory(self, tmp_path):
        report = Report(command="demo", summary={}, series=[Series("bad", Columns({"i": [1], "x": [1, 2]}))])
        (tmp_path / "keep.txt").write_text("x")
        with pytest.raises(ValueError):
            report.write(tmp_path / "new" / "out")
        assert not (tmp_path / "new").exists()
        with pytest.raises(ValueError):
            report.write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_summary_refused_before_writing(self, tmp_path, bad):
        report = self.make_report()
        report.summary["answer"] = bad
        out = tmp_path / "out"
        with pytest.raises(CryptoYieldError):
            report.write(out)
        assert not out.exists()


class TestStagedWrite:
    """Report.write renders chunk by chunk into a staging directory, then moves the files into place."""

    COLUMNS = ("i", "x", "zero", "flag", "maybe", "text", "drift", "np")

    @pytest.mark.parametrize("chunk_rows", sorted({256, 1024, reporting._CHUNK_ROWS, 7, 1}, reverse=True))
    def test_bytes_equal_csv_writer_with_render_value(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
        rows = mixed_rows(5000 if chunk_rows > 7 else 90)
        report = Report(command="demo", summary={}, series=[
            Series("mixed", table(rows, *self.COLUMNS)),
            Series("numbers", table(rows, "i", "x")),  # chunks with no quoting
            Series("lone", table(rows, "maybe")),  # a lone empty cell is quoted
        ])
        report.write(tmp_path / "out")
        for name, columns in (("mixed", self.COLUMNS), ("numbers", ("i", "x")), ("lone", ("maybe",))):
            assert (tmp_path / "out" / f"{name}.csv").read_bytes() == reference_csv(columns, rows)

    @staticmethod
    def nan_after_first_chunk(column="x", bad=float("nan")):
        rows = mixed_rows(reporting._CHUNK_ROWS + 10)
        rows[reporting._CHUNK_ROWS + 5][column] = bad
        series = [Series("good", table(rows, "i")), Series("numbers", table(rows, "i", column))]
        return Report(command="demo", summary={"answer": 1}, series=series)

    # A float column, a float-or-None column and a float-subclass column.
    @pytest.mark.parametrize("column, bad", [("x", float("nan")), ("maybe", float("inf")), ("np", np.float64("nan"))])
    def test_non_finite_after_first_chunk_leaves_no_new_directory(self, tmp_path, column, bad):
        with pytest.raises(CryptoYieldError, match=rf"numbers\.csv: column '{column}'"):
            self.nan_after_first_chunk(column, bad).write(tmp_path / "new" / "out")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_after_first_chunk_leaves_existing_files_untouched(self, tmp_path):
        before = {"keep.txt": b"x", "good.csv": b"old good\n", "report.json": b"{}\n"}
        for name, data in before.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CryptoYieldError):
            self.nan_after_first_chunk().write(tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_directory_in_place_of_a_file_moves_nothing(self, tmp_path):
        (tmp_path / "numbers.csv").write_bytes(b"old\n")
        (tmp_path / "report.json").mkdir()
        with pytest.raises(IsADirectoryError, match="report.json"):
            TestReportWrite().make_report().write(tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["numbers.csv", "report.json"]
        assert (tmp_path / "numbers.csv").read_bytes() == b"old\n"
        assert os.listdir(tmp_path / "report.json") == []

    @pytest.mark.parametrize("out", ["out", "new/out"], ids=["new-out", "new-parent"])
    def test_failed_move_into_new_directory_leaves_nothing(self, tmp_path, monkeypatch, out):
        moved = []

        def disk_full(source, target):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), target)

        def second_move_fails(source, target):
            if moved:
                disk_full(source, target)
            moved.append(target)
            real_replace(source, target)

        real_replace = os.replace
        monkeypatch.setattr(os, "replace", second_move_fails)
        monkeypatch.setattr(os, "rename", disk_full)
        with pytest.raises(OSError, match="No space left"):
            TestReportWrite().make_report().write(tmp_path / out)
        assert list(tmp_path.iterdir()) == []

    def test_new_directories_take_the_mode_makedirs_gives(self, tmp_path):
        TestReportWrite().make_report().write(tmp_path / "new" / "out")
        os.makedirs(tmp_path / "probe" / "out")
        for made in ("new", "new/out"):
            probe = made.replace("new", "probe")
            assert stat.S_IMODE(os.stat(tmp_path / made).st_mode) == stat.S_IMODE(os.stat(tmp_path / probe).st_mode)

    def test_no_staging_directory_left_behind(self, tmp_path):
        written = TestReportWrite().make_report().write(tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert sorted(os.listdir(tmp_path / "out")) == ["numbers.csv", "report.json"]
        assert written == [str(tmp_path / "out" / "numbers.csv"), str(tmp_path / "out" / "report.json")]
        TestReportWrite().make_report().write(tmp_path / "out")  # over an existing report
        assert sorted(os.listdir(tmp_path / "out")) == ["numbers.csv", "report.json"]


class TestColumnarSeries:
    """Series are tables of columns; an array column writes as the list of its Python values."""

    @staticmethod
    def arrays(n):
        return Columns({
            "i": np.arange(n),
            "x": (np.linspace(-1.0, 1.0, n) ** 3) * 1e-300,
            "flag": np.arange(n) % 3 == 0,
            "name": np.array([f"n{i}" if i % 5 else "a,b" for i in range(n)], dtype=object),
        })

    def test_table_length_without_lines(self):
        assert len(Columns({"a": [1, 2, 3], "b": np.zeros(3)})) == 3
        assert len(Columns({})) == 0

    @pytest.mark.parametrize("chunk_rows", sorted({256, 1024, reporting._CHUNK_ROWS, 7}, reverse=True))
    def test_array_columns_write_like_list_columns(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
        arrays = self.arrays(600)
        lists = Columns({name: column.tolist() for name, column in arrays.columns.items()})
        rows = [dict(zip(arrays.columns, row)) for row in table_rows(lists)]
        for name, table in (("arrays", arrays), ("lists", lists)):
            Report(command="demo", summary={}, series=[Series("s", table)]).write(tmp_path / name)
            assert (tmp_path / name / "s.csv").read_bytes() == reference_csv(tuple(table.columns), rows)

    def test_non_finite_in_array_after_first_chunk(self, tmp_path):
        table = self.arrays(reporting._CHUNK_ROWS + 10)
        table["x"][reporting._CHUNK_ROWS + 3] = np.inf
        numbers = Columns({"i": table["i"], "x": table["x"]})
        report = Report(command="demo", summary={}, series=[Series("numbers", numbers)])
        with pytest.raises(CryptoYieldError, match=r"numbers\.csv: column 'x'"):
            report.write(tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_columns_of_unequal_length_refused(self, tmp_path):
        ragged = Columns({"a": [1, 2], "b": np.zeros(3)})
        report = Report(command="demo", summary={}, series=[Series("ragged", ragged)])
        with pytest.raises(ValueError, match="column 'b' has 3 rows, not 2"):
            report.write(tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


# Cells repeat, so that each distinct value and text is rendered once for many rows.
FLOAT_POOL = (0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1e308, -1e308, 1 / 3, -2.5, 123456789.125)
TEXT = st.text(st.sampled_from(",\"\r\n\0 aZ\u00e9\u20ac\u65e5"), max_size=6)  # quoting characters, NUL, spaces, non-ASCII
MIXED = st.one_of(
    st.integers(-5, 5), st.booleans(), st.none(), st.sampled_from(FLOAT_POOL), TEXT,
    st.integers(2 ** 63, 2 ** 70), st.integers(-(2 ** 70), -(2 ** 63)),
    st.sampled_from(FLOAT_POOL).map(np.float64), st.integers(-9, 9).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from((0.5, -0.0, 1e-30)).map(np.float32),
)
BASES = {
    "float64": (st.sampled_from(FLOAT_POOL), np.float64),
    "float32": (st.sampled_from([v for v in FLOAT_POOL if abs(v) < 1e38]), np.float32),
    "int64": (st.integers(-(2 ** 63), 2 ** 63 - 1), np.int64),
    "uint64": (st.integers(0, 2 ** 64 - 1), np.uint64),
    "bool": (st.booleans(), bool),
    "object": (MIXED, object),
    "float list": (st.sampled_from(FLOAT_POOL), None),
    "int list": (st.integers(-(2 ** 70), 2 ** 70), None),
    "text list": (TEXT, None),
    "mixed list": (MIXED, None),
}


@st.composite
def tables(draw):
    """(chunk rows, table): row counts at chunk edges, columns of every kind the writer renders.

    Each column cycles through a few drawn cells in a drawn order, so values repeat across chunks.
    """
    chunk = draw(st.sampled_from((1, 7, reporting._CHUNK_ROWS)))
    rows = max(0, chunk * draw(st.integers(0, 2)) + draw(st.integers(-1, 1)))
    lone = draw(st.booleans())
    kinds = ["lone"] if lone else draw(st.lists(st.sampled_from(sorted(BASES)), min_size=2, max_size=5))
    order = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = {}
    for i, kind in enumerate(kinds):
        cells, dtype = (st.sampled_from(("", None, "x", "a,b")), None) if kind == "lone" else BASES[kind]
        base = draw(st.lists(cells, min_size=1, max_size=8))
        picked = [base[j] for j in order.integers(0, len(base), rows)]
        columns[f"c{i}"] = picked if dtype is None else np.array(picked, dtype=dtype)
    return chunk, Columns(columns)


@settings(max_examples=150, deadline=None, database=None)
@given(tables())
@example((7, Columns({"zero": np.array([0.0, -0.0, 5e-324, -0.0] * 5), "text": ["", "-0.0"] * 10})))
@example((7, Columns({"text": ["", "a,b", 'say "hi"', "x", "two\nlines"] * 4})))  # text alone, so a lone empty cell
def test_rendered_bytes_equal_csv_writer_with_render_value(case):
    chunk, table = case
    rows = [dict(zip(table.columns, row)) for row in table_rows(table)]
    with mock.patch.object(reporting, "_CHUNK_ROWS", chunk), tempfile.TemporaryDirectory() as out:
        Report(command="demo", summary={}, series=[Series("s", table)]).write(out)
        with open(os.path.join(out, "s.csv"), "rb") as fh:
            assert fh.read() == reference_csv(tuple(table.columns), rows)


@pytest.mark.parametrize("chunk_rows", sorted({1, 7, 256, reporting._CHUNK_ROWS}))
@pytest.mark.parametrize("lone", [False, True], ids=["beside-numbers", "alone"])
def test_coded_text_column_writes_like_its_texts(tmp_path, monkeypatch, chunk_rows, lone):
    # More texts than rows in small chunks, unused texts, quote-needing and empty ones, a repeated text.
    texts = ["plain", "a,b", 'say "hi"', "", "two\nlines", "unused", "plain", "Jos\u00e9"]
    codes = np.random.default_rng(5).choice([0, 1, 2, 3, 4, 6, 7], 600)
    coded = Coded(texts, codes)
    assert coded.tolist() == [texts[k] for k in codes.tolist()] and len(coded) == 600
    columns = {"name": coded} if lone else {"i": np.arange(600), "name": coded, "x": np.linspace(0.0, 1.0, 600)}
    plain = Columns({name: column.tolist() for name, column in columns.items()})
    rows = [dict(zip(plain.columns, row)) for row in table_rows(plain)]
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
    Report(command="demo", summary={}, series=[Series("s", Columns(columns))]).write(tmp_path / "coded")
    assert (tmp_path / "coded" / "s.csv").read_bytes() == reference_csv(tuple(columns), rows)
    assert Columns(columns) == plain


# The error names the earliest row holding a non-finite cell, then the first
# such column in that row, whatever the chunk size.
@pytest.mark.parametrize("chunk_rows", sorted({1, 7, 256, reporting._CHUNK_ROWS}))
@pytest.mark.parametrize("b", [np.array, list], ids=["array", "list"])
def test_earliest_non_finite_row_names_its_column(tmp_path, monkeypatch, b, chunk_rows):
    # Column a comes first, but its inf is in the last row; c's NaN (row 3) comes before b's (row 5).
    rows = reporting._CHUNK_ROWS + 5
    a, nan_b, c = np.zeros(rows), [0.5] * rows, [1.5] * rows
    a[rows - 1], nan_b[5], c[3] = np.inf, np.nan, np.nan
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
    table = Columns({"a": a, "b": b(nan_b), "c": c})
    report = Report(command="demo", summary={}, series=[Series("numbers", table)])
    with pytest.raises(CryptoYieldError, match=r"numbers\.csv: column 'c' holds a non-finite number"):
        report.write(tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("chunk_rows", sorted({1, 7, 256, reporting._CHUNK_ROWS}))
def test_non_finite_cells_in_one_row_name_the_first_column(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk_rows)
    a, b, c = np.zeros(300), [None, 2.5] * 150, ["x"] * 300
    a[299], b[5], c[5] = np.nan, -np.inf, np.float32("nan")
    # Row 5 holds the earliest bad cells, in c and then b; a's NaN comes later although a comes first.
    report = Report(command="demo", summary={}, series=[Series("numbers", Columns({"a": a, "c": c, "b": b}))])
    with pytest.raises(CryptoYieldError, match=r"numbers\.csv: column 'c' holds a non-finite number"):
        report.write(tmp_path / "out")
