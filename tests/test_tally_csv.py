"""Error messages of the tally CSV reader, pinned byte for byte."""
import io
import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import cli
from rfiqkd.core import ALL_CELLS, ObservedTallies, TallyBatch, TallyError

HEADER = "state,basis,intensity,sent,detected,errors"
ROWS = [f"{s.value},{b.value},{k.value},100,10,1" for s, b, k in ALL_CELLS]


def tally_text(rows, header=HEADER):
    return header + "\n" + "\n".join(rows) + "\n"


def sliced_text(slices):
    rows = [f"{i},{row}" for i, slice_rows in enumerate(slices) for row in slice_rows]
    return tally_text(rows, "slice," + HEADER)


def read_error(text):
    with pytest.raises(TallyError) as info:
        cli.read_tally_csv(io.StringIO(text))
    return str(info.value)


def replaced(rows, index, row):
    rows = list(rows)
    rows[index] = row
    return rows


def test_valid_file_is_read():
    (table,) = cli.read_tally_csv(io.StringIO(tally_text(ROWS))).counts
    assert table[0, 0] == 100


def test_interleaved_slices_crlf_and_blank_lines(tmp_path):
    tables = [
        [f"{s.value},{b.value},{k.value},{100 * n},{10 * n},{n}" for s, b, k in ALL_CELLS]
        for n in (1, 2, 3)
    ]
    # slice 7 first, the other two interleaved row by row
    rows = [f"7,{row}" for row in tables[2]]
    for zero, two in zip(tables[0], tables[1]):
        rows += [f"2,{two}", "", f"0,{zero}"]
    path = tmp_path / "crlf.csv"
    path.write_bytes(tally_text(rows, "slice," + HEADER).replace("\n", "\r\n").encode())
    with path.open() as handle:
        slices = cli.read_tally_csv(handle)
    assert slices.counts.tolist() == [
        cli.read_tally_csv(io.StringIO(tally_text(t))).counts[0].tolist() for t in tables
    ]


@pytest.mark.parametrize(
    "text", ["", "\n", "a", "ab\r\ncd\rx\n\nlong line\x0cz ", "x\r\n\r\n", "a" * 9 + "\n"]
)
def test_block_reads_cut_lines_as_splitlines(text):
    for block in range(1, len(text) + 2):
        blocks = list(cli._line_blocks(io.StringIO(text), block))
        assert all(blocks)
        assert [line for lines in blocks for line in lines] == text.splitlines(keepends=True)


def test_bad_header():
    assert read_error("state,basis,kind,sent,detected,errors\n") == (
        "line 1: unexpected header 'state,basis,kind,sent,detected,errors'"
    )


def test_wrong_column_count():
    text = tally_text([ROWS[0], "Z0,Z,nu,100,10"])
    assert read_error(text) == "line 3: expected 6 columns, got 5"


def test_bad_cell_label():
    assert read_error(tally_text(["Q0,Z,mu,100,10,1"])) == "line 2: bad cell label (Q0,Z,mu)"


def test_a_label_longer_than_the_tokenizer_keeps():
    rows = replaced(ROWS, 2, "Z0,Z,omega   X,100,10,1")
    assert read_error(tally_text(rows)) == "line 4: bad cell label (Z0,Z,omega   X)"


def test_non_integer_count():
    text = tally_text([ROWS[0], "Z0,Z,nu,100,1.5,1"])
    assert read_error(text) == "line 3: column detected: not an integer: '1.5'"


def test_non_integer_slice():
    text = tally_text(["a,Z0,Z,mu,100,10,1"], "slice," + HEADER)
    assert read_error(text) == "line 2: column slice: not an integer: 'a'"


# a no-break space is a valid blank that keeps the block from the
# tokenizer, so the line reader reads it; without one the block is tried first
@pytest.mark.parametrize("blank", ["", "\xa0"])
@pytest.mark.parametrize("column,value", [("slice", "1_000"), ("slice", "٣"), ("sent", "1_000"),
                                          ("detected", "٣"), ("errors", "+٣"), ("sent", "Ǿ5"),
                                          ("slice", "ݡ")])
def test_only_ascii_digits_make_an_integer(blank, column, value):
    rows = [f"0,{row}" for row in ROWS]
    fields = dict(zip(["slice"] + HEADER.split(","), rows[3].split(",")), **{column: value})
    rows[3] = ",".join(fields.values())
    text = tally_text([blank + rows[0]] + rows[1:], "slice," + HEADER)
    assert read_error(text) == f"line 5: column {column}: not an integer: '{value}'"


@pytest.mark.parametrize("blank", ["", "\xa0"])
def test_negative_slice(blank):
    text = sliced_text([ROWS]).replace("\n0,Y0,X,nu", f"\n{blank}-1,Y0,X,nu")
    assert read_error(text) == "line 24: column slice: '-1' is negative"


def test_process_rejects_a_negative_slice(tmp_path):
    path = tmp_path / "negative.csv"
    path.write_text(tally_text([f"-1,{row}" for row in ROWS], "slice," + HEADER))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["process", str(path)], out=out, err=err) == cli.EXIT_ERROR
    assert err.getvalue() == "tally file error: line 2: column slice: '-1' is negative\n"
    assert out.getvalue() == ""


def test_process_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma, which np.unique and np.char import, adds about 1.4 MiB of memory
    path = tmp_path / "two.csv"
    path.write_text(sliced_text([ROWS, ROWS]))
    code = (
        "import io, sys\nimport numpy\n"
        "print('numpy.ma' in sys.modules)\n"  # numpy 1.x imports it with numpy itself
        "from rfiqkd import cli\n"
        "cli.main(['process', sys.argv[1]], out=io.StringIO(), err=io.StringIO())\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    before, after = done.stdout.split()
    assert after == before


def test_duplicate_cell():
    assert read_error(tally_text(ROWS + [ROWS[5]])) == "line 26: duplicate cell (Z0,...)"


def test_missing_cell():
    text = sliced_text([ROWS, ROWS[:-1]])
    assert read_error(text) == (
        "slice 1: expected 24 cells, got 23; missing "
        "[(<StateLabel.Y0: 'Y0'>, <BasisLabel.X: 'X'>, <IntensityKind.OMEGA: 'omega'>)]"
    )


def test_errors_above_detected_names_slice_and_cell():
    bad = replaced(ROWS, 6, "Z1,Z,mu,100,10,20")
    assert read_error(sliced_text([ROWS, bad])) == (
        "slice 1: cell (Z1,Z,mu): need 0 <= errors <= detected <= sent, "
        "got sent=100 detected=10 errors=20"
    )


@pytest.mark.parametrize("body", ["", "\n  \n"])
def test_no_rows(body):
    assert read_error(HEADER + "\n" + body) == "line 2: no tally rows"


@pytest.mark.parametrize(
    "column,value",
    [("sent", 2**70), ("sent", 2**62 + 1), ("detected", -1), ("errors", 2**64)],
)
def test_counts_outside_the_budget(column, value):
    fields = {"sent": 100, "detected": 10, "errors": 1, column: value}
    row = f"Z0,Z,mu,{fields['sent']},{fields['detected']},{fields['errors']}"
    assert read_error(tally_text([ROWS[0], row])) == (
        f"line 3: column {column}: '{value}' is outside [0, {2**62}]"
    )


def test_budget_edge_is_accepted():
    rows = [f"{s.value},{b.value},{k.value},{2**62},{2**62},{2**62}" for s, b, k in ALL_CELLS]
    (table,) = cli.read_tally_csv(io.StringIO(tally_text(rows))).counts
    assert table[-1, 2] == 2**62


def test_process_rejects_count_beyond_budget(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(tally_text(replaced(ROWS, 0, f"Z0,Z,mu,{2**70},10,1")))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["process", str(path)], out=out, err=err) == cli.EXIT_ERROR
    assert err.getvalue() == (
        f"tally file error: line 2: column sent: '{2**70}' is outside [0, {2**62}]\n"
    )


def test_sent_must_match_between_bases():
    bad = replaced(ROWS, 4, "Z0,X,nu,99,10,1")
    assert read_error(sliced_text([ROWS, bad])) == (
        "slice 1: pair (Z0,nu): sent differs between the Z and X rows, 100 != 99"
    )


def test_merged_slices_beyond_the_budget_exit_one(tmp_path):
    big = 2**61 + 1
    rows = replaced(ROWS, 0, f"Z0,Z,mu,{big},10,1")
    rows = replaced(rows, 3, f"Z0,X,mu,{big},10,1")
    path = tmp_path / "big.csv"
    path.write_text(sliced_text([rows, rows, rows]))
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["process", str(path), "--groups", "1"], out=out, err=err)
    assert code == cli.EXIT_ERROR
    assert err.getvalue() == (
        f"tally file error: group 0: cell (Z0,Z,mu): summed sent={3 * big} exceeds the "
        f"64-bit count budget {2**62}\n"
    )
    assert out.getvalue() == ""


def test_process_rejects_a_file_without_pulses(tmp_path):
    path = tmp_path / "silent.csv"
    path.write_text(tally_text([row.replace(",100,10,1", ",0,0,0") for row in ROWS]))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["process", str(path)], out=out, err=err) == cli.EXIT_ERROR
    assert err.getvalue() == "tally file error: no pulses sent: the Z rows' sent counts sum to 0\n"
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# the reader against a per-line reference

FIELD_NAMES = ("sent", "detected", "errors")
ROW_OF = {(s.value, b.value, k.value): row for row, (s, b, k) in enumerate(ALL_CELLS)}


def reference_int(raw):
    """Blanks, an optional sign and ASCII digits."""
    text = raw.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or not all("0" <= char <= "9" for char in digits):
        raise ValueError(raw)
    return int(text)


def reference_read(text):
    """Read ``text`` one line at a time: the count tables, or the error message."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return "line 1: empty tally file"
    header = [col.strip() for col in lines[0].split(",")]
    if header not in (HEADER.split(","), ["slice"] + HEADER.split(",")):
        return f"line 1: unexpected header {','.join(header)!r}"
    sliced = len(header) == 7
    offset = 1 if sliced else 0
    tables = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            if not line.strip():
                continue
            return f"line {lineno}: expected {len(header)} columns, got {len(parts)}"
        slice_index = 0
        if sliced:
            try:
                slice_index = reference_int(parts[0])
            except ValueError:
                return f"line {lineno}: column slice: not an integer: {parts[0].strip()!r}"
            if slice_index < 0:
                return f"line {lineno}: column slice: {parts[0].strip()!r} is negative"
        labels = tuple(part.strip() for part in parts[offset : offset + 3])
        if labels not in ROW_OF:
            return f"line {lineno}: bad cell label ({','.join(labels)})"
        counts = []
        for raw, column in zip(parts[offset + 3 :], FIELD_NAMES):
            try:
                value = reference_int(raw)
            except ValueError:
                return f"line {lineno}: column {column}: not an integer: {raw.strip()!r}"
            if not 0 <= value <= 2**62:
                return f"line {lineno}: column {column}: {raw.strip()!r} is outside [0, {2**62}]"
            counts.append(value)
        cells = tables.setdefault(slice_index, {})
        if ROW_OF[labels] in cells:
            return f"line {lineno}: duplicate cell ({labels[0]},...)"
        cells[ROW_OF[labels]] = counts
    if not tables:
        return "line 2: no tally rows"
    result = []
    for slice_index in sorted(tables):
        cells = tables[slice_index]
        missing = [key for row, key in enumerate(ALL_CELLS) if row not in cells]
        if missing:
            return f"slice {slice_index}: expected 24 cells, got {len(cells)}; missing {missing}"
        try:
            table = ObservedTallies(np.array([cells[row] for row in range(24)], dtype=np.int64))
        except TallyError as exc:
            return f"slice {slice_index}: {exc}"
        result.append(table.counts.tolist())
    return result


class ShortReads:
    """A handle with only ``read(n)``, which hands out at most ``size`` characters."""

    def __init__(self, text, size):
        self.text, self.size, self.at = text, size, 0

    def read(self, n):
        n = min(n, self.size)
        piece = self.text[self.at : self.at + n]
        self.at += len(piece)
        return piece


def block_read(text, size=1 << 16):
    try:
        return cli.read_tally_csv(ShortReads(text, size)).counts.tolist()
    except TallyError as exc:
        return str(exc)


def valid_rows(rng, slice_indices):
    """Rows of one valid table per slice index, ``slice`` column first."""
    rows = []
    for index in slice_indices:
        for state in ("Z0", "Z1", "X0", "Y0"):
            for kind in ("mu", "nu", "omega"):
                sent = rng.randrange(0, 10**rng.randrange(1, 19))
                for basis in ("Z", "X"):
                    detected = rng.randrange(0, sent + 1)
                    errors = rng.randrange(0, detected + 1)
                    rows.append([str(index), state, basis, kind, str(sent), str(detected), str(errors)])
    return rows


FIELD_VALUES = [
    "", " ", "x", "1.5", "1e3", "-1", "+7", " 7 ", "\t7\t", "0", "-0", "007", "٣", "1_000",
    "#1", "1#", '"1"', "\x007", "7\x00", "\xa07", "7\x1c", "7 ", "\x85", "Ǿ", "5Ǿ", "ः",
    str(2**62), str(2**62 + 1), str(2**63 - 1), str(2**63), str(2**64), str(-(2**63) - 1),
    "Z0", "Z1", "X0", "Y0", "Z", "X", "mu", "nu", "omega", " omega ", "\tmu", "mu\x00", "Q0",
    "omega   X", "omegaomega", "Z0" + " " * 20, '"Z0"', "#Z0", "a,b", "7\n", "7\r",
]
BLANK_LINES = ["", " ", "\t", "  \t ", "\x0c", "\xa0"]


@st.composite
def tally_texts(draw):
    """A valid sliced or unsliced file, mutated a few times."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sliced = draw(st.booleans())
    if sliced:
        n_slices = draw(st.integers(1, 5))
        indices = draw(
            st.lists(
                st.integers(0, 40) | st.sampled_from([2**62, 2**63 - 1, 2**63, 10**30]),
                min_size=n_slices, max_size=n_slices, unique=True,
            )
        )
    else:
        indices = [0]
    rows = valid_rows(rng, indices)
    if draw(st.booleans()):
        rng.shuffle(rows)
    lines = [",".join(row if sliced else row[1:]) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field"] * 3 + ["pad", "blank", "duplicate", "drop", "columns"]))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if kind == "field" and lines:
            parts = lines[at].split(",")
            column = draw(st.integers(0, len(parts) - 1))
            parts[column] = draw(st.sampled_from(FIELD_VALUES) | st.integers(0, 2**62).map(str))
            lines[at] = ",".join(parts)
        elif kind == "pad" and lines and lines[at].count(",") >= 5:
            # blanks keep a label valid; a NUL or a long tail does not
            parts = lines[at].split(",")
            column = len(parts) - draw(st.integers(4, 6))
            label = parts[column]
            parts[column] = draw(st.sampled_from(["", " ", "\t"])) + label + draw(
                st.sampled_from(["", " ", " " * (8 - len(label)), " " * (8 - len(label)) + "X",
                                 "\x00", " \x00"])
            )
            lines[at] = ",".join(parts)
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(BLANK_LINES)))
        elif kind == "duplicate" and lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif kind == "drop" and lines:
            del lines[at]
        elif kind == "columns" and lines:
            parts = lines[at].split(",")
            lines[at] = ",".join(parts[:-1] if draw(st.booleans()) else parts + ["1"])
    header = ("slice," if sliced else "") + HEADER
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([header] + lines)
    return text + end if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(tally_texts(), st.integers(1, 200) | st.just(1 << 16))
def test_reader_matches_the_per_line_reference(text, size):
    assert block_read(text, size) == reference_read(text)


def long_file(n_slices):
    rows = valid_rows(random.Random(n_slices), range(n_slices))
    return tally_text([",".join(row) for row in rows], "slice," + HEADER)


def test_a_tokenizer_warning_sends_the_block_to_the_line_reader(monkeypatch):
    # as numpy 1.x does, warn and parse "1.0" through a float
    loadtxt = np.loadtxt

    def lenient(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([line.replace(",1.0,", ",1,") for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)
    text = tally_text(replaced(ROWS, 2, "Z0,Z,omega,1.0,0,0"))
    assert read_error(text) == "line 4: column sent: not an integer: '1.0'"


@pytest.fixture
def no_line_reader(monkeypatch):
    def unexpected(*args):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(cli, "_read_lines", unexpected)


@pytest.mark.parametrize("blank", ["", " ", "\t", "\r"])
def test_blank_lines_between_tables_read_as_the_reference(blank):
    lines = long_file(20).splitlines(keepends=True)
    for at in range(len(lines) - 1, 1, -24):
        lines.insert(at, blank + "\n")
    text = "".join(lines)
    tables = block_read(text)
    assert tables == reference_read(text)
    assert len(tables) == 20


def written(batch):
    out = io.StringIO()
    cli.write_tally_csv(batch, out)
    return out.getvalue()


def test_canonical_files_take_the_block_path(no_line_reader):
    batch = TallyBatch(valid_tables(random.Random(4000), 4000))
    # 4000 slices written in order, cells in ALL_CELLS order, LF line ends:
    # the shape and size of the benchmark's replay input; every block of
    # such a file is appended whole
    for tables in (batch, TallyBatch(batch.counts[:2]), TallyBatch(batch.counts[:1])):
        again = cli.read_tally_csv(io.StringIO(written(tables)))
        assert np.array_equal(again.counts, tables.counts)


@pytest.mark.parametrize("n_tables", [1, 2, 17])
def test_the_writer_matches_the_per_row_format(n_tables):
    counts = cli.read_tally_csv(io.StringIO(long_file(n_tables))).counts
    prefix = "slice," if n_tables > 1 else ""
    rows = [
        f"{prefix and f'{index},'}{s.value},{b.value},{k.value},{sent},{detected},{errors}"
        for index, table in enumerate(counts.tolist())
        for (s, b, k), (sent, detected, errors) in zip(ALL_CELLS, table)
    ]
    assert written(TallyBatch(counts)) == tally_text(rows, prefix + HEADER)


def valid_tables(rng, n_tables):
    """``valid_rows`` of slices 0 to n - 1 as an (n, 24, 3) count array."""
    counts = np.empty((n_tables, len(ALL_CELLS), 3), dtype=np.int64)
    for row in valid_rows(rng, range(n_tables)):
        counts[int(row[0]), ROW_OF[tuple(row[1:4])]] = [int(value) for value in row[4:]]
    return counts


@pytest.mark.parametrize("slices", [(3, 5, 9), (7,), (0,), (0, 1)])
def test_a_written_batch_reads_back_with_its_slices(slices):
    counts = valid_tables(random.Random(len(slices)), len(slices))
    again = cli.read_tally_csv(io.StringIO(written(TallyBatch(counts, slices))))
    assert list(again.slices) == list(slices)
    assert np.array_equal(again.counts, counts)


@st.composite
def written_texts(draw):
    """A file that ``write_tally_csv`` wrote, of slices with a drawn first
    index and gaps, LF or CRLF line ends, with at most one mutation at or
    next to the first line of a table."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_tables = draw(st.integers(1, 8) | st.integers(60, 80))
    first = draw(st.integers(0, 40) | st.sampled_from([2**62, 2**63 - 3]))
    gaps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 7]), min_size=n_tables - 1,
                         max_size=n_tables - 1))
    slices = [first + sum(gaps[:at]) for at in range(n_tables)]
    lines = written(TallyBatch(valid_tables(rng, n_tables), slices)).splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    table = draw(st.integers(0, n_tables))
    at = min(max(24 * table + draw(st.sampled_from([-1, 0, 1])), 0), len(rows) - 1)
    kind = draw(st.sampled_from(["none", "label", "count", "blank", "repeat"]))
    if kind in ("label", "count"):
        parts = rows[at].rstrip("\n").split(",")
        if kind == "label":
            column = len(parts) - draw(st.integers(4, 6))
            parts[column] = draw(st.sampled_from(["Q0", "z0", "Y", "omeg", "mu ", ""]))
        else:
            parts[len(parts) - draw(st.integers(1, 3))] = str(2**62 + 1)
        rows[at] = ",".join(parts) + "\n"
    elif kind == "blank":
        rows.insert(at, draw(st.sampled_from(BLANK_LINES)) + "\n")
    elif kind == "repeat" and table < n_tables:
        # an earlier table, its rows out of order or not, written again
        # whole at the table boundary
        earlier = draw(st.integers(0, table))
        copy = rows[24 * earlier : 24 * earlier + 24]
        if draw(st.booleans()):
            rows[24 * earlier : 24 * earlier + 24] = copy[::-1]
        rows[24 * table : 24 * table] = copy
    text = header + "".join(rows)
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(written_texts(), st.integers(1, 200) | st.just(1 << 16))
def test_written_files_read_as_the_per_line_reference(text, size):
    assert block_read(text, size) == reference_read(text)


# reads of 100 characters hand the reader one table per block
@pytest.mark.parametrize("size", [100, 1 << 16])
@pytest.mark.parametrize("shuffled", [False, True])
def test_a_table_written_again_in_a_later_block_is_a_duplicate(size, shuffled):
    rows = written(TallyBatch(valid_tables(random.Random(3), 80))).splitlines(keepends=True)
    table = rows[25:49]
    if shuffled:
        rows[25:49] = table[::-1]  # the block of slice 1 then goes to the line reader
    text = "".join(rows + table)
    assert block_read(text, size) == reference_read(text)
    assert reference_read(text) == f"line {len(rows) + 1}: duplicate cell (Z0,...)"


def test_only_the_block_of_a_shuffled_table_is_read_line_by_line(monkeypatch):
    rows = written(TallyBatch(valid_tables(random.Random(31), 4000))).splitlines(keepends=True)
    at = 1 + 24 * 2000  # after the header, slice 2000's rows, reversed
    rows[at : at + 24] = rows[at : at + 24][::-1]
    shuffled = "".join(rows[at : at + 24])
    text = "".join(rows)
    read_lines, append_tables = cli._read_lines, cli._append_tables
    calls = []

    def lines_read(lines, *args):
        calls.append("".join(lines))
        return read_lines(lines, *args)

    def tables_appended(*args):
        calls.append(append_tables(*args))
        return calls[-1]

    monkeypatch.setattr(cli, "_read_lines", lines_read)
    monkeypatch.setattr(cli, "_append_tables", tables_appended)
    assert block_read(text) == reference_read(text)
    # every block is offered to _append_tables; only the one that holds
    # slice 2000 is refused, and it alone is read line by line
    read = [call for call in calls if isinstance(call, str)]
    assert len(read) == 1 and shuffled in read[0]
    refused = calls.index(read[0]) - 1
    assert calls == [True] * refused + [False, read[0]] + [True] * (len(calls) - refused - 2)
    assert len(calls) > 40  # the file is about 50 reads of 64k characters


@pytest.mark.parametrize("sliced", [False, True])
def test_every_label_is_read_in_any_row_order(sliced):
    rng = random.Random(14)
    rows = valid_rows(rng, [3, 0, 1] if sliced else [0])
    rng.shuffle(rows)
    text = tally_text([",".join(row if sliced else row[1:]) for row in rows],
                      "slice," + HEADER if sliced else HEADER)
    tables = block_read(text)
    assert tables == reference_read(text)
    assert len(tables) == (3 if sliced else 1)


def labelled(column, label):
    """A valid unsliced file whose fourth row has ``label`` in label column
    ``column``, and that row's labels as an error message names them."""
    rows = valid_rows(random.Random(column), [0])
    rows[3][1 + column] = label
    return tally_text([",".join(row[1:]) for row in rows]), ",".join(
        part.strip() for part in rows[3][1:4]
    )


def assert_bad_label_named(column, label):
    """Both readers name the bad label in a full file and in a file of its
    row alone, where no duplicate cell could send the block to the line
    reader."""
    text, labels = labelled(column, label)
    alone = tally_text([text.splitlines()[4]])
    for text, lineno in ((text, 5), (alone, 2)):
        assert block_read(text) == reference_read(text) == f"line {lineno}: bad cell label ({labels})"


# one byte off a label of the same column
@pytest.mark.parametrize("column,label", [
    (0, "Z2"), (0, "z0"), (0, "X1"), (0, "Y1"), (0, "Z00"), (1, "Y"), (1, "x"), (1, "ZZ"),
    (2, "mU"), (2, "nv"), (2, "omegA"), (2, "omeg"), (2, "omegas"),
])
def test_a_near_miss_label_is_named(column, label):
    assert_bad_label_named(column, label)


# the tokenizer keeps a label column's first 8 characters
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("label", ["omegaXYZ", "omegaXYZW", "Z0Z0Z0Z0", "Z0Z0Z0Z0Z", "mu      X"])
def test_a_label_of_8_characters_or_more_is_named(column, label):
    assert_bad_label_named(column, label)


# another column's label is no label here
@pytest.mark.parametrize("column,label", [
    (0, "Z"), (0, "X"), (0, "mu"), (1, "Z0"), (1, "X0"), (1, "mu"), (1, "omega"),
    (2, "Z"), (2, "Y0"),
])
def test_a_label_of_another_column_is_named(column, label):
    assert_bad_label_named(column, label)


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("pad", [(" ", ""), ("", " "), ("\t", "\t"), ("", " " * 6), (" " * 7, "")])
def test_a_label_padded_with_blanks_is_valid(column, pad):
    label = valid_rows(random.Random(column), [0])[3][1 + column]
    text, _ = labelled(column, pad[0] + label + pad[1])
    tables = block_read(text)
    assert tables == reference_read(text)
    assert len(tables) == 1


def test_a_slice_across_a_block_boundary_is_read_whole():
    text = long_file(120)
    before, after = text[: 1 << 16].splitlines(), text[1 << 16 :].splitlines()
    # the first 64k-character read ends inside a row of slice 64, between two others
    assert before[-2].startswith("64,") and (before[-1] + after[0]).startswith("64,")
    assert after[1].startswith("64,")
    tables = block_read(text)
    assert tables == reference_read(text)
    assert len(tables) == 120


def test_a_duplicate_cell_in_a_later_block_is_named():
    lines = long_file(120).splitlines(keepends=True)
    # a copy of slice 0's first row, about 106k characters in: in the second read
    lines.insert(2500, lines[1])
    text = "".join(lines)
    assert block_read(text) == reference_read(text) == "line 2501: duplicate cell (Z0,...)"


def test_the_batch_read_is_read_only_and_apart_from_the_buffer(monkeypatch):
    buffers = []
    append_tables = cli._append_tables

    def keep_buffer(lines, sliced, flat, start_of):
        buffers.append(flat)
        return append_tables(lines, sliced, flat, start_of)

    monkeypatch.setattr(cli, "_append_tables", keep_buffer)
    batch = cli.read_tally_csv(io.StringIO(long_file(120)))
    assert len(batch) == 120 and batch.slices == list(range(120))
    assert buffers and all(flat is buffers[0] for flat in buffers)
    assert not np.shares_memory(batch.counts, np.frombuffer(buffers[0], dtype=np.int64))
    with pytest.raises(ValueError):
        batch.counts[0, 0, 0] = 5


class CountingReads(ShortReads):
    """``ShortReads`` that counts the characters it hands out."""

    def __init__(self, text):
        super().__init__(text, 1 << 16)
        self.handed_out = 0

    def read(self, n):
        piece = super().read(n)
        self.handed_out += len(piece)
        return piece


def traced_peak(text):
    """Bytes allocated at the peak of reading ``text`` and still held after
    it, and the tables read."""
    cli.read_tally_csv(io.StringIO(tally_text(ROWS)))  # lazy imports and first-call caches
    handle = CountingReads(text)
    tracemalloc.start()
    try:
        tables = cli.read_tally_csv(handle)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert handle.handed_out == len(text)
    return peak, held, tables


def test_a_read_only_handle_is_read_whole_within_two_count_buffers():
    text = long_file(4000)
    peak, held, tables = traced_peak(text)
    assert len(tables) == 4000
    # beyond the tables it returns, the reader holds at most two buffers the
    # size of all counts: its int64 buffer and the slice-ordered copy. On
    # long_file(4000) this was 2.49 MB above the 3.18 MB held (Python 3.11,
    # numpy 2.4); a reader that keeps both buffers while it builds the
    # tables, as the per-line reader did, takes 5.10 MB
    count_buffer = 4000 * len(ALL_CELLS) * 3 * 8
    assert peak - held <= 2 * count_buffer


class Discard:
    """A text sink that keeps only the count of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_a_batch_is_written_one_table_at_a_time():
    text = long_file(4000)
    batch = cli.read_tally_csv(io.StringIO(text))
    cli.write_tally_csv(TallyBatch(batch.counts[:2]), Discard())  # first-call caches
    sink = Discard()
    tracemalloc.start()
    try:
        cli.write_tally_csv(batch, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(text)
    # all 4000 tables as Python ints at once take about 18 MB (Python 3.11);
    # one table's take a few kB
    assert peak <= 256 * 1024
