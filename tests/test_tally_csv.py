"""Error messages of the tally CSV reader, pinned byte for byte."""
import io

import pytest

from rfiqkd import cli
from rfiqkd.core import ALL_CELLS, TallyError

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
    (tallies,) = cli.read_tally_csv(io.StringIO(tally_text(ROWS)))
    assert tallies.cell(*ALL_CELLS[0]).sent == 100


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
    assert slices == [cli.read_tally_csv(io.StringIO(tally_text(t)))[0] for t in tables]


@pytest.mark.parametrize(
    "text", ["", "\n", "a", "ab\r\ncd\rx\n\nlong line\x0cz ", "x\r\n\r\n", "a" * 9 + "\n"]
)
def test_block_reads_cut_lines_as_splitlines(text):
    for block in range(1, len(text) + 2):
        assert list(cli._lines(io.StringIO(text), block)) == text.splitlines(keepends=True)


def test_bad_header():
    assert read_error("state,basis,kind,sent,detected,errors\n") == (
        "line 1: unexpected header 'state,basis,kind,sent,detected,errors'"
    )


def test_wrong_column_count():
    text = tally_text([ROWS[0], "Z0,Z,nu,100,10"])
    assert read_error(text) == "line 3: expected 6 columns, got 5"


def test_bad_cell_label():
    assert read_error(tally_text(["Q0,Z,mu,100,10,1"])) == "line 2: bad cell label (Q0,Z,mu)"


def test_non_integer_count():
    text = tally_text([ROWS[0], "Z0,Z,nu,100,1.5,1"])
    assert read_error(text) == "line 3: column detected: not an integer: '1.5'"


def test_non_integer_slice():
    text = tally_text(["a,Z0,Z,mu,100,10,1"], "slice," + HEADER)
    assert read_error(text) == "line 2: column slice: not an integer: 'a'"


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
    (tallies,) = cli.read_tally_csv(io.StringIO(tally_text(rows)))
    assert tallies.cell(*ALL_CELLS[-1]).errors == 2**62


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
