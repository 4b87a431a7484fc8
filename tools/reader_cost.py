"""Read time of a tally CSV, on each of the reader's two paths.

    python3 tools/reader_cost.py [--slices 4000]

Writes ``--slices`` tables of expected counts, at distances in 0-300 km and
rotation angles drawn with seed 1, with ``cli.write_tally_csv``, and times
``cli.read_tally_csv`` on that text (``written_s``, the one-copy path) and on
three variants that the line reader takes: each table's rows reversed
(``reversed_s``), a blank line after each table (``blank_line_s``) and every
state label padded with a leading blank (``padded_s``). Each figure is the
best of 5 reads; every case must read back the written tables.
The package is imported from the ``src`` beside this script, so a copy of the
repository measures its own code. One JSON line goes to stdout: the seconds
of each case, the slices and rows read, and the host.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rfiqkd import ChannelParams, ProtocolConfig  # noqa: E402
from rfiqkd.channel import expected_tallies  # noqa: E402
from rfiqkd.cli import read_tally_csv, write_tally_csv  # noqa: E402
from rfiqkd.core import ALL_CELLS  # noqa: E402


def variants(text: str) -> dict[str, str]:
    """``text`` as written and its three line-path variants, by case name."""
    header, *rows = text.splitlines(keepends=True)
    tables = [rows[at : at + len(ALL_CELLS)] for at in range(0, len(rows), len(ALL_CELLS))]
    return {
        "written_s": text,
        "reversed_s": header + "".join("".join(table[::-1]) for table in tables),
        "blank_line_s": header + "".join("".join(table) + "\n" for table in tables),
        # the state label follows the first comma of a sliced row
        "padded_s": header + "".join(row.replace(",", ", ", 1) for row in rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slices", type=int, default=4000, help="tables in the file (at least 2)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(1)
    distances = rng.uniform(0.0, 300.0, args.slices)
    betas = rng.uniform(0.0, 2.0 * math.pi, args.slices)
    batch = expected_tallies(ProtocolConfig(), ChannelParams(), distances, betas, n_total=[10**9] * args.slices)
    out = io.StringIO()
    write_tally_csv(batch, out)
    seconds = {}
    for name, text in variants(out.getvalue()).items():
        if not np.array_equal(read_tally_csv(io.StringIO(text)).counts, batch.counts):
            raise SystemExit(f"{name}: the file does not read back as written")
        runs = timeit.repeat(lambda: read_tally_csv(io.StringIO(text)), number=1, repeat=5)
        seconds[name] = min(runs)
    print(json.dumps({
        **seconds,
        "slices": args.slices,
        "rows": args.slices * len(ALL_CELLS),
        "repeats": 5,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
