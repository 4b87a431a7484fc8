"""Fixed and per-table cost of one estimator call.

    python3 tools/estimator_cost.py [--calls 200]

Times ``keyrate.analyze_batch`` with the default configuration on one table
at 200 km, its fixed cost per call, and on 512 tables over 0-300 km, one
chunk of a ``scan`` grid. Each figure is the best of 3 repeats of ``--calls``
calls. The package is imported from the ``src`` beside this script, so a copy
of the repository measures its own code. One JSON line goes to stdout: the
seconds per call of each case, the 512-table case per table, and the host.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rfiqkd import ChannelParams, ProtocolConfig, SecurityParams  # noqa: E402
from rfiqkd.channel import expected_tallies  # noqa: E402
from rfiqkd.keyrate import analyze_batch  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per repeat")
    args = parser.parse_args(argv)
    cfg, ch, sec = ProtocolConfig(), ChannelParams(), SecurityParams()
    seconds = {}
    for name, distances in (("one_table_s", [200.0]), ("tables_512_s", np.linspace(0.0, 300.0, 512))):
        batch = expected_tallies(cfg, ch, list(distances))
        analyze_batch(batch, cfg, sec)  # first-call costs stay out of the timing
        runs = timeit.repeat(lambda: analyze_batch(batch, cfg, sec), number=args.calls, repeat=3)
        seconds[name] = min(runs) / args.calls
    print(json.dumps({
        **seconds,
        "per_table_s": seconds["tables_512_s"] / 512,
        "calls": args.calls,
        "repeats": 3,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
