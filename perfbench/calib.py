"""Machine-speed reference timed next to every measured pass.

On a shared host the same pass can take twice as long for tens of seconds
at a time, and CPU time drifts with wall time, so the slowdown comes from
the machine rather than from waiting. A fixed piece of interpreter work
that does not touch the program slows down with it. Every timed interval
is divided by the reference time measured beside it and multiplied by
``REF_NOMINAL_S``, which reports it in seconds of a machine on which the
reference takes exactly that long. A change to the program moves the
numerator only.

The reference runs in an interpreter of its own that never imports the
program (``Reference``), so nothing the program leaves behind in the
measured process (garbage, caches, library threads) can slow it down.

    python3 perfbench/calib.py     # serve: one time per line read from stdin
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# A fixed scale, not a property of any machine. It is near the reference
# time of a quiet moment on a shared 2-core x86-64 host; the runs recorded
# in perfbench/baseline.json measured 0.06-0.07 s.
REF_NOMINAL_S = 0.05

_ROUNDS = 20000


@dataclass(frozen=True)
class _Rec:
    state: str
    kind: int
    value: float


def _reference_work() -> float:
    # The same mix the program spends its time on: small frozen
    # dataclasses, tuple-keyed dicts, float math and string parsing.
    table: dict[tuple[str, int], float] = {}
    acc = 0.0
    for i in range(_ROUNDS):
        rec = _Rec("Z0" if i & 1 else "X0", i % 3, i * 1e-3)
        key = (rec.state, rec.kind)
        table[key] = table.get(key, 0.0) + math.exp(-rec.value * 1e-3)
        acc += int(str(i)) * 1e-9 + math.sqrt(rec.value)
        parts = f"{i},{rec.state},{rec.kind}".split(",")
        acc += len(parts)
    return acc + sum(table.values())


def reference_seconds() -> float:
    """Wall time of one run of the reference work, in seconds."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def normalized(elapsed_s: float, ref_s: float) -> float:
    """``elapsed_s`` in seconds of the nominal machine."""
    return elapsed_s / ref_s * REF_NOMINAL_S


class Reference:
    """The reference work in a separate interpreter, timed on request.

    The server runs only while it is asked, so it never competes with a
    measured pass for the processors. It exits when its stdin closes, also
    when the process that started it dies.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for _ in sys.stdin:
        print(reference_seconds(), flush=True)


if __name__ == "__main__":
    serve()
