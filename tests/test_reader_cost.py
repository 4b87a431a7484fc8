"""``tools/reader_cost.py`` runs and prints its one JSON line."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reader_cost.py"


def test_the_reader_cost_tool_prints_one_json_line():
    run = subprocess.run([sys.executable, str(TOOL), "--slices", "48"], capture_output=True,
                         text=True, check=True, timeout=120)
    (line,) = run.stdout.splitlines()
    record = json.loads(line)
    assert (record["slices"], record["rows"], record["repeats"]) == (48, 48 * 24, 5)
    assert all(record[case] > 0 for case in ("written_s", "reversed_s", "blank_line_s", "padded_s"))
