"""``tools/estimator_cost.py`` runs and prints its one JSON line."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "estimator_cost.py"


def test_the_estimator_cost_tool_prints_one_json_line():
    run = subprocess.run([sys.executable, str(TOOL), "--calls", "2"], capture_output=True, text=True,
                         check=True, timeout=120)
    (line,) = run.stdout.splitlines()
    record = json.loads(line)
    assert (record["calls"], record["repeats"]) == (2, 3)
    assert record["one_table_s"] > 0 and record["tables_512_s"] > 0
    assert record["per_table_s"] == record["tables_512_s"] / 512
