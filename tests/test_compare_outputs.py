from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from compare_outputs import diff_outputs  # noqa: E402


def test_json_diff_reports_each_key_path(tmp_path, capsys):
    old = {"schema_version": 1, "tolerances": {"solve_residual": 6e-17},
           "mismatch": 0.0274, "rows": [{"x": 1.0}, {"x": 2.0}], "case": "1"}
    new = {"schema_version": 1, "tolerances": {"solve_residual": 2e-16},
           "mismatch": 0.0274 * (1 + 1e-9), "rows": [{"x": 1.0}, {"x": 2.0 * (1 + 1e-7)}],
           "case": "1"}
    for side, report in (("a", old), ("b", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "oracle.json").write_text(json.dumps(report), encoding="utf-8")
    assert diff_outputs(tmp_path / "a", tmp_path / "b") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("max rel 7.00e-01 (line 1)")
    per_key = {line.split()[-1]: float(line.split()[2]) for line in lines[1:]}
    assert per_key.keys() == {"tolerances.solve_residual", "mismatch", "rows[].x"}
    assert per_key["mismatch"] == 1.0e-9
    assert per_key["rows[].x"] == 1.0e-7
