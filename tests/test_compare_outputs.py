from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from compare_outputs import diff_outputs, main  # noqa: E402


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


def test_json_diff_names_the_epsilon_of_each_largest_move(tmp_path, capsys):
    rows = [{"epsilon": 0.5, "dev_q": 1.0, "dev_xi": 1.0},
            {"epsilon": 0.25, "dev_q": 1.0, "dev_xi": 1.0}]
    moved = [{"epsilon": 0.5, "dev_q": 1.0 + 1e-9, "dev_xi": 1.0 + 1e-6},
             {"epsilon": 0.25, "dev_q": 1.0 + 1e-7, "dev_xi": 1.0}]
    a, b = write_sides(tmp_path, {"c.json": json.dumps({"rows": rows, "version": 1.0})},
                       {"c.json": json.dumps({"rows": moved, "version": 2.0})})
    assert main(["--diff", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "    max rel 1.00e-07 at epsilon 0.25  rows[].dev_q" in lines
    assert "    max rel 1.00e-06 at epsilon 0.5  rows[].dev_xi" in lines
    assert "    max rel 5.00e-01  version" in lines
    assert lines[-1].endswith(": c.json version")


def write_sides(root: Path, files_a: dict, files_b: dict) -> tuple[Path, Path]:
    """Two output directories holding the given {name: text} files; ``--diff``
    on them exits as ``main`` returns."""
    for side, files in (("a", files_a), ("b", files_b)):
        (root / side).mkdir()
        for name, text in files.items():
            (root / side / name).write_text(text, encoding="utf-8")
    return root / "a", root / "b"


def test_diff_fails_on_a_file_of_one_side(tmp_path, capsys):
    a, b = write_sides(tmp_path, {"x.csv": "1\n", "y.csv": "2\n"}, {"x.csv": "1\n"})
    assert main(["--diff", str(a), str(b)]) == 1
    assert f"only in {a}: y.csv" in capsys.readouterr().out.splitlines()


def test_diff_fails_on_text_beyond_its_numbers(tmp_path, capsys):
    a, b = write_sides(tmp_path, {"x.stdout": "dev_q: slope=1.0\nexit 0\n"},
                       {"x.stdout": "dev_xi: slope=1.0\nexit 0\n"})
    assert main(["--diff", str(a), str(b)]) == 1
    assert "text differs  x.stdout" in capsys.readouterr().out.splitlines()


def test_diff_passes_a_numbers_only_change(tmp_path, capsys):
    a, b = write_sides(tmp_path, {"x.csv": "eps,dev\n0.5,2.0\n", "y.csv": "same\n"},
                       {"x.csv": "eps,dev\n0.5,2.5\n", "y.csv": "same\n"})
    assert main(["--diff", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "max rel 2.00e-01 (line 2)  x.csv" in lines
    assert lines[-1] == "max rel 2.00e-01 of 2 files compared (1 byte-identical): x.csv line 2"
