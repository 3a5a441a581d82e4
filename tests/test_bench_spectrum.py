from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_spectrum import CASES, main  # noqa: E402


def test_one_round_writes_the_report(tmp_path, capsys):
    out = tmp_path / "BENCH_spectrum.json"
    assert main(["--runs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["runs"] == 1 and report["blas_threads"] == 1
    assert report["cases"].keys() == CASES.keys()
    for row in report["cases"].values():
        assert len(row["samples_ms"]) == 1
        assert 0.0 < row["q1_ms"] == row["median_ms"] == row["q3_ms"] == row["samples_ms"][0]
    assert len(capsys.readouterr().out.splitlines()) == len(CASES)
