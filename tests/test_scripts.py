"""The scripts under scripts/ and the benchmark's smoke run work end to end
against the current library."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import mtcpp
from mtcpp.harness import mc_estimate
from mtcpp.lf import two_type_compare

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(mtcpp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_lf_law_check_script(tmp_path, lf1):
    params = tmp_path / "lf.json"
    params.write_text(lf1.to_json())
    proc = _run_script(
        "lf_law_check.py", str(params),
        "--seed", "3", "--samples", "400", "--horizons", "4", "--n-max", "2",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "horizon  statistic        rows  max|z|"
    statistics = ["a_stationary", "b_stationary:1", "b_stationary:2"]
    assert len(lines) == 1 + len(statistics)
    rows = mc_estimate("stationary", lf1, 4, 400, 3, n_max=2)
    for line, statistic in zip(lines[1:], statistics):
        zs = [abs(r.z_score) for r in rows if r.statistic == statistic and r.z_score is not None]
        assert line.split() == ["4", statistic, "3", f"{max(zs):.3f}"]


def test_two_type_grid_script():
    proc = _run_script(
        "two_type_grid.py",
        "--g", "0.3", "--p", "0.5", "--h1", "0.5", "--m", "1.0", "--n-max", "2",
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["g", "p", "h1", "m", "n", "pA", "pB1_s", "pB1_a", "pB2_s", "pB2_a"]
    want = two_type_compare(0.3, 0.5, 0.5, 1.0, 2).rows
    assert len(rows) == 1 + len(want)
    for got, row in zip(rows[1:], want):
        assert got[:4] == ["0.3", "0.5", "0.5", "1.0"]
        assert [float(x) for x in got[4:]] == [float(x) for x in row]
    assert "largest combined dominance gap" in proc.stderr


def test_bench_smoke():
    # bench/tracer.py wraps package functions by module attribute name, so
    # moving or renaming one of them fails this run
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: PASS"
