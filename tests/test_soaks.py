"""The soak harness: goldens, the table printer and the one CLI.

Every robustness soak runs here with the exact kwargs of its CI smoke
run (``SOAKS[name].smoke``).  Its golden records every window/arm/cell
value, every gate verdict and the evidence counters; comparison is on
the golden's keys, so a row may gain a column, never lose or change
one.  Regenerate deliberately with
``pytest tests/test_soaks.py --update-golden``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import Scale
from repro.bench.__main__ import SOAKS, Soak, main
from repro.bench.fleet import run_fleet_soak
from tests.test_golden_regression import GOLDEN_DIR

SRC = str(Path(repro.__file__).parents[1])


@pytest.fixture(scope="module", params=sorted(SOAKS))
def smoke(request):
    soak = SOAKS[request.param]
    return request.param, soak.run(**soak.smoke)


def assert_covers(path: str, got, want) -> None:
    """``got`` holds every key of ``want`` with an equal value."""
    if isinstance(want, float):
        assert isinstance(got, (int, float)), f"{path}: {got!r} vs {want!r}"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            f"{path}: drift {got!r} != golden {want!r}"
        )
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{path}: length {len(got)} != golden {len(want)}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            assert_covers(f"{path}[{i}]", g, w)
    elif isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: {got!r} is not a dict"
        missing = sorted(set(want) - set(got))
        assert not missing, f"{path}: lost keys {missing}"
        for key in want:
            assert_covers(f"{path}.{key}", got[key], want[key])
    else:
        assert got == want, f"{path}: drift {got!r} != golden {want!r}"


def test_soak_smoke_golden(smoke, update_golden: bool) -> None:
    name, result = smoke
    view = result.to_dict()
    view["gates"] = {g.name: g.passed for g in result.gates}
    # JSON round trip: tuples become lists, int keys become strings.
    got = json.loads(json.dumps(view, sort_keys=True))
    path = GOLDEN_DIR / f"soak_{name}_smoke.json"
    if update_golden:
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture rewritten: {path.name}")
    assert result.acceptance, result.table()
    assert_covers(name, got, json.loads(path.read_text()))


def test_table_columns_align(smoke) -> None:
    """Header and rows start every column at the same offset, however
    long a row name is (``detector-on:recovered`` once overflowed a
    fixed-width column and shifted the rest of its row)."""
    _, result = smoke
    lines = result.table().splitlines()
    header, rows = lines[1], lines[2 : 2 + len(result.rows)]
    assert header.split() == list(result.columns)
    # Every column but the first is right-aligned: its header ends
    # where each of its cells ends.
    ends = [m.end() for m in re.finditer(r"\S+", header)][1:]
    for line in rows:
        assert len(line) == len(header), f"{line!r} vs {header!r}"
        for end in ends:
            assert line[end - 1] != " " and line[end : end + 1] in ("", " "), (
                f"column ending at {end} misaligned in {line!r}"
            )


def test_failing_gate_fails_the_soak_and_the_cli(monkeypatch, capsys, tmp_path):
    # A negative tolerance leaves recovery nothing to pass.
    tiny = Scale(num_superblocks=32, num_ops=24_000)
    result = run_fleet_soak(num_shards=3, num_ops=24_000, scale=tiny, tolerance=-1.0)
    assert not result.acceptance
    assert not result.gate("p99_recovered").passed
    assert result.gate("placement_clean").passed
    assert "FAIL  p99_recovered" in result.table()
    assert result.table().endswith("acceptance: FAIL")

    monkeypatch.setitem(SOAKS, "fleet", Soak(lambda **kw: result, {}))
    out = tmp_path / "fleet.json"
    assert main(["soak", "fleet", "--smoke", "--json", str(out)]) == 1
    assert "acceptance: FAIL" in capsys.readouterr().out
    written = json.loads(out.read_text())
    assert written["acceptance"] is False
    assert written["gates"]["p99_recovered"]["passed"] is False


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


@pytest.mark.parametrize("name", sorted(SOAKS))
def test_cli_help_runs_clean_under_runtime_warning_errors(name: str) -> None:
    """``python -m`` warns (an error here) when the module it runs was
    already imported by its package's ``__init__``."""
    out = _python("-m", "repro.bench", "soak", name, "--help")
    assert out.returncode == 0, out.stderr
    assert "--smoke" in out.stdout


def test_importing_repro_bench_loads_no_soak_module() -> None:
    soaks = ["__main__", "latency", "fleet", "overload", "failslow", "ablation", "soak"]
    script = (
        "import sys, repro.bench\n"
        f"print([m for m in {soaks!r} if 'repro.bench.' + m in sys.modules])\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
