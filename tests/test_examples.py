"""Smoke tests: every script in examples/ runs end-to-end, and so does
the README snippet no example covers.

Each example is imported as a module and its ``main()`` executed with
its workload knobs shrunk to a tiny device/trace so the whole file
stays CI-cheap.  The point is wiring, not numbers: an example that
crashes on a renamed API fails here before a reader finds out.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import Scale, run_sweep
from repro.bench.figures import FIGURES, shrink
from repro.ssd import Geometry
from repro.workloads.adversarial import SCENARIOS

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

TINY_SCALE = Scale(num_superblocks=128, num_ops=4000)


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cap_make_trace(module, num_ops: int):
    original = module.make_trace
    module.make_trace = lambda workload, nvm_bytes, **kw: original(
        workload, nvm_bytes, **{**kw, "num_ops": num_ops}
    )


def test_examples_directory_is_covered():
    """Every example script has a smoke test below."""
    scripts = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    covered = {
        "quickstart",
        "carbon_planning",
        "engine_comparison",
        "fdp_interface_tour",
        "multi_tenant",
        "trace_replay",
    }
    assert scripts == covered


def test_quickstart(capsys):
    module = load_example("quickstart")
    module.NUM_OPS = 4000
    module.main()
    out = capsys.readouterr().out
    assert "DLWA" in out


def test_carbon_planning(capsys):
    module = load_example("carbon_planning")
    module.main()
    out = capsys.readouterr().out
    assert "CO2e" in out


def test_fdp_interface_tour(capsys):
    module = load_example("fdp_interface_tour")
    module.main()
    out = capsys.readouterr().out
    assert "FDP configuration" in out


def test_engine_comparison(capsys):
    module = load_example("engine_comparison")
    module.GEOMETRY = Geometry(pages_per_block=8, num_superblocks=64)
    cap_make_trace(module, 4000)
    module.main()
    out = capsys.readouterr().out
    assert "kangaroo" in out
    assert "ZNS" in out


def test_multi_tenant(capsys):
    module = load_example("multi_tenant")
    module.DEFAULT_SCALE = TINY_SCALE
    module.OPS_PER_TENANT = 4000
    cap_make_trace(module, 4000)
    module.main()
    out = capsys.readouterr().out
    assert "tenant" in out


def test_trace_replay(capsys, tmp_path, monkeypatch):
    module = load_example("trace_replay")
    # Keep the generated trace tiny and off the shared tmpdir.
    original_trace = module.twitter_cluster12_trace
    module.twitter_cluster12_trace = (
        lambda *a, **kw: original_trace(8000, 3000, seed=7)
    )
    original_build = module.build_experiment
    module.build_experiment = lambda **kw: original_build(
        **{**kw, "scale": TINY_SCALE}
    )
    monkeypatch.setattr(
        module.tempfile, "gettempdir", lambda: str(tmp_path)
    )
    module.main()
    out = capsys.readouterr().out
    assert "interval DLWA tail" in out


def test_readme_scenario_matrix():
    """README's scenario-matrix loop, on a tiny device."""
    points = shrink(FIGURES["overload_matrix"], 64, 3000)
    cells = run_sweep(points, workers=1, on_error="record")
    # Row i replays SCENARIOS[i], and every cell's name says which.
    assert [cell.name for cell in cells] == [
        f"overload_matrix[{point.index}] kvcache {point.arm} [{SCENARIOS[point.index]}]"
        for point in points
    ]
    for cell in cells:
        assert cell.summary_row().startswith(cell.name)


@pytest.mark.parametrize(
    "name",
    ["quickstart", "carbon_planning", "engine_comparison",
     "fdp_interface_tour", "multi_tenant", "trace_replay"],
)
def test_examples_import_clean(name):
    """Importing an example must not run the workload (main guard)."""
    module = load_example(name)
    assert hasattr(module, "main")
