"""Which functions under ``src/repro`` does anything run?

    PYTHONPATH=src python benchmarks/entry_coverage.py [--dumps DIR] [--no-run]

Runs every entry point CI runs (each soak's and the figure sweep's
``--smoke`` CLI, ``iobench --smoke``, ``simtime_lint``,
``perfbench/run.py --smoke``, ``examples/*.py``, the README's
command-line tools), then tier-1 and the slow tier, each in its own
interpreter under a ``sys.setprofile`` collector that records every
Python function entered.  Every function defined under ``src/repro``
is then *entry* (an entry point reached it), *tests* (only a test did)
or *none*.  The script writes that verdict for every function no entry
point reaches to ``benchmarks/results/entry_coverage.txt`` and exits 1
iff a function is called by nothing and :data:`ALLOW` does not name
it, :data:`ALLOW` names a function that is gone or now called, or more
than :data:`MAX_TEST_ONLY` functions are *tests*.

``--readme`` runs only the README's command-line tools, unprofiled, in
a temporary directory, and exits 1 if one fails.

A *none* verdict is per definition, so it cannot see duck typing: a
method that shared code reaches on one engine (``self.soc.hit_ratio``,
``getattr(policy, "stats_dict", None)``, ``shard.backend.*``) but that
no run happened to reach on another engine reads as *none* there.
Before deleting a *none* method, grep for its name on such receivers;
if a shared caller reads it, the fix is a test through that caller
(e.g. ``HybridCache.stats_dict()`` for every ``soc_engine``), not a
deletion and not an :data:`ALLOW` entry.

How the collector reaches every process: a generated
``sitecustomize.py`` on ``PYTHONPATH`` imports this module and calls
:func:`install` in every interpreter the stages start (perfbench's
workers included); forked pool workers re-arm with a
``multiprocessing.util.Finalize`` dump, since they leave through
``os._exit`` and never run ``atexit``.  The count-based perf guards
(``tests/test_*_perf_guard.py``) install their own ``sys.setprofile``,
so they run with the collector off and it is re-installed around every
other test.  Profiled, the entry points take ~5 min and tier-1 ~17 min
on a 2-core x86 box.

``--dumps DIR`` keeps the raw per-process dumps; ``--no-run`` re-reads
them instead of running anything.

``--options`` runs nothing and answers the same question for
configuration, by AST alone: every field of a ``src/repro`` dataclass
named ``*Config``/``*Spec``/``*Timings``/``*Costs``, every defaulted
constructor parameter of :data:`CONSTRUCTORS` and every class
:data:`VALUE_CLASSES` lists is a settable value, and it is *set*
when code under :data:`SETTERS` passes it (a keyword or positional
argument to the class, a string dict key, or ``dataclasses.replace``),
*tests* when only ``tests/`` does, and *none* otherwise.  It writes ``benchmarks/results/options.txt`` and
exits 1 iff a value is not *set* and :data:`OPTIONS_ALLOW` does not
name it, or :data:`OPTIONS_ALLOW` names one that is gone or now set.
A dict key credits every value of that name, so the verdict can only
err towards *set*.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPORT = Path(__file__).resolve().parent / "results" / "entry_coverage.txt"
OPTIONS_REPORT = REPORT.with_name("options.txt")
DUMP_ENV = "REPRO_ENTRY_COVERAGE_DIR"

TRACER = "perfbench/tracer.py binds it by name"
PROTOCOL = "implicit protocol dunder"
ABSTRACT = "abstract base method every subclass overrides"

#: Ratchet: at most this many functions only a test calls.  Lower it
#: when a change gives one an entry point or deletes it; never raise it.
MAX_TEST_ONLY = 136

#: Functions nothing calls that stay, each with its reason.
ALLOW: Dict[str, str] = {
    "repro.cache.admission:AdmissionPolicy._decide": ABSTRACT,
    "repro.core.policies:PlacementPolicy.handle_for": ABSTRACT,
    "repro.core.policies:PlacementPolicy.setup": ABSTRACT,
    "repro.ssd.ftl:Ftl.read": TRACER,
    "repro.ssd.recovery:OobRecord.__repr__": PROTOCOL,
    "repro.ssd.superblock:Superblock.__repr__": PROTOCOL,
}

#: Dataclasses whose fields are options, by class-name suffix.
CONFIG_SUFFIXES = ("Config", "Spec", "Timings", "Costs")
#: Classes whose defaulted constructor parameters are options.
CONSTRUCTORS = (
    "SimulatedSSD",
    "FdpAwareDevice",
    "PlacementHandleAllocator",
    "SmallObjectCache",
    "LargeObjectCache",
    "KangarooCache",
    "NemoCache",
    "MultiQueueScheduler",
)
#: Options whose values are classes: each subclass of the named base
#: is one value, set where it is constructed.
VALUE_CLASSES = {"CacheConfig.admission": "AdmissionPolicy"}
#: Where a setter counts: anything but ``tests/``.
SETTERS = ("src", "benchmarks", "perfbench", "examples")

ITEM3 = "ROADMAP item 3 sweeps it"
ITEM4 = "ROADMAP item 4 sweeps it as a gap-1 candidate"
ITEM5 = "ROADMAP item 5 turns the NAND timings"
ITEM7 = "fault shape ROADMAP item 7's composed-fault fuzz injects"
TUNED = "threshold tests tune on purpose"
SHRUNK = "engine shape tests shrink to reach a path in few ops"
UNIT = "a unit test sets it to pin the arithmetic"
SEED = "seed a property test draws"

#: Options nothing outside ``tests/`` sets that stay, each with its reason.
OPTIONS_ALLOW: Dict[str, str] = {
    "CacheConfig.kangaroo_log_fraction": SHRUNK,
    "CacheConfig.kangaroo_move_threshold": SHRUNK,
    "CacheConfig.metadata_flush_interval": SHRUNK,
    "CacheConfig.nemo_index_ways": SHRUNK,
    "CacheConfig.nemo_region_pages": SHRUNK,
    "CacheConfig.nemo_reinsert_fraction": SHRUNK,
    "CacheConfig.small_item_threshold": "the paper's SOC/LOC routing threshold",
    "EnergyCosts.erase_uj": UNIT,
    "EnergyCosts.idle_watts": UNIT,
    "EnergyCosts.program_uj": UNIT,
    "EnergyCosts.read_uj": UNIT,
    "FaultConfig.erase_fail_rate": ITEM7,
    "FaultConfig.latency_spike_ns": ITEM7,
    "FaultConfig.latency_spike_rate": ITEM7,
    "FdpAwareDevice.max_read_retries": TUNED,
    "FleetConfig.breaker_cooldown_ops": TUNED,
    "FleetConfig.breaker_failure_threshold": TUNED,
    "FleetConfig.max_retries": TUNED,
    "FleetConfig.retry_backoff_ns": TUNED,
    "FleetReplayConfig.max_backlog_ns": TUNED,
    "FleetReplayConfig.think_ns": TUNED,
    "GovernorConfig.brownout_backlog_ns": TUNED,
    "GovernorConfig.dwell_ops": TUNED,
    "GovernorConfig.recover_backlog_ns": TUNED,
    "GovernorConfig.retry_budget": TUNED,
    "GovernorConfig.retry_window_ops": TUNED,
    "GovernorConfig.set_bucket_capacity": TUNED,
    "GovernorConfig.set_tokens_per_ms": TUNED,
    "GovernorConfig.shed_backlog_ns": TUNED,
    "LatentErrorConfig.correctable_penalty_ns": ITEM7,
    "LatentErrorConfig.soft_retry_limit": ITEM7,
    "MonitorConfig.degraded_spare_pct": TUNED,
    "MonitorConfig.gray_streak_polls": TUNED,
    "MonitorConfig.latency_min_samples": TUNED,
    "MonitorConfig.retire_spare_pct": TUNED,
    "NandTimings.erase_ns": ITEM5,
    "NandTimings.parallelism": ITEM5,
    "NandTimings.program_ns": ITEM5,
    "NandTimings.read_ns": ITEM5,
    "NandTimings.transfer_ns": ITEM5,
    "ReplayConfig.max_backlog_ns": TUNED,
    "ReplayConfig.think_ns": TUNED,
    "SchedConfig.queue_depth": TUNED,
    "SchedConfig.segment_pages": TUNED,
    "ScrubConfig.min_free_superblocks": TUNED,
    "ScrubConfig.refresh_threshold": TUNED,
    "ScrubConfig.retire_after_failures": TUNED,
    "SimulatedSSD.gc_reserve_superblocks": ITEM3,
    "SimulatedSSD.gc_victim_sample": ITEM4,
    "SimulatedSSD.power_seed": SEED,
}


# ----------------------------------------------------------------------
# the collector (runs inside every profiled interpreter)
# ----------------------------------------------------------------------

_seen: Set[object] = set()


def _collect(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _dump() -> None:
    sys.setprofile(None)
    src = str(SRC)
    rows = sorted(
        {(c.co_filename, c.co_firstlineno) for c in _seen if c.co_filename.startswith(src)}
    )
    if not rows:
        return
    fd, _ = tempfile.mkstemp(suffix=".json", dir=os.environ[DUMP_ENV])
    with os.fdopen(fd, "w") as fh:
        json.dump(rows, fh)


def _after_fork(_obj: object) -> None:
    import multiprocessing.util

    _seen.clear()  # the parent dumps what it saw before the fork
    multiprocessing.util.Finalize(None, _dump, exitpriority=0)


def install() -> None:
    """Start collecting in this interpreter; dump at exit."""
    import multiprocessing.util

    atexit.register(_dump)
    multiprocessing.util.register_after_fork(_seen, _after_fork)
    threading.setprofile(_collect)
    sys.setprofile(_collect)


def run_pytest(args: List[str]) -> int:
    """``pytest.main(args)`` with the collector off for the perf guards."""
    import pytest
    from hypothesis import settings

    # A profiled example runs several times slower than its deadline.
    settings.register_profile("entry_coverage", deadline=None)
    settings.load_profile("entry_coverage")

    class Collector:
        @pytest.hookimpl(wrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            guard = item.path.name.endswith("_perf_guard.py")
            sys.setprofile(None if guard else _collect)
            try:
                return (yield)
            finally:
                sys.setprofile(_collect)

    return pytest.main(args, plugins=[Collector()])


# ----------------------------------------------------------------------
# the stages
# ----------------------------------------------------------------------


def _python(*args: str) -> List[str]:
    return [sys.executable, *args]


def _pytest(*args: str) -> List[str]:
    run = "import sys, entry_coverage; sys.exit(entry_coverage.run_pytest(sys.argv[1:]))"
    return _python("-c", run, "-p", "no:cacheprovider", *args)


def readme_commands(tmp: Path) -> List[Tuple[str, List[str]]]:
    """(label, argv) for the README's command-line tools, in order,
    with every file they read or write under ``tmp`` (the cachebench
    config, written here, is 2k ops on 64 superblocks)."""
    dev, slow = str(tmp / "dev.pkl"), str(tmp / "slow.pkl")
    config = tmp / "experiment.json"
    config.write_text(json.dumps({"workload": {"num_ops": 2000}, "device": {"superblocks": 64}}))
    nvme = [
        ["create", dev, "--superblocks", "512", "--fdp"],
        ["id-ctrl", dev],
        ["fdp-stats", dev],
        ["fdp-events", dev, "--last", "10"],
        ["smart", dev],
        ["scrub-status", dev],
        ["power-cut", dev],
        ["recover", dev],
        ["format", dev],
        ["create", slow, "--superblocks", "512", "--slow-die", "1:8"],
        ["failslow-status", slow],
    ]
    return [
        (f"nvme {args[0]}", _python("-m", "repro.tools.nvme", *args)) for args in nvme
    ] + [
        (
            "tracegen",
            _python(
                "-m", "repro.tools.tracegen", "twitter", str(tmp / "trace.csv.gz"),
                "--ops", "20000", "--profile",
            ),
        ),
        (
            "cachebench",
            _python(
                "-m", "repro.tools.cachebench", "--config", str(config),
                "--out", str(tmp / "result.json"),
            ),
        ),
    ]


def run_readme() -> int:
    """Run :func:`readme_commands` once, unprofiled; 1 if one fails."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory(prefix="readme_") as tmp:
        for label, argv in readme_commands(Path(tmp)):
            print(f"[readme] {label}: {' '.join(argv[1:])}", flush=True)
            if subprocess.run(argv, cwd=tmp, env=env).returncode != 0:
                print(f"README command failed: {label}")
                return 1
    return 0


def stages() -> List[Tuple[str, str, List[str]]]:
    """(group, label, argv) for everything the sweep runs, in order."""
    from repro.bench.__main__ import SOAKS

    entry = [
        ("entry", f"soak {name}", _python("-m", "repro.bench", "soak", name, "--smoke"))
        for name in sorted(SOAKS)
    ]
    entry += [
        ("entry", "sweep", _python("-m", "repro.bench", "sweep", "--smoke", "--workers", "2")),
        ("entry", "iobench", _python("-m", "repro.tools.iobench", "--smoke")),
        ("entry", "simtime_lint", _python("-m", "repro.tools.simtime_lint")),
        ("entry", "perfbench", _python("perfbench/run.py", "--smoke")),
    ]
    entry += [
        ("entry", path.name, _python(str(path.relative_to(ROOT))))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    readme = Path(tempfile.mkdtemp(prefix="entry_coverage_readme_"))
    entry += [("entry", label, argv) for label, argv in readme_commands(readme)]
    return entry + [
        ("tests", "tier-1", _pytest("-q", "-m", "not slow", "tests")),
        ("tests", "slow", _pytest("-q", "-m", "slow", "tests")),
    ]


def run_stages(dumps: Path) -> None:
    """Run every stage profiled; exit if one fails."""
    site = Path(tempfile.mkdtemp(prefix="entry_coverage_site_"))
    (site / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import entry_coverage\n"
        "del sys.path[0]\n"
        "entry_coverage.install()\n"
    )
    failed = []
    for group, label, argv in stages():
        (dumps / group).mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
        env[DUMP_ENV] = str(dumps / group)
        print(f"[{group}] {label}: {' '.join(argv[1:])}", flush=True)
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        if proc.returncode != 0:
            print(proc.stdout[-4000:])
            failed.append(label)
    if failed:
        raise SystemExit(f"stages failed under the collector: {', '.join(failed)}")


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------


def functions() -> Dict[Tuple[str, int], str]:
    """(file, first line incl. decorators) -> ``module:qualname`` for
    every ``def`` under ``src/repro`` (methods and nested ones too)."""
    found: Dict[Tuple[str, int], str] = {}

    def walk(node: ast.AST, prefix: str, path: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line)] = f"{module}:{name}"
                walk(child, name + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)
            else:
                walk(child, prefix, path, module)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        walk(ast.parse(path.read_text()), "", str(path), module)
    return found


def called(dumps: Path, group: str) -> Set[Tuple[str, int]]:
    hits: Set[Tuple[str, int]] = set()
    for dump in (dumps / group).glob("*.json"):
        hits.update((path, line) for path, line in json.loads(dump.read_text()))
    return hits


def test_count(marker: str) -> int:
    """How many tests ``pytest -m marker`` collects."""
    argv = _python("-m", "pytest", "-p", "no:cacheprovider", "--collect-only", "-m", marker)
    out = subprocess.run(
        argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True
    ).stdout
    return int(re.search(r"(\d+)(?:/\d+)? tests? collected", out).group(1))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "repro").rglob("*.py"))


# ----------------------------------------------------------------------
# the options
# ----------------------------------------------------------------------


def settable() -> Tuple[Dict[str, List[str]], List[str]]:
    """``(positional, options)``: class name -> the names a call binds
    by position, and every option — ``Class.name`` for each field a
    config dataclass accepts (inherited ones too) and each defaulted
    ``__init__`` parameter of :data:`CONSTRUCTORS`, and
    ``Class.name=Sub`` for each subclass :data:`VALUE_CLASSES` names."""
    own: Dict[str, List[str]] = {}
    bases: Dict[str, List[str]] = {}
    positional: Dict[str, List[str]] = {}
    options: List[str] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
            if node.name.endswith(CONFIG_SUFFIXES):
                own[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ]
            elif node.name in CONSTRUCTORS:
                init = next(
                    s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"
                )
                args = init.args.posonlyargs + init.args.args
                positional[node.name] = [a.arg for a in args[1:]]
                defaulted = args[len(args) - len(init.args.defaults) :] + [
                    a for a, d in zip(init.args.kwonlyargs, init.args.kw_defaults) if d is not None
                ]
                options += [f"{node.name}.{a.arg}" for a in defaulted]

    def fields(name: str) -> List[str]:  # a dataclass binds inherited fields first
        return [f for base in bases[name] if base in own for f in fields(base)] + own[name]

    for name in own:
        positional[name] = list(dict.fromkeys(fields(name)))
        options += [f"{name}.{field}" for field in positional[name]]
    for option, base in VALUE_CLASSES.items():
        options += [f"{option}={name}" for name, parents in bases.items() if base in parents]
    return positional, sorted(options)


def setters(positional: Dict[str, List[str]], options: List[str]) -> Dict[str, Set[str]]:
    """option -> the ``path`` (``path[key]``, ``path[replace]``) of
    every file under :data:`SETTERS` or ``tests/`` that sets it."""
    by_name: Dict[str, List[str]] = {}
    values: Dict[str, str] = {}
    for option in options:
        if "=" in option:
            values[option.split("=")[1]] = option
        else:
            by_name.setdefault(option.split(".", 1)[1], []).append(option)
    found: Dict[str, Set[str]] = {option: set() for option in options}

    def credit(option: str, where: str) -> None:
        if option in found:
            found[option].add(where)

    for top in SETTERS + ("tests",):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            rel = str(path.relative_to(ROOT))
            stack = [(ast.parse(path.read_text()), None)]
            while stack:
                node, cls = stack.pop()
                inner = node.name if isinstance(node, ast.ClassDef) else cls
                stack.extend((child, inner) for child in ast.iter_child_nodes(node))
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            for option in by_name.get(key.value, ()):
                                credit(option, f"{rel}[key]")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee in ("replace", "dict"):
                    kind = "replace" if callee == "replace" else "key"
                    for kw in node.keywords:
                        for option in by_name.get(kw.arg, ()):
                            credit(option, f"{rel}[{kind}]")
                    continue
                if callee in values:
                    credit(values[callee], rel)
                if callee == "cls":
                    callee = cls
                if callee in positional:
                    for name, arg in zip(positional[callee], node.args):
                        if not isinstance(arg, ast.Starred):
                            credit(f"{callee}.{name}", rel)
                elif getattr(getattr(func, "value", None), "id", None) in positional:
                    callee = func.value.id  # a classmethod constructor, ``Cls.make(...)``
                for kw in node.keywords:
                    credit(f"{callee}.{kw.arg}", rel)
    return found


def options_main() -> int:
    positional, options = settable()
    found = setters(positional, options)
    verdict = {}
    for option, where in found.items():
        outside = sorted(w for w in where if not w.startswith("tests/"))
        verdict[option] = (
            ("set", outside) if outside else ("tests", []) if where else ("none", [])
        )
    counts = {v: sum(1 for x, _ in verdict.values() if x == v) for v in ("set", "tests", "none")}
    width = max(len(option) for option in options)
    lines = [
        "# settable values under src/repro and who sets them outside tests/:",
        "# 'tests' = only a test sets it, 'none' = nothing does",
        f"# values: {len(options)}   " + "   ".join(f"{v}: {n}" for v, n in counts.items()),
    ]
    for option in options:
        kind, outside = verdict[option]
        note = ", ".join(outside) if kind == "set" else kind
        if option in OPTIONS_ALLOW:
            note += f"   [{OPTIONS_ALLOW[option]}]"
        lines.append(f"{option:<{width}}  {note}")
    OPTIONS_REPORT.write_text("\n".join(lines) + "\n")

    unset = [o for o in options if verdict[o][0] != "set" and o not in OPTIONS_ALLOW]
    stale = [o for o in OPTIONS_ALLOW if o not in verdict or verdict[o][0] == "set"]
    print("\n".join(line for line in lines if line.startswith("#")))
    for option in unset:
        print(f"set by {verdict[option][0]}: {option}")
    if unset:
        print("make each a constant, or delete the mode it selects with its branch")
    for option in sorted(stale):
        print(f"allow-list entry is gone or set: {option}")
    return 1 if unset or stale else 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dumps", type=Path, help="keep the raw dumps here")
    parser.add_argument("--no-run", action="store_true", help="re-read --dumps, run nothing")
    parser.add_argument(
        "--options", action="store_true", help="judge config values by who sets them instead"
    )
    parser.add_argument(
        "--readme", action="store_true", help="only run the README's command-line tools"
    )
    args = parser.parse_args(argv)
    if args.options:
        return options_main()
    if args.readme:
        return run_readme()
    if args.no_run and args.dumps is None:
        parser.error("--no-run needs --dumps")
    dumps = args.dumps or Path(tempfile.mkdtemp(prefix="entry_coverage_"))
    if not args.no_run:
        run_stages(dumps)

    defs = functions()
    entry, tests = called(dumps, "entry"), called(dumps, "tests")
    verdict = {
        key: "entry" if key in entry else "tests" if key in tests else "none" for key in defs
    }
    names = {name: key for key, name in defs.items()}
    counts = {v: sum(1 for x in verdict.values() if x == v) for v in ("entry", "tests", "none")}

    lines = [
        "# functions under src/repro that no entry point reaches:",
        "# 'tests' = only a test calls it, 'none' = nothing does",
        f"# src/repro lines: {src_lines()}   functions: {len(defs)}   "
        + "   ".join(f"{v}: {n}" for v, n in counts.items()),
        f"# tests: tier-1 {test_count('not slow')}   slow {test_count('slow')}",
    ]
    for key, name in sorted(defs.items(), key=lambda kv: kv[1]):
        if verdict[key] != "entry":
            reason = f"   [{ALLOW[name]}]" if name in ALLOW else ""
            lines.append(f"{verdict[key]:<6} {name}{reason}")
    REPORT.write_text("\n".join(lines) + "\n")

    uncalled = [n for k, n in defs.items() if verdict[k] == "none" and n not in ALLOW]
    stale = [n for n in ALLOW if n not in names or verdict[names[n]] != "none"]
    print("\n".join(line for line in lines if line.startswith("#")))
    for name in sorted(uncalled):
        print(f"called by nothing: {name}")
    if uncalled:
        print("test each through its shared caller, or delete it if no caller reads it")
    for name in sorted(stale):
        print(f"allow-list entry is gone or called: {name}")
    grown = counts["tests"] > MAX_TEST_ONLY
    if grown:
        print(
            f"{counts['tests']} functions only a test calls, over MAX_TEST_ONLY = "
            f"{MAX_TEST_ONLY}: give each new one an entry point or delete it"
        )
    return 1 if uncalled or stale or grown else 0


if __name__ == "__main__":
    raise SystemExit(main())
