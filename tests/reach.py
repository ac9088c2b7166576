"""List the lines of ``src/qaoalab`` that no test and no pipeline reach.

It runs tier-1 in this process under a ``sys.settrace`` line tracer
that records only the package's own files. Then, traced the same way,
it runs the pipelines: it parses the configs of each benchmark workload
at seed 1 and runs one pass of it, with the package's cached tables
emptied first so that the pass builds every table it reads, and it runs
each CLI command once (``brute-force``, ``solve``, ``sweep``, and
``plot`` of the solve's counts and trace) on a p = 1 config of the
canonical graph. It prints three lists per module: the lines inside
functions that no test reaches, those of them a guard below covers, and
the lines that tests reach but no pipeline does; and then each function
whose every line only tests reach, marked ``(TARGETS)`` when
``perfbench/tracing.py`` wraps it, as those must stay while the
benchmark names them. A line counts as inside a function when it
belongs to the code of a function, a lambda or a comprehension; module
and class bodies run on import and are not listed. A function's lines
include those of the lambdas, comprehensions and functions inside it.
The workloads come from ``perfbench/workloads.py`` and
``perfbench/oracle.py`` and the targets from ``perfbench/tracing.py``,
executed from their source as ``tests/test_bench_targets.py`` does, so
nothing is written under ``perfbench/``; the passes and the CLI write
their artifacts into a temporary directory.

Run from the repository root::

    PYTHONPATH=src python tests/reach.py

Tracing makes tier-1 about 2.5 times slower. The script is a gate: it
exits with pytest's status when a test fails, with 1 when a line inside
a function is reached by no test, and with 0 otherwise. The guards in
``GUARDS`` are the exception: each is named by its module, its function
and the source line it starts with, covers the statement or handler
that line starts, and gives the reason no test reaches it. A guard that
names no line also fails the gate. The lines and functions that only
tests reach are listed for reading, and do not change the status.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qaoalab"
WORKLOADS = ("paper-p5", "sampled-n14", "noisy-p5")
GUARDS = {
    ("harness.py", "main", "except Exception as exc:  # pragma: no cover - last-resort guard"):
        "a fault of the program itself, which no input is known to cause",
}


class LineTracer:
    """Records (file, line) of every line run in the package while it is on."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE) + "/"

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.prefix) else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def code_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and the code inside it that belong to a function, minus each ``def``."""
    found: set[int] = set()
    todo = [code]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            found |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return found


def function_lines(path: Path) -> set[int]:
    """The lines of ``path`` that belong to the code of a function, minus each ``def`` line."""
    return code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))


def functions(path: Path) -> dict[str, set[int]]:
    """Each named function of ``path``, as ``Class.method`` or ``outer.inner``, with its lines."""
    found = {}
    todo = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
    while todo:
        code, prefix = todo.pop()
        for child in code.co_consts:
            if isinstance(child, types.CodeType) and not child.co_name.startswith("<"):
                name = prefix + child.co_name
                if child.co_flags & inspect.CO_OPTIMIZED:
                    found[name] = code_lines(child)
                todo.append((child, name + "."))
    return found


def traced_targets() -> set[tuple[str, str]]:
    """The (module file, function) of each ``TARGETS`` entry of ``perfbench/tracing.py``."""
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return {(f"{module}.py", function) for module, function, _ in namespace["TARGETS"]}


def guarded_lines(path: Path) -> tuple[set[int], list[tuple]]:
    """The lines of ``path`` that a guard covers, and the guards of ``path`` that name no line."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    covered, named = set(), set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            key = (path.name, function.name, text[getattr(node, "lineno", 1) - 1].strip())
            if isinstance(node, (ast.stmt, ast.excepthandler)) and key in GUARDS:
                covered |= set(range(node.lineno, node.end_lineno + 1))
                named.add(key)
    return covered, [key for key in GUARDS if key[0] == path.name and key not in named]


def spans(lines) -> str:
    """Sorted line numbers, with each run of consecutive ones as ``a-b``."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def load_workloads():
    """``perfbench/workloads.py``, executed from source with the ``oracle`` it imports."""
    for name in ("oracle", "workloads"):
        path = ROOT / "perfbench" / f"{name}.py"
        module = types.ModuleType(name)
        module.__file__ = str(path)
        sys.modules[name] = module  # before it runs: a dataclass looks its module up
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return sys.modules["workloads"]


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, so a workload pass builds the tables it reads."""
    for name, module in list(sys.modules.items()):
        if name == "qaoalab" or name.startswith("qaoalab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_cli(qaoalab, scratch: Path) -> None:
    """Each CLI command once, on a p = 1 config of the canonical graph, with its output dropped."""
    config = {"p": 1, "max_evals": 10}
    solve, sweep, out = scratch / "solve.json", scratch / "sweep.json", scratch / "solve"
    solve.write_text(json.dumps(config), encoding="utf-8")
    sweep.write_text(json.dumps({**config, "sweep": {"method": ["powell", "cobyla"]}}),
                     encoding="utf-8")
    commands = [["brute-force", "--graph", "canonical"],
                ["solve", "--config", str(solve), "--out", str(out)],
                ["sweep", "--config", str(sweep), "--out", str(scratch / "sweep")],
                ["plot", "--in", str(out / "counts.json"), "--out", str(scratch / "h.svg")],
                ["plot", "--in", str(out / "trace.csv"), "--out", str(scratch / "t.svg")]]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            if qaoalab.harness.main(command) != 0:
                raise RuntimeError(f"qaoalab {' '.join(command)} failed")


def main() -> int:
    import pytest

    with LineTracer() as tests:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    import qaoalab

    workloads = load_workloads()
    clear_caches()
    with tempfile.TemporaryDirectory() as scratch, LineTracer() as passes:
        for workload in WORKLOADS:
            inputs = workloads.make_inputs(workload, 1)
            configs = {name: qaoalab.harness.parse_config(raw)
                       for name, raw in inputs.configs.items()}
            workloads.run_pass(qaoalab, inputs, configs, Path(scratch, workload),
                               lambda name, fn, *args: fn(*args))
        run_cli(qaoalab, Path(scratch))
    targets = traced_targets()
    print(f"\nlines that tier-1 does not reach, and lines that only tests reach "
          f"(one pass of each of {', '.join(WORKLOADS)} at seed 1, and each CLI command)")
    failed, only_tested = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_lines(path)
        tested = {line for file, line in tests.hits if file == str(path)}
        run = {line for file, line in passes.hits if file == str(path)}
        guarded, stale = guarded_lines(path)
        untested = lines - tested - guarded
        print(f"{path.relative_to(ROOT)}")
        for label, missed in (("no test", untested), ("guarded", (lines - tested) & guarded),
                              ("tests only", (lines & tested) - run)):
            print(f"  {label}: {spans(missed) if missed else '-'}")
        only_tested += [f"{path.relative_to(ROOT)}: {name}"
                        + (" (TARGETS)" if (path.name, name) in targets else "")
                        for name, own in sorted(functions(path).items())
                        if own and own <= tested and not own & run]
        failed += [f"{path.name}: no test reaches line {spans(untested)}"] if untested else []
        failed += [f"{module}: guard in {function} names no line: {line!r}"
                   for module, function, line in stale]
    print("\nfunctions whose every line only tests reach")
    for entry in only_tested or ["-"]:
        print(f"  {entry}")
    for reason in failed:
        print(f"FAIL {reason}")
    if status != 0:
        return int(status)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
