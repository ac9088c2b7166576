"""The benchmark's entry points into qaoalab still work.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by looking it up
on its qaoalab module, and a name that is gone stops a ``--trace 1``
run with an ``AttributeError``. ``perfbench/workloads.py`` sets each
workload up through ``parse_config`` and one ``evaluate_qaoa`` call,
and checks ``evaluate_qaoa`` against ``perfbench/oracle.py``; a change
of their call shape would fail the whole run. These tests read the
files without changing them, so a rename, a deletion or a new call
shape in the package shows up here.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import qaoalab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    # exec the source rather than import it, so no bytecode is written beside it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    missing = []
    for mod, func, _ in targets:
        module = importlib.import_module(f"qaoalab.{mod}")
        if not callable(getattr(module, func, None)):
            missing.append(f"qaoalab.{mod}.{func}")
    assert not missing, f"perfbench TARGETS name missing functions: {missing}"


@pytest.mark.parametrize("workload", ["paper-p5", "sampled-n14", "noisy-p5"])
def test_benchmark_set_up_and_oracle_check_pass(monkeypatch, workload):
    # the calls perfbench/run.py makes into qaoalab before its timed passes
    for name in ("oracle", "workloads"):
        path = TRACING.parent / f"{name}.py"
        module = types.ModuleType(name)
        module.__file__ = str(path)
        # registered before it runs: workloads imports oracle, and a
        # dataclass looks its module up in sys.modules
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    workloads = sys.modules["workloads"]
    inputs = workloads.make_inputs(workload, 1)
    configs = {name: qaoalab.harness.parse_config(raw) for name, raw in inputs.configs.items()}
    workloads.warm_up(qaoalab, inputs, configs)
    assert workloads.check_oracle(qaoalab, inputs) == []
