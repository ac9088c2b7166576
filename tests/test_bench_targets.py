"""The traced benchmark names only functions that exist.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by looking it up
on its qaoalab module, and a name that is gone stops a ``--trace 1``
run with an ``AttributeError``. This test reads the file without
changing it, so a rename or a deletion in the package shows up here.
"""

import importlib
from pathlib import Path

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
