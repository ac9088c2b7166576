"""Rewrite the golden artifact set from the current code.

Each entry of ``matrix.json`` is a raw config that ``run_sweep`` runs
into a directory of its own name; the files it writes (counts.json,
trace.csv and summary.json per cell, sweep.csv per entry) are the
golden set that ``tests/test_golden.py`` compares byte for byte.
``environment.json`` records the interpreter, numpy and BLAS that wrote
them, and the kernels they ran (``KERNELS``): the OpenBLAS core and
numpy's dispatched SIMD set. Exact-mode energies can differ in the last
bits on another CPU, BLAS build or kernel, so a golden failure names
the kernels when they differ from the recorded ones.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

It prints each file it moved, added or removed, from the bytes before
and after the rewrite; say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import ctypes
import json
import platform
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
MATRIX = GOLDEN / "matrix.json"
KERNELS = ("openblas_core", "simd")  # the entries of environment.json a failure names


def matrix() -> dict[str, dict]:
    return json.loads(MATRIX.read_text(encoding="utf-8"))


def artifact_files(root: Path) -> list[str]:
    """The artifacts of every matrix entry under ``root``, as sorted relative paths."""
    return sorted(path.relative_to(root).as_posix()
                  for name in matrix() for path in (root / name).rglob("*") if path.is_file())


def run_matrix(dest: Path) -> None:
    """Run every matrix entry into ``dest/<name>``."""
    from qaoalab.harness import parse_config, run_sweep

    for name, raw in matrix().items():
        run_sweep(parse_config(raw), dest / name)


def openblas_core() -> str | None:
    """The core whose kernels numpy's bundled OpenBLAS runs, or None when no such library is found."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "system": platform.system(),
        "openblas_core": openblas_core(),
        "simd": config["SIMD Extensions"].get("found", []),
    }


def kernel_difference(recorded: dict) -> str:
    """'' when the ``KERNELS`` entries of ``recorded`` are the current ones, else both sets."""
    now = environment()
    if all(recorded.get(key) == now[key] for key in KERNELS):
        return ""
    written = ", ".join(f"{key} {recorded.get(key)!r}" for key in KERNELS)
    running = ", ".join(f"{key} {now[key]!r}" for key in KERNELS)
    return f"; the golden files were written with {written}, this run has {running}"


def changes(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """'moved', 'added' or 'removed' and the relative path of each file whose bytes changed."""
    return [f"{'added' if rel not in before else 'removed' if rel not in after else 'moved'} {rel}"
            for rel in sorted(before.keys() | after.keys()) if before.get(rel) != after.get(rel)]


def main() -> int:
    before = {rel: (GOLDEN / rel).read_bytes() for rel in artifact_files(GOLDEN)}
    for name in matrix():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
    run_matrix(GOLDEN)
    (GOLDEN / "environment.json").write_text(
        json.dumps(environment(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    after = {rel: (GOLDEN / rel).read_bytes() for rel in artifact_files(GOLDEN)}
    for line in changes(before, after):
        print(line)
    print(f"wrote {len(after)} files under {GOLDEN}, {len(changes(before, after))} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
