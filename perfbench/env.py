"""Process environment of a benchmark run.

Everything here runs before ``numpy`` is imported: the BLAS/OpenMP
pools are pinned to one thread (unpinned OpenBLAS threads widen the
run-to-run spread on a small machine), the checkout's ``src/`` goes on
the import path, and the model cache is pointed at a directory the
benchmark owns. :func:`environment_record` describes the machine and
build every result was measured on.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch state the benchmark owns inside the checkout (models, traces)
STATE = ROOT / ".perfbench"
MODELS = STATE / "models"
TRACES = STATE / "traces"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def bootstrap() -> None:
    """Pin thread pools and the hash seed, expose ``src/``, own the model cache.

    String hashing decides dict and set iteration order, and with it
    how much work some lookups do: sub-millisecond reads and index
    patches moved by up to 2x between hash seeds on identical inputs.
    The interpreter reads ``PYTHONHASHSEED`` only at start-up, so an
    unpinned process re-executes itself once with the seed set. Child
    processes inherit the environment, so a server or probe started
    from here runs under the same settings.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(MODELS)
    os.environ["PYTHONPATH"] = str(SRC)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _commit() -> str:
    """The checkout's commit when it is a git work tree, else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def fingerprint() -> Dict[str, Any]:
    """What decides bit-level float results: interpreter, numpy, BLAS, CPU.

    Recorded view digests are only comparable between runs whose
    fingerprints are equal; SIMD dispatch and BLAS kernels may change
    the last bits of a forward pass on another machine.
    """
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as feats
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in feats.items() if on),
    }


def environment_record() -> Dict[str, Any]:
    """Printed beside every result: where and on what it was measured."""
    record = fingerprint()
    record.pop("cpu_features")
    record.update(
        cpu_count=os.cpu_count(),
        commit=_commit(),
        threads={var: os.environ.get(var) for var in THREAD_VARS},
    )
    return record
