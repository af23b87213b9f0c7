"""Locate the checkout this benchmark belongs to and import ``repro`` from it.

The benchmark measures the source tree it ships with, never an installed
copy: ``src/`` of the checkout goes first on ``sys.path`` and the import is
refused when ``repro`` resolves anywhere else.  BLAS is pinned to one
thread before numpy loads; member processes inherit the setting.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout has no importable ``repro`` source tree."""


def import_repro():
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise CheckoutError(f"repro imported from {where}, not from {SRC}")
    return repro


def member_env() -> dict:
    """Environment for member processes: the same source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env
