"""The benchmark's set-up: locate the package in the checkout, import it, warm it up.

Run as a script, it performs one set-up and exits; `run.py` times several
such processes from spawn to exit and reports their median as `setup_s`.
The warm-up makes one `linprog` call and one tiny depth-2 extraction, so
lazy imports inside scipy and numpy are paid here and not by the first
timed operation.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS runs single-threaded: the load is one closed-loop client with one
# operation in flight, and the baseline was measured on a 2-vCPU VM.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    """The checkout holds no `src/netpeel` to benchmark."""


def pin_threads() -> None:
    """Pin BLAS threads; must run before numpy is first imported."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import `netpeel` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "netpeel" / "__init__.py").is_file():
        raise MissingPackage(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import netpeel.cli

    found = Path(netpeel.cli.__file__).resolve()
    if SRC not in found.parents:
        raise MissingPackage(f"netpeel imported from {found}, not from {SRC}")
    return netpeel.cli


def warm_up() -> None:
    """Pay import and first-call costs outside the timed loop."""
    import_package()
    import numpy as np

    from netpeel.extract2 import extract_two_layer
    from netpeel.oracle.generate import generate_two_layer
    from netpeel.oracle.query import as_oracle
    from netpeel.verify import intersects_negative_orthant

    intersects_negative_orthant(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    net = generate_two_layer(2, 2, np.random.default_rng(0))
    extract_two_layer(as_oracle(net), 2, 1e-4, 8)


if __name__ == "__main__":
    pin_threads()
    try:
        warm_up()
    except MissingPackage as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
