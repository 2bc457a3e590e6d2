"""Committed references: write them, load them, compare against them.

``python3 bench/make_reference.py`` recomputes ``bench/reference/
<family>-v<variant>.npz`` for every input variant: the workload's
output on the *dense* grid with the python kernel, one mode at a time,
at ``rtol=1e-6``.  This is the one place the benchmark names execution
knobs — a reference must not move when a default does.  Each file is
stamped with the ``Params.digest`` of the inputs it was computed from,
and :func:`load_reference` refuses a file whose stamp does not match
the inputs ``run.py`` generated, instead of comparing against stale
data.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-6

#: one workload per reference family (the serve workloads are checked
#: against the in-process serial run of the same request instead)
FAMILY_WORKLOAD = {"fig2": "fig2_sparse", "hier": "hier_serial",
                   "mdm": "matter_mdm"}


class StaleReference(RuntimeError):
    pass


def reference_path(problem) -> Path:
    return REFERENCE_DIR / f"{problem.family}-v{problem.variant}.npz"


def load_reference(problem):
    """(x, y) of the committed reference for these inputs."""
    path = reference_path(problem)
    with np.load(path) as data:
        stamp = str(data["digest"])
        if stamp != problem.digest():
            raise StaleReference(
                f"{path.name} was computed from other inputs "
                f"(stamp {stamp[:12]}, inputs {problem.digest()[:12]}); "
                f"rerun bench/make_reference.py")
        return data["x"], data["y"]


def result_err(x, y, reference) -> float:
    """Max relative deviation of (x, y) from the reference."""
    x_ref, y_ref = reference
    if not np.array_equal(np.asarray(x), x_ref) \
            or not np.all(np.isfinite(y)):
        return float("inf")
    return float(np.max(np.abs(np.asarray(y) / y_ref - 1.0)))


def compute_reference(problem):
    from repro import run_linger
    from repro.spectra import run_sparse_cl

    from . import workloads

    config = replace(problem.config, rtol=REFERENCE_RTOL,
                     rhs_kernel="python")
    if problem.family == "fig2":
        r = run_sparse_cl(problem.params, problem.kgrid, config,
                          sparse_factor=1, l_values=problem.l_values,
                          batch_size=1)
        return r.l, workloads._cobe(problem, r.l, r.cl)
    result = run_linger(problem.params, problem.kgrid, config, batch_size=1)
    return workloads._spectrum(problem, result)


def main() -> int:
    from . import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    for family, workload in FAMILY_WORKLOAD.items():
        for variant in range(workloads.N_VARIANTS):
            problem = workloads.build_problem(workload, variant)
            x, y = compute_reference(problem)
            path = reference_path(problem)
            np.savez(path, x=x, y=y, digest=np.array(problem.digest()),
                     rtol=REFERENCE_RTOL)
            print(f"wrote {path.name}  digest {problem.digest()[:12]}  "
                  f"{len(x)} points", flush=True)
    return 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[0] = str(root)  # drop bench/ itself: it would shadow stdlib names
    sys.path.insert(1, str(root / "src"))
    from bench.make_reference import main as _main

    sys.exit(_main())
