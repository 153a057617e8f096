"""Benchmark of the shipplume CLI on seeded synthetic corpora.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload evaluate_gbt --seed 42 --seconds 10 --trace 0

Workloads: evaluate_gbt, evaluate_search (see workloads.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it give the run record, per-iteration times, output digests and every
named metric with its unit. Work files go to ``.perfbench_work/`` in the
checkout. Without ``src/shipplume`` in the checkout it exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("evaluate_gbt", "evaluate_search")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shipplume").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, or None if it cannot be read."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args: argparse.Namespace) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_commit": git_commit(),
            "src_sha256": source_digest()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "shipplume" / "__init__.py").is_file():
        print(f"perfbench: no shipplume sources in {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS      # read when numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import measure
    import shipplume
    if Path(shipplume.__file__).resolve().parent != SRC / "shipplume":
        print(f"perfbench: imported shipplume from {shipplume.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    record = run_record(args)
    print("run record " + json.dumps(record, sort_keys=True))
    outcome = measure.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), WORK)
    for line in measure.report_lines(outcome, bool(args.trace)):
        print(line)
    (WORK / args.workload / "record.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(json.dumps(outcome.result(bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
