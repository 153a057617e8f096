"""Independent jobs on every CPU this process may use: the caller and forked
workers, with the results and first error of a one-CPU run."""

import multiprocessing
import os


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where that call or fork is missing."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


# The task of the running fork_map, which forked workers read unpickled
_TASK = None


def _run(k: int):
    try:
        return _TASK(k)
    except (ValueError, OSError) as exc:  # fork_map raises it in job order
        return exc


def fork_map(task, n_jobs: int) -> list:
    """[task(k) for k in range(n_jobs)] on n = min(CPUs, n_jobs) processes:
    the caller runs jobs 0, n, 2n, ... and a fork pool of n - 1 workers the
    rest; only k and the results are pickled. The first ValueError or
    OSError in job order is raised; no worker outlives the call."""
    global _TASK
    n = max(1, min(_cpu_count(), n_jobs))
    _TASK = task
    results: list = [None] * n_jobs
    pool = None
    try:
        if n > 1:
            pool = multiprocessing.get_context("fork").Pool(n - 1)
        theirs = [k for k in range(n_jobs) if k % n]
        pending = pool and pool.map_async(_run, theirs)
        for k in range(0, n_jobs, n):
            results[k] = _run(k)
            if isinstance(results[k], Exception):
                break
        for k, result in zip(theirs, pending.get() if pool else []):
            results[k] = result
    finally:
        _TASK = None
        if pool:
            pool.terminate()
            pool.join()
    for result in results:  # a job the caller skipped follows an error
        if isinstance(result, Exception):
            raise result
    return results
