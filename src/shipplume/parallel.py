"""Independent jobs in the caller and forked workers, as one CPU runs them."""

import os
import pickle
import signal


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where that call or fork is missing."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _run(task, jobs) -> list:
    """[(k, raised, task(k) or the exception it raised)] up to the first
    exception: a returned exception is a result like any other."""
    done = []
    for k in jobs:
        try:
            done.append((k, False, task(k)))
        except Exception as exc:  # fork_map raises it in job order
            return done + [(k, True, exc)]
    return done


def fork_map(task, n_jobs: int) -> list:
    """[task(k) for k in range(n_jobs)] on n = min(CPUs, n_jobs) processes:
    the caller runs jobs 0, n, 2n, ... and forked worker w jobs w, w + n, ...,
    each up to its first exception. Raises the first exception in job order,
    or ChildProcessError if a worker dies first. No worker outlives it."""
    n = max(1, min(_cpu_count(), n_jobs))
    pids, pipes = [], []
    try:
        for w in range(1, n):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            with open(wr, "wb") as out:  # the caller's end closes here
                if (pid := os.fork()) == 0:  # a worker leaves by os._exit:
                    try:  # no return into the caller's stack or stdio buffers
                        pickle.dump(_run(task, range(w, n_jobs, n)), out)
                        out.close()
                    finally:
                        os._exit(0)
            pids.append(pid)
        done = _run(task, range(0, n_jobs, n))
        for w, pipe in enumerate(pipes, 1):  # to EOF: _run's triples
            try:
                done += pickle.loads(pipe.read())
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"worker {w} ended without its results") from None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # one that has exited is a zombie until reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done.sort(key=lambda d: d[0])
    for _, raised, result in done:  # a skipped job follows its exception
        if raised:
            raise result
    return [result for _, _, result in done]
