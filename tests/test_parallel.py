"""parallel.fork_map at 1, 2 and 3 processes, and synth's corpus through it:
the results and the first error of a one-CPU run, and no worker left."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from shipplume import parallel
from shipplume.cli import main
from shipplume.dataset import dataset_to_csv
from shipplume.parallel import fork_map

from conftest import assert_no_child, columns_dataset

SRC = Path(parallel.__file__).resolve().parents[1]


@pytest.fixture(params=[1, 2, 3])
def n_cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: request.param)
    return request.param


def test_results_in_job_order(n_cpus):
    offset = 10  # a closure: the task itself is never pickled
    results = fork_map(lambda k: (k + offset, os.getpid()), 7)
    assert [r for r, _ in results] == list(range(10, 17))
    # the caller runs jobs 0, n, 2n, ... and the workers the others
    mine = [k for k, (_, pid) in enumerate(results) if pid == os.getpid()]
    assert mine == list(range(0, 7, n_cpus))
    assert_no_child()


@pytest.mark.parametrize("n_jobs", [0, 1, 2])
def test_at_most_one_process_per_job(n_cpus, n_jobs):
    results = fork_map(lambda k: (k, os.getpid()), n_jobs)
    assert [r for r, _ in results] == list(range(n_jobs))
    assert len({pid for _, pid in results}) == min(n_cpus, n_jobs)
    assert_no_child()


@pytest.mark.parametrize("error", [ValueError, OSError])
@pytest.mark.parametrize("failing", [(0,), (1,), (2, 1), (4, 5, 6), (6,),
                                     (3, 5)])
def test_first_failing_job_raises(n_cpus, error, failing):
    ran = []  # the jobs run in this process

    def task(k):
        ran.append(k)
        if k == min(failing):
            raise error(f"job {k} failed")
        if k in failing:  # a later job fails with another type
            raise KeyError(k)
        return k

    with pytest.raises(error) as exc:
        fork_map(task, 7)
    assert type(exc.value) is error
    assert str(exc.value) == f"job {min(failing)} failed"
    if n_cpus == 1:  # no job after the first failing one runs
        assert ran == list(range(min(failing) + 1))
    assert_no_child()


def test_io_error_of_a_worker_raised_as_is(n_cpus, tmp_path):
    def task(k):
        return (tmp_path / f"job_{k}.txt").read_text() if k == 5 else k

    with pytest.raises(FileNotFoundError) as exc:
        fork_map(task, 7)
    assert exc.value.filename == str(tmp_path / "job_5.txt")
    assert_no_child()


def test_other_errors_propagate_and_no_worker_is_left(n_cpus):
    def task(k):
        if k == 3:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError):
        fork_map(task, 7)
    assert_no_child()


DYING_WORKER = """
import os, tempfile
from shipplume import cli, parallel, synth
parallel._cpu_count = lambda: {n}
caller, real_scene = os.getpid(), synth.generate_scene


def task(k):  # the job of the last worker ends its process
    if k == {n} - 1 and os.getpid() != caller:
        os._exit(3)
    return k


def scene(config):  # every worker's first scene ends its process
    if os.getpid() != caller:
        os._exit(3)
    return real_scene(config)


def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return "no child"
    return "child left"


try:
    print(parallel.fork_map(task, 7))
except ChildProcessError as exc:
    print(exc)
print(no_child())
synth.generate_scene = scene
with tempfile.TemporaryDirectory() as tmp:
    print(cli.main(["synth", "--scenes-dir", tmp, "--n-scenes", "3"]))
print(no_child())
"""


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dying_worker_raises_child_process_error(n):
    # in a child interpreter, so that a design that waits for ever on a dead
    # worker fails this test instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-c", DYING_WORKER.format(n=n)], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    lines = proc.stdout.splitlines()
    if n == 1:  # every job runs in the caller
        assert lines[:2] == ["[0, 1, 2, 3, 4, 5, 6]", "no child"]
        assert lines[2].startswith("synth: scenes=3 ships=6 ")
        assert lines[3:] == ["0", "no child"]
    else:
        assert lines == [f"worker {n - 1} ended without its results",
                         "no child", "2", "no child"]
        assert proc.stderr.splitlines() == [
            "i/o error: worker 1 ended without its results"]


def test_interrupt_in_the_callers_job_ends_every_worker(n_cpus):
    def task(k):
        if k == 0:
            raise KeyboardInterrupt
        time.sleep(30)
        return k

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(task, 7)
    assert time.monotonic() - start < 5
    assert_no_child()


def test_buffered_stdout_of_the_caller_written_once(n_cpus, tmp_path,
                                                     monkeypatch):
    out = tmp_path / "stdout.txt"
    with open(out, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("before fork_map")  # still in the buffer when workers fork
        assert fork_map(lambda k: k, 7) == list(range(7))
        monkeypatch.undo()
    assert out.read_text() == "before fork_map\n"
    assert_no_child()


def test_no_thread_started_and_no_multiprocessing(tmp_path, monkeypatch,
                                                  capsys):
    # forking a process that runs several threads can deadlock the child
    threads = threading.active_count()
    forks = []  # the thread count at each fork
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    dataset = tmp_path / "dataset.csv"
    X = np.random.default_rng(0).uniform(0.1, 1.0, size=(48, 17))
    dataset.write_text(dataset_to_csv(columns_dataset(
        [f"{300 + i // 6}_2019-04-01" for i in range(48)], X, X[:, 1],
        (X[:, 0] > 0.5).astype(int))))
    for n, argv in ((2, ["evaluate", "--dataset-file", str(dataset),
                         "--model", "logistic", "--outer-folds", "2",
                         "--n-candidates", "1", "--logistic-max-iter", "20",
                         "--report-file", str(tmp_path / "report.json"),
                         "--pr-file", str(tmp_path / "pr.csv"),
                         "--oof-file", str(tmp_path / "oof.csv")]),
                    (3, ["synth", "--scenes-dir", str(tmp_path / "scenes"),
                         "--n-scenes", "3"]),
                    (2, ["features", "--scenes-dir", str(tmp_path / "scenes"),
                         "--dataset-file", str(tmp_path / "features.csv")])):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: n)
        assert main(argv) == 0
        assert threading.active_count() == threads
        assert_no_child()
    # one evaluate worker, two synth workers, one features worker
    assert forks == [threads] * 4
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shipplume.cli; "
         "print('multiprocessing' in sys.modules)"], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout == "False\n"


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0"
                     + path.read_bytes())
    return h.hexdigest()


def synth(scenes, *flags):
    return main(["synth", "--scenes-dir", str(scenes), *flags])


def test_synth_corpus_same_at_every_worker_count(tmp_path, monkeypatch,
                                                  capsys):
    digests, stdout = set(), set()
    for n in (1, 2, 3):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: n)
        assert synth(tmp_path / str(n), "--n-scenes", "5", "--seed", "9") == 0
        digests.add(tree_digest(tmp_path / str(n)))
        stdout.add(capsys.readouterr().out.replace(str(tmp_path / str(n)), ""))
        assert_no_child()
    assert len(digests) == 1
    assert stdout == {"synth: scenes=5 ships=10 seed=9 manifest=/scenes.csv\n"}


def test_synth_error_in_a_late_scene_exits_1(n_cpus, tmp_path, capsys):
    # at seed 3 on a 38x38 grid, scene 5 alone cannot place its two ships
    scenes = tmp_path / "scenes"
    assert synth(scenes, "--n-scenes", "7", "--seed", "3", "--grid-rows",
                 "38", "--grid-cols", "38") == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: ships placed outside grid"]
    assert not (scenes / "scenes.csv").exists()
    assert_no_child()


def test_synth_io_error_in_a_late_scene_exits_2(n_cpus, tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "scene_004").write_text("in the way\n")
    assert synth(scenes, "--n-scenes", "6", "--seed", "9") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"i/o error: [Errno 17] File exists: '{scenes / 'scene_004'}'"]
    assert not (scenes / "scenes.csv").exists()
    assert_no_child()
