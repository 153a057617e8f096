"""parallel.fork_map at 1, 2 and 3 processes, and synth's corpus through it:
the results and the first error of a one-CPU run, and no worker left."""

import hashlib
import multiprocessing
import os

import pytest

from shipplume import parallel
from shipplume.cli import main
from shipplume.parallel import fork_map


@pytest.fixture(params=[1, 2, 3])
def n_cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: request.param)
    return request.param


def assert_nothing_left():
    assert multiprocessing.active_children() == []
    assert parallel._TASK is None


def test_results_in_job_order(n_cpus):
    offset = 10  # a closure: the task itself is never pickled
    results = fork_map(lambda k: (k + offset, os.getpid()), 7)
    assert [r for r, _ in results] == list(range(10, 17))
    # the caller runs jobs 0, n, 2n, ... and the workers the others
    mine = [k for k, (_, pid) in enumerate(results) if pid == os.getpid()]
    assert mine == list(range(0, 7, n_cpus))
    assert_nothing_left()


@pytest.mark.parametrize("n_jobs", [0, 1, 2])
def test_at_most_one_process_per_job(n_cpus, n_jobs):
    results = fork_map(lambda k: (k, os.getpid()), n_jobs)
    assert [r for r, _ in results] == list(range(n_jobs))
    assert len({pid for _, pid in results}) == min(n_cpus, n_jobs)
    assert_nothing_left()


@pytest.mark.parametrize("error", [ValueError, OSError])
@pytest.mark.parametrize("failing", [(0,), (1,), (2, 1), (4, 5, 6), (6,)])
def test_first_failing_job_raises(n_cpus, error, failing):
    ran = []  # the jobs run in this process

    def task(k):
        ran.append(k)
        if k in failing:
            raise error(f"job {k} failed")
        return k

    with pytest.raises(error) as exc:
        fork_map(task, 7)
    assert type(exc.value) is error
    assert str(exc.value) == f"job {min(failing)} failed"
    if n_cpus == 1:  # no job after the first failing one runs
        assert ran == list(range(min(failing) + 1))
    assert_nothing_left()


def test_io_error_of_a_worker_raised_as_is(n_cpus, tmp_path):
    def task(k):
        return (tmp_path / f"job_{k}.txt").read_text() if k == 5 else k

    with pytest.raises(FileNotFoundError) as exc:
        fork_map(task, 7)
    assert exc.value.filename == str(tmp_path / "job_5.txt")
    assert_nothing_left()


def test_other_errors_propagate_and_no_worker_is_left(n_cpus):
    def task(k):
        if k == 3:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError):
        fork_map(task, 7)
    assert_nothing_left()


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
        assert_nothing_left()
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
    assert_nothing_left()


def test_synth_io_error_in_a_late_scene_exits_2(n_cpus, tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "scene_004").write_text("in the way\n")
    assert synth(scenes, "--n-scenes", "6", "--seed", "9") == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"i/o error: [Errno 17] File exists: '{scenes / 'scene_004'}'"]
    assert not (scenes / "scenes.csv").exists()
    assert_nothing_left()
