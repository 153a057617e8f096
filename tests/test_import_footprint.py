"""Which commands load scipy, each checked in a fresh interpreter so that
this process's own scipy import hides nothing: only ``synth`` (erf, and
gaussian_filter for correlated noise) and the logistic descent do. Where a
command or its forked workers import scipy on first use, it still writes
the bytes that the in-process runs pin."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.special  # noqa: F401  (in this process, not in the children)

from shipplume import parallel
from shipplume.cli import main

from test_output_digests import DIGESTS

SRC = Path(parallel.__file__).resolve().parents[1]
SCIPY = ("scipy.special", "scipy.ndimage")

# runs each argv through cli.main on `workers` CPUs and prints, before the
# first and after each command, its exit code and the SCIPY modules loaded
CHILD = """
import json, sys
import shipplume.cli
from shipplume import parallel
parallel._cpu_count = lambda: {workers}
def loaded():
    return [m for m in {scipy!r} if m in sys.modules]
print(json.dumps([None, loaded()]))
for argv in json.loads(sys.argv[1]):
    print(json.dumps([shipplume.cli.main(argv), loaded()]))
"""


def run_child(commands, workers=1):
    """[(exit code or None, loaded modules)]: the state after the import,
    then after each command."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(workers=workers, scipy=SCIPY),
         json.dumps([[str(a) for a in argv] for argv in commands])],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()
            if line.startswith("[")]


def digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in names}


def test_only_synth_and_the_logistic_fit_load_scipy(tmp_path):
    scenes, dataset = tmp_path / "scenes", tmp_path / "dataset.csv"
    assert main(["synth", "--scenes-dir", str(scenes), "--n-scenes", "4",
                 "--seed", "3"]) == 0
    out = {name: tmp_path / name for name in
           ("sectors.geojson", "model.json", "report.json", "pr.csv",
            "gbt.csv", "no2.csv", "logistic.csv", "proxy.csv")}
    evaluate = ["evaluate", "--dataset-file", dataset, "--outer-folds", "2",
                "--n-candidates", "1", "--gbt-n-trees", "3",
                "--logistic-max-iter", "20", "--report-file",
                out["report.json"], "--pr-file", out["pr.csv"]]
    commands = [
        ["features", "--scenes-dir", scenes, "--dataset-file", dataset],
        ["sectors", "--scenes-dir", scenes,
         "--sectors-file", out["sectors.geojson"]],
        [*evaluate, "--model", "gbt", "--oof-file", out["gbt.csv"]],
        [*evaluate, "--model", "no2", "--oof-file", out["no2.csv"]],
        ["train", "--dataset-file", dataset, "--model", "gbt",
         "--gbt-n-trees", "3", "--model-file", out["model.json"]],
        ["proxy-report", "--dataset-file", dataset, "--predictions",
         out["gbt.csv"], "--proxy-file", out["proxy.csv"]]]
    assert run_child(commands) == [(None, [])] + [(0, [])] * len(commands)
    assert all(path.stat().st_size for name, path in out.items()
               if name != "logistic.csv")
    # the commands that need scipy load it and still work
    logistic = [*evaluate, "--model", "logistic", "--oof-file",
                out["logistic.csv"]]
    assert run_child([logistic]) == [(None, []), (0, ["scipy.special"])]
    synth = ["synth", "--scenes-dir", tmp_path / "again", "--n-scenes", "2"]
    assert run_child([synth, [*synth, "--noise-corr-cells", "1.5"]]) == [
        (None, []), (0, ["scipy.special"]), (0, list(SCIPY))]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lazy_imports_write_the_pinned_bytes(tmp_path, workers):
    """synth and a logistic evaluate in a child that imports scipy itself
    (and in its forked workers after the caller did) write the bytes that
    test_output_digests pins and that this process writes."""
    ref, child = tmp_path / "ref", tmp_path / "child"
    ref.mkdir()
    child.mkdir()

    def evaluate(root):
        return ["evaluate", "--dataset-file", ref / "dataset.csv",
                "--model", "logistic", "--outer-folds", "2",
                "--inner-folds", "2", "--n-candidates", "2",
                "--report-file", root / "report.json",
                "--pr-file", root / "pr_curve.csv",
                "--oof-file", root / "oof.csv"]

    synth = ["synth", "--n-scenes", "5", "--seed", "9"]
    assert main([*synth, "--scenes-dir", str(ref / "scenes")]) == 0
    assert main(["features", "--scenes-dir", str(ref / "scenes"),
                 "--dataset-file", str(ref / "dataset.csv")]) == 0
    assert main([str(a) for a in evaluate(ref)]) == 0
    assert run_child([[*synth, "--scenes-dir", child / "scenes"],
                      evaluate(child)], workers) == [
        (None, []), (0, ["scipy.special"]), (0, ["scipy.special"])]
    labels = [name for name in DIGESTS if name.startswith("scenes/")]
    assert digests(child, labels) == {name: DIGESTS[name] for name in labels}
    scene_files = sorted(p.relative_to(ref).as_posix()
                         for p in (ref / "scenes").rglob("*") if p.is_file())
    assert digests(child, scene_files) == digests(ref, scene_files)
    outputs = ["report.json", "pr_curve.csv", "oof.csv"]
    assert digests(child, outputs) == digests(ref, outputs)
