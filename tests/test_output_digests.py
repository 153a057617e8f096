"""The sha256 of every labels, dataset, out-of-fold, report, PR-curve and
proxy file of a small seeded run: synth (5 scenes, seed 9), features,
evaluate (no2, 2 outer folds) and proxy-report on the out-of-fold
predictions, and features again without the grid sidecars. A change that
must keep every output byte-identical keeps these digests; one that
changes an output on purpose updates them."""

import hashlib

from shipplume.cli import main

DIGESTS = {
    "scenes/scene_000/labels.csv":
        "e5efc20ef99651c3b441a29058f3684d444a3fb9f31a9f7e7441bba5e8dc8a9e",
    "scenes/scene_001/labels.csv":
        "dd2371aa15206cdd36d2c13f3c8f0b99b0ce98ed737553d5546c3da5c95da815",
    "scenes/scene_002/labels.csv":
        "d201f0713e2198e6d6cf85d20bc4a21849361c390a6c1c54274ad0183bd42adb",
    "scenes/scene_003/labels.csv":
        "e0144e8a8114d73775f894b1aff7cbd6086ec5f8384a2ac8f5782090d85c8ffa",
    "scenes/scene_004/labels.csv":
        "161cb723e8dd661827ace272fd95e48c7cf22042251ff0eaf48f26aef3200405",
    "dataset.csv":
        "9ac3d2ed76e55ec36b3b86c0dbee8c5479a4925b054a0e22b57f0f31168defe3",
    "oof.csv":
        "d34e31ab3df51b98cd016a3a0cb4fb05d0b8c238dce7b02d5fca7e6ac67e28a2",
    "report.json":
        "90fe5351f9bda350c9cc4aba9573dbaf8a3f92a80d251c41646eab42e9ffe69d",
    "pr_curve.csv":
        "c6eae3056b327a5a32fd82cf744915d98003ae6a80bc4fbc614c99ddb244ead7",
    "proxy.csv":
        "e58fd44e370ee0e3b83d728f3febd0d4302dce33a262617eda3ef87de286c727",
}


def test_seeded_run_writes_the_pinned_bytes(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    scenes, dataset = tmp_path / "scenes", tmp_path / "dataset.csv"
    run("synth", "--scenes-dir", scenes, "--n-scenes", 5, "--seed", 9)
    run("features", "--scenes-dir", scenes, "--dataset-file", dataset)
    run("evaluate", "--dataset-file", dataset, "--model", "no2",
        "--outer-folds", 2, "--report-file", tmp_path / "report.json",
        "--pr-file", tmp_path / "pr_curve.csv",
        "--oof-file", tmp_path / "oof.csv")
    run("proxy-report", "--dataset-file", dataset,
        "--predictions", tmp_path / "oof.csv",
        "--proxy-file", tmp_path / "proxy.csv")
    assert sorted(p.relative_to(scenes).as_posix()
                  for p in scenes.glob("*/labels.csv")) == sorted(
        name.removeprefix("scenes/") for name in DIGESTS
        if name.startswith("scenes/"))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DIGESTS} == DIGESTS
    # features parses every grid when synth's grid sidecars are gone
    grid_sidecars = sorted(scenes.glob("*/grid.csv.npz"))
    assert len(grid_sidecars) == 5
    for grid_sidecar in grid_sidecars:
        grid_sidecar.unlink()
    dataset.unlink()
    run("features", "--scenes-dir", scenes, "--dataset-file", dataset)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DIGESTS} == DIGESTS
