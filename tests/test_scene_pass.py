"""features and sectors through parallel.fork_map, one job per scene, at 1,
2 and 3 processes: the same files, skip counts and first error as one
assemble of every scene's ships in manifest order."""

import shutil

import numpy as np
import pytest

from shipplume import parallel
from shipplume.cli import main
from shipplume.dataset import assemble, dataset_to_csv
from shipplume.pipeline import PipelineParams, read_manifest, scene_images
from shipplume.synth import SceneConfig, generate_scene, scene_to_inputs

from conftest import assert_no_child

WORKERS = (1, 2, 3)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """7-scene corpora of the bench's shape at seeds 42 and 7."""
    root = tmp_path_factory.mktemp("corpora")
    for seed in (42, 7):
        assert main(["synth", "--scenes-dir", str(root / str(seed)),
                     "--seed", str(seed), "--n-scenes", "7",
                     "--emission-scale", "2e-6"]) == 0
    return root


def one_assemble(scenes):
    """dataset_to_csv of one assemble of every scene's ships, with the
    scenes' labels merged: the serial pass the scene jobs must reproduce."""
    images, labels, labelled = [], {}, False
    for ref in read_manifest(scenes / "scenes.csv"):
        ship_images, _, scene_labels = scene_images(ref.path, ref.t_overpass,
                                                    PipelineParams())
        images += ship_images
        if scene_labels is not None:
            labelled = True
            labels.update(scene_labels)
    return dataset_to_csv(assemble(images, labels if labelled else None))


def outputs(scenes, out, monkeypatch, capsys):
    """{workers: (stdout, stderr and bytes of every output file)} of
    features and sectors on the corpus."""
    seen = {}
    for n in WORKERS:
        monkeypatch.setattr(parallel, "_cpu_count", lambda: n)
        files = [out / f"{n}.csv", out / f"{n}.csv.npz", out / f"{n}.geojson"]
        assert main(["features", "--scenes-dir", str(scenes),
                     "--dataset-file", str(files[0])]) == 0
        assert main(["sectors", "--scenes-dir", str(scenes),
                     "--sectors-file", str(files[2])]) == 0
        assert_no_child()
        std = capsys.readouterr()
        seen[n] = (std.out.replace(f"{out}/{n}.", "OUT."), std.err,
                   *(path.read_bytes() for path in files))
    return seen


@pytest.mark.parametrize("seed", [42, 7])
def test_same_files_at_every_worker_count(corpora, tmp_path, monkeypatch,
                                          capsys, seed):
    seen = outputs(corpora / str(seed), tmp_path, monkeypatch, capsys)
    assert seen[1] == seen[2] == seen[3]
    assert seen[1][2].decode() == one_assemble(corpora / str(seed))


def edit_rows(path, change, first_only=False):
    """Rewrite the data rows of a CSV file (or only its first) by change."""
    header, *rows = path.read_text().splitlines()
    rows = [change(row) if k == 0 or not first_only else row
            for k, row in enumerate(rows)]
    path.write_text("\n".join([header, *rows]) + "\n")


def speed(value):
    """An AIS row with speed_kt set to value."""
    def change(row):
        fields = row.split(",")
        fields[4] = value
        return ",".join(fields)
    return change


def test_skips_and_mixed_labels_at_every_worker_count(corpora, tmp_path,
                                                      monkeypatch, capsys):
    # scene 1 loses its registry, scene 4's ships sail at 10 kt; both lose
    # labels.csv (labels of skipped ships would be orphans), as does scene 5
    scenes = tmp_path / "scenes"
    shutil.copytree(corpora / "7", scenes)
    edit_rows(scenes / "scene_001" / "ships.csv", lambda row: f"9{row}")
    edit_rows(scenes / "scene_004" / "ais.csv", speed("10.0"))
    unlabelled = {1, 4, 5}
    for s in unlabelled:
        (scenes / f"scene_{s:03d}" / "labels.csv").unlink()
    seen = outputs(scenes, tmp_path, monkeypatch, capsys)
    assert seen[1] == seen[2] == seen[3]
    assert seen[1][1].splitlines() == [
        "features: skipped 2: no registry entry",
        "features: skipped 2: speed/duplicate selection"]
    text = seen[1][2].decode()
    assert text == one_assemble(scenes)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    scene_of = [(int(row[0].split("_")[0]) - 200000001) // 100
                for row in rows]
    assert {scene_of[i] for i in range(len(rows))} == {0, 2, 3, 5, 6}
    # an unlabelled scene's rows are negatives, not unlabelled
    assert {row[-1] for row, s in zip(rows, scene_of) if s in unlabelled} \
        == {"0"}
    assert {row[-1] for row in rows} == {"0", "1"}


def test_no_labels_file_leaves_every_row_unlabelled(corpora, tmp_path,
                                                    monkeypatch, capsys):
    scenes = tmp_path / "scenes"
    shutil.copytree(corpora / "42", scenes)
    for labels in scenes.glob("scene_*/labels.csv"):
        labels.unlink()
    seen = outputs(scenes, tmp_path, monkeypatch, capsys)
    assert seen[1] == seen[2] == seen[3]
    text = seen[1][2].decode()
    assert text == one_assemble(scenes)
    assert {row.rsplit(",", 1)[1] for row in text.splitlines()[1:]} == {""}
    assert "positives=0 negatives=0" in seen[1][0]


@pytest.mark.parametrize("bad_scene, message", [
    (4, "error: group_id 200000101_2019-04-02 occurs in scenes {1} and {2}"),
    (1, "error: scene {1}: AIS CSV line 2: speed_kt must be >= 0"),
])
def test_first_error_in_manifest_order(tmp_path, monkeypatch, capsys,
                                       bad_scene, message):
    # scene 2's ships have the MMSIs of scene 1's and pass 100 min later, on
    # the same day; one scene has a malformed ais.csv
    t0 = 1554120000.0
    times = [t0, t0 + 86400.0, t0 + 86400.0 + 6000.0, t0 + 2 * 86400.0,
             t0 + 3 * 86400.0]
    manifest = ["scene,dir,t_overpass"]
    for s, t in enumerate(times):
        scene_to_inputs(generate_scene(SceneConfig(
            seed=s, t_overpass=t, mmsi_base=200000001 + 100 * min(s, 1)
            + 100 * max(s - 2, 0))), tmp_path / f"scene_{s}")
        manifest.append(f"{s},scene_{s},{t!r}")
    (tmp_path / "scenes.csv").write_text("\n".join(manifest) + "\n")
    edit_rows(tmp_path / f"scene_{bad_scene}" / "ais.csv", speed("-0.5"),
              first_only=True)
    dirs = [tmp_path / f"scene_{s}" for s in range(len(times))]
    for n in WORKERS:
        monkeypatch.setattr(parallel, "_cpu_count", lambda: n)
        assert main(["features", "--scenes-dir", str(tmp_path),
                     "--dataset-file", str(tmp_path / "dataset.csv")]) == 1
        assert_no_child()
        assert capsys.readouterr().err.strip().splitlines() == [
            message.format(*dirs)]
        assert not (tmp_path / "dataset.csv").exists()
