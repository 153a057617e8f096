"""The binary sidecar `features` writes next to dataset.csv: a hit loads
the very arrays the parser returns, anything else falls back to the parser,
and every command writes the same bytes either way."""

import os
import shutil
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from shipplume import dataset
from shipplume.cli import main
from shipplume.dataset import parse_dataset_csv, read_dataset
from shipplume.fileio import write_atomic

FAMILIES = ("no2", "moran", "moran-high", "logistic", "gbt")
SMALL_CV = ["--outer-folds", "2", "--inner-folds", "2", "--n-candidates", "2",
            "--gbt-n-trees", "5", "--logistic-max-iter", "40"]


def layout(ds):
    """Every field of a LabeledDataset as dtype, shape, strides and bytes."""
    return [(a.dtype.str, a.shape, a.strides, a.tobytes())
            for a in (ds.group_ids, ds.rows, ds.cols, ds.X, ds.X.base,
                      ds.moran_high, ds.labels)] + [
        ds.n_levels, type(ds.n_levels), ds.n_subsectors,
        type(ds.n_subsectors), ds.n_dropped]


def sidecar(path):
    return Path(f"{path}.npz")


@pytest.fixture
def featured(small_corpus, tmp_path):
    """dataset.csv and its sidecar, as `features` writes them."""
    path = tmp_path / "data" / "dataset.csv"
    assert main(["features", "--scenes-dir", str(small_corpus),
                 "--dataset-file", str(path)]) == 0
    return path


def readers(path, out, families=FAMILIES):
    """train, evaluate for each family and proxy-report on one dataset file:
    their exit codes and the bytes of every file they wrote."""
    out.mkdir(parents=True, exist_ok=True)
    argv = [["train", "--model", "gbt", "--gbt-n-trees", "5",
             "--model-file", out / "model.json"]]
    argv += [["evaluate", "--model", m, *SMALL_CV,
              "--report-file", out / f"report_{m}.json",
              "--pr-file", out / f"pr_{m}.csv",
              "--oof-file", out / f"oof_{m}.csv"] for m in families]
    argv.append(["proxy-report", "--proxy-file", out / "proxy.csv",
                 "--predictions", out / f"oof_{families[0]}.csv"])
    codes = [main([str(a) for a in [args[0], "--dataset-file", path,
                                    *args[1:]]]) for args in argv]
    return codes, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run_counting_parses(fn):
    """fn() with parse_dataset_csv wrapped: (result, number of parses)."""
    with mock.patch.object(dataset, "parse_dataset_csv",
                           wraps=parse_dataset_csv) as spy:
        result = fn()
    return result, spy.call_count


def test_features_writes_the_csv_and_its_sidecar_only(featured):
    assert sorted(os.listdir(featured.parent)) == ["dataset.csv",
                                                   "dataset.csv.npz"]
    with np.load(sidecar(featured), allow_pickle=False) as z:
        assert sorted(z.files) == sorted(
            ["digest", "group_ids", "rows", "cols", "labels", "values",
             "n_levels", "n_subsectors"])
        with zipfile.ZipFile(sidecar(featured)) as zf:   # np.savez, stored
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED}


def test_failing_features_writes_neither_file(small_corpus, tmp_path, capsys):
    grid = small_corpus / "scene_002" / "grid.csv"
    grid.write_text(grid.read_text().replace("#n_rows=70", "#n_rows=abc"))
    out = tmp_path / "data"
    assert main(["features", "--scenes-dir", str(small_corpus),
                 "--dataset-file", str(out / "dataset.csv")]) == 1
    assert not out.exists()


def test_hit_is_the_parse_without_parsing(featured):
    parsed = parse_dataset_csv(featured.read_text())
    ds, parses = run_counting_parses(lambda: read_dataset(featured))
    assert parses == 0
    assert layout(ds) == layout(parsed)


def test_miss_parses_once(featured):
    sidecar(featured).unlink()
    ds, parses = run_counting_parses(lambda: read_dataset(featured))
    assert parses == 1
    assert layout(ds) == layout(parse_dataset_csv(featured.read_text()))


def test_commands_load_the_sidecar_without_parsing(featured, tmp_path):
    (codes, _), parses = run_counting_parses(
        lambda: readers(featured, tmp_path / "hit", families=("logistic",)))
    assert codes == [0, 0, 0]
    assert parses == 0
    sidecar(featured).unlink()
    (codes, _), parses = run_counting_parses(
        lambda: readers(featured, tmp_path / "miss", families=("logistic",)))
    assert codes == [0, 0, 0]
    assert parses == 3


def test_outputs_identical_with_and_without_sidecar(featured, tmp_path,
                                                    capsys):
    with_sidecar = readers(featured, tmp_path / "hit")
    printed_hit = capsys.readouterr()
    sidecar(featured).unlink()
    without = readers(featured, tmp_path / "miss")
    assert capsys.readouterr().out.replace("/miss/", "/hit/") == \
        printed_hit.out
    assert with_sidecar[0] == [0] * (len(FAMILIES) + 2)
    assert with_sidecar == without
    assert len(with_sidecar[1]) == 3 * len(FAMILIES) + 2


def edit_first_row(path, edit):
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    path.write_text("\n".join([header, *edit(fields), *rest]) + "\n")


# (edit of the first row's fields -> new lines, start of the error or None)
STALE_EDITS = {
    # a finite no2 value changed: a hit would read the old one
    "value": (lambda f: [",".join(f[:4] + ["123.5"] + f[5:])], None),
    "nonfinite": (lambda f: [",".join(f[:4] + ["inf"] + f[5:])],
                  "dataset CSV line 2: non-finite value"),
    "duplicate_key": (lambda f: [",".join(f)] * 2,
                      "dataset CSV line 3: duplicate key "),
    "bad_label": (lambda f: [",".join(f[:-1] + ["2"])],
                  "dataset CSV line 2: bad label '2'"),
}


@pytest.mark.parametrize("edit, error", STALE_EDITS.values(),
                         ids=STALE_EDITS.keys())
def test_stale_sidecar_is_ignored(featured, tmp_path, capsys, edit, error):
    edit_first_row(featured, edit)
    stale, parses = run_counting_parses(
        lambda: readers(featured, tmp_path / "a", families=("logistic",)))
    stale_printed = capsys.readouterr()
    assert parses == 3
    sidecar(featured).unlink()
    assert readers(featured, tmp_path / "b",
                   families=("logistic",)) == stale
    printed = capsys.readouterr()
    assert printed.err == stale_printed.err
    assert printed.out.replace("/b/", "/a/") == stale_printed.out
    assert not sidecar(featured).exists()   # readers never write one
    if error is None:
        assert stale[0] == [0, 0, 0]
    else:
        assert stale == ([1, 1, 1], {})
        error = "error: " + error
        assert [line[:len(error)]
                for line in printed.err.splitlines()] == [error] * 3


def rewrite(path, **members):
    """Rewrite the sidecar with some members replaced (None drops one)."""
    with np.load(path, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    arrays.update(members)
    path.unlink()
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


def _truncate(path):
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


def _flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF   # a byte of the values: its CRC fails
    path.write_bytes(bytes(data))


def _directory(path):
    path.unlink()
    path.mkdir()
    (path / "digest").write_text("x")


def _member(**changes):
    def change(path):
        with np.load(path, allow_pickle=False) as z:
            current = {name: z[name] for name in z.files}
        rewrite(path, **{k: v(current[k]) if callable(v) else v
                         for k, v in changes.items()})
    return change


BAD_SIDECARS = {
    "truncated": _truncate,
    "random_bytes": lambda p: p.write_bytes(
        np.random.default_rng(0).bytes(4096)),
    "empty": lambda p: p.write_bytes(b""),
    "bit_rot": _flip_a_byte,
    "directory": _directory,
    "other_digest": _member(digest="0" * 64),
    "digest_as_bytes": _member(digest=lambda d: np.bytes_(d.item())),
    "no_group_ids": _member(group_ids=None),
    "no_n_levels": _member(n_levels=None),
    "rows_int32": _member(rows=lambda a: a.astype(np.int32)),
    "labels_float": _member(labels=lambda a: a.astype(float)),
    "values_float32": _member(values=lambda a: a.astype(np.float32)),
    "values_big_endian": _member(values=lambda a: a.astype(">f8")),
    "group_ids_bytes": _member(group_ids=lambda a: a.astype("S")),
    "group_ids_object": _member(group_ids=lambda a: a.astype(object)),
    "values_one_column_short": _member(values=lambda a: a[:, :-1].copy()),
    "values_one_row_short": _member(values=lambda a: a[:-1].copy()),
    "cols_2d": _member(cols=lambda a: a[:, None]),
    "n_levels_1d": _member(n_levels=lambda a: a.reshape(1)),
    "n_levels_float": _member(n_levels=lambda a: a.astype(float)),
    "n_subsectors_off_by_one": _member(n_subsectors=lambda a: a + 1),
}


@pytest.mark.parametrize("damage", BAD_SIDECARS.values(),
                         ids=BAD_SIDECARS.keys())
def test_bad_sidecar_is_ignored(featured, tmp_path, damage):
    damage(sidecar(featured))
    ds, parses = run_counting_parses(lambda: read_dataset(featured))
    assert parses == 1
    assert layout(ds) == layout(parse_dataset_csv(featured.read_text()))
    bad = readers(featured, tmp_path / "a", families=("gbt",))
    if sidecar(featured).is_dir():
        shutil.rmtree(sidecar(featured))
    else:
        sidecar(featured).unlink()
    assert bad[0] == [0, 0, 0]
    assert readers(featured, tmp_path / "b", families=("gbt",)) == bad


def test_missing_dataset_is_still_an_io_error(tmp_path, capsys):
    write_atomic(tmp_path / "dataset.csv.npz", lambda fh: fh.write(b"PK"))
    assert main(["evaluate", "--dataset-file",
                 str(tmp_path / "dataset.csv")]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
