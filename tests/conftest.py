import contextlib
import os
import warnings

import numpy as np
import pytest

# hypothesis's pytest plugin imports this module while it reports a failing
# test, and its libcst import raises a DeprecationWarning (mypy_extensions)
# that filterwarnings = ["error"] would turn into an INTERNALERROR ending the
# whole run; imported once here with that warning ignored, it stays loaded
# (without libcst, hypothesis reports failures without it)
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from shipplume.cli import main
from shipplume.dataset import LabeledDataset
from shipplume.grid import GridImage, GridSpec


def columns_dataset(group_ids, X, moran_high, labels, rows=None, cols=None):
    """A LabeledDataset from per-row values; a None label is unlabeled."""
    n = len(group_ids)
    return LabeledDataset(
        group_ids=np.array(group_ids, dtype=str),
        rows=np.arange(n) if rows is None else np.asarray(rows, dtype=int),
        cols=np.zeros(n, dtype=int) if cols is None else np.asarray(cols, dtype=int),
        X=np.asarray(X, dtype=float).reshape(n, -1),
        moran_high=np.asarray(moran_high, dtype=float),
        labels=np.array([-1 if y is None else y for y in labels], dtype=int))


def label_table(labels):
    """The label table {column: array} of {(group_id, row, col): label}."""
    gids, rows, cols = zip(*labels) if labels else ((), (), ())
    return {"group_id": np.array(gids, dtype=object),
            "row": np.array(rows, dtype=object),
            "col": np.array(cols, dtype=object),
            "label": np.array(list(labels.values()), dtype=int)}


def label_dict(table):
    """{(group_id, row, col): label} of a label table."""
    return dict(zip(zip(*(table[name].tolist()
                          for name in ("group_id", "row", "col"))),
                    table["label"].tolist()))


def table(dtype, rows):
    """A record table (e.g. tracks.AIS_DTYPE) from an iterable of rows."""
    return np.array([tuple(r) for r in rows], dtype=dtype)


def columns(records):
    """{field name: column} of a record table, as grid.table_to_csv takes it."""
    return {name: records[name] for name in records.dtype.names}


def assert_no_child():
    """This process has no child process, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BRIGHT = ["--grid-rows", "70", "--grid-cols", "70",
          "--ships-per-scene", "1", "--emission-scale", "0.0003",
          "--puff-sigma-m", "1500", "--decay-halflife-s", "2400"]


@pytest.fixture
def small_corpus(tmp_path):
    """A 4-scene synthetic corpus with one bright ship per scene."""
    scenes = tmp_path / "scenes"
    assert main(["synth", "--scenes-dir", str(scenes), "--n-scenes", "4",
                 "--seed", "5", *BRIGHT]) == 0
    return scenes


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_image(rng, n_rows=None, n_cols=None, invalid_fraction=0.15,
                 lat_min=31.5, lon_min=19.5, cell=0.045):
    """A random raster with some invalid cells (always at least two valid)."""
    n_rows = n_rows or int(rng.integers(3, 19))
    n_cols = n_cols or int(rng.integers(3, 19))
    spec = GridSpec(lat_min=lat_min, lon_min=lon_min, cell_size=cell,
                    n_rows=n_rows, n_cols=n_cols)
    values = rng.normal(size=(n_rows, n_cols))
    valid = rng.random((n_rows, n_cols)) >= invalid_fraction
    if valid.sum() < 2:
        valid[0, 0] = valid[-1, -1] = True
    values = np.where(valid, values, np.nan)
    return GridImage(spec, values, valid)
