"""The sidecar <grid>.npz that synth, ingest and enhance write next to each
grid-csv file: a hit loads exactly what parse_grid_csv returns for the
file, anything else falls back to the parse, and readers never write one."""

import hashlib
import io
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shipplume import pipeline
from shipplume.cli import main
from shipplume.fileio import sidecar
from shipplume.grid import (GridImage, GridSpec, grid_to_csv, parse_grid_csv,
                            read_grid, write_grid)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1e308,
           1e-300, 2.2250738585072014e-308, 0.1, np.nan, -np.nan]
NEG_NAN = np.array([0x7FF8000000000001 | (1 << 63)], dtype=np.uint64).view(
    float)[0]   # a nan with its sign bit and a payload


def outcome(read, *args):
    """('ok', spec, value bits, mask) of a read, or ('error', message)."""
    try:
        image = read(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", image.spec, image.values.dtype, image.values.shape,
            image.values.view(np.int64).tolist(), image.valid.tolist())


@st.composite
def images(draw):
    """Rasters of 1-5 x 1-5 cells with invalid cells, nan, -0.0, extreme
    exponents and a signed nan, sometimes an infinite valid cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(
        -300, 300, size=(n_rows, n_cols))
    special = rng.random((n_rows, n_cols)) < 0.4
    values[special] = rng.choice(SPECIAL + [NEG_NAN], int(special.sum()))
    valid = rng.random((n_rows, n_cols)) >= 0.2
    if draw(st.booleans()):
        values[rng.integers(n_rows), rng.integers(n_cols)] = draw(
            st.sampled_from([np.inf, -np.inf]))
    spec = GridSpec(lat_min=draw(st.floats(-90, 90)),
                    lon_min=draw(st.floats(-1e6, 1e6)),
                    cell_size=draw(st.floats(5e-324, 1e3)),
                    n_rows=n_rows, n_cols=n_cols)
    return GridImage(spec, values, valid)


@settings(max_examples=150, deadline=None)
@given(image=images())
def test_write_then_read_is_the_parse(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    write_grid(path, image)
    assert sorted(os.listdir(path.parent)) == ["grid.csv", "grid.csv.npz"]
    text = path.read_text()
    assert text == grid_to_csv(image)
    with mock.patch.object(pipeline, "parse_grid_csv",
                           wraps=parse_grid_csv) as spy:
        got = outcome(read_grid, path, pipeline.parse_grid_csv)
    assert got == outcome(parse_grid_csv, text)
    # a hit for every file that parses, the parse for one that does not
    assert spy.call_count == (got[0] == "error")


def npz(text, **arrays):
    """The bytes of a sidecar holding text's digest and the arrays."""
    out = io.BytesIO()
    sidecar([text.encode()], lambda: arrays)(out)
    return out.getvalue()


def digest_as_bytes(text):
    out = io.BytesIO()
    np.savez(out, digest=np.bytes_(hashlib.sha256(text.encode()).hexdigest()),
             spec=SPEC, values=VALUES)
    return out.getvalue()


GRID = GridImage(GridSpec(31.5, 19.5, 0.045, n_rows=2, n_cols=3),
                 np.array([[1.0, -0.0, 3.0], [np.nan, 5e-324, 6.0]]),
                 np.array([[True, True, True], [True, True, False]]))
SPEC = np.array([31.5, 19.5, 0.045])
VALUES = np.where(GRID.valid, GRID.values, np.nan)

# (sidecar bytes for the grid text) -> each must be a miss
BAD_SIDECARS = {
    "stale": lambda text: npz(text + "\n", spec=SPEC, values=VALUES),
    "truncated": lambda text: npz(text, spec=SPEC, values=VALUES)[:200],
    "random_bytes": lambda text: np.random.default_rng(0).bytes(999),
    "foreign_dataset": lambda text: npz(text, rows=np.arange(3),
                                        values=np.zeros((3, 2))),
    "no_spec": lambda text: npz(text, values=VALUES),
    "digest_as_bytes": digest_as_bytes,
    "spec_int": lambda text: npz(text, spec=SPEC.astype(int), values=VALUES),
    "spec_short": lambda text: npz(text, spec=SPEC[:2], values=VALUES),
    "values_1d": lambda text: npz(text, spec=SPEC, values=VALUES.ravel()),
    "values_float32": lambda text: npz(text, spec=SPEC,
                                       values=VALUES.astype(np.float32)),
    "values_big_endian": lambda text: npz(text, spec=SPEC,
                                          values=VALUES.astype(">f8")),
    "values_infinite": lambda text: npz(text, spec=SPEC, values=np.where(
        GRID.valid, np.inf, np.nan)),
    "values_empty": lambda text: npz(text, spec=SPEC,
                                     values=np.zeros((0, 3))),
    "cell_size_zero": lambda text: npz(text, spec=np.array([31.5, 19.5, 0.0]),
                                       values=VALUES),
}


@pytest.mark.parametrize("make", BAD_SIDECARS.values(),
                         ids=BAD_SIDECARS.keys())
def test_bad_sidecar_is_a_miss(tmp_path, make):
    path = tmp_path / "grid.csv"
    path.write_text(grid_to_csv(GRID))
    Path(f"{path}.npz").write_bytes(make(path.read_text()))
    spy = mock.Mock(wraps=parse_grid_csv)
    got = outcome(read_grid, path, spy)
    assert spy.call_count == 1
    assert got == outcome(parse_grid_csv, grid_to_csv(GRID))


def test_a_good_sidecar_is_a_hit(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(grid_to_csv(GRID))
    Path(f"{path}.npz").write_bytes(npz(path.read_text(), spec=SPEC,
                                        values=VALUES))
    spy = mock.Mock(wraps=parse_grid_csv)
    got = outcome(read_grid, path, spy)
    assert spy.call_count == 0
    assert got == outcome(parse_grid_csv, grid_to_csv(GRID))


def test_commands_read_grids_without_parsing(small_corpus, tmp_path,
                                             monkeypatch):
    """features and sectors (one process) and enhance load every grid they
    read from its sidecar; with the sidecars deleted they parse each, write
    the same bytes and write no sidecar back."""
    monkeypatch.setattr("shipplume.parallel._cpu_count", lambda: 1)
    grids = sorted(small_corpus.glob("scene_*/grid.csv"))
    assert all(Path(f"{g}.npz").exists() for g in grids)

    def outputs(tag):
        out = tmp_path / tag
        with mock.patch.object(pipeline, "parse_grid_csv",
                               wraps=parse_grid_csv) as spy:
            assert main(["features", "--scenes-dir", str(small_corpus),
                         "--dataset-file", str(out / "dataset.csv")]) == 0
            assert main(["sectors", "--scenes-dir", str(small_corpus),
                         "--sectors-file", str(out / "sectors.geojson")]) == 0
        assert main(["enhance", "--grid-in", str(grids[0]),
                     "--grid-out", str(out / "enhanced.csv")]) == 0
        return spy.call_count, {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())}

    parses, hit = outputs("hit")
    assert parses == 0
    assert sorted(hit) == ["dataset.csv", "dataset.csv.npz", "enhanced.csv",
                           "enhanced.csv.npz", "sectors.geojson"]
    for g in grids:
        Path(f"{g}.npz").unlink()
    parses, miss = outputs("miss")
    assert parses == 2 * len(grids)
    assert miss == hit
    assert not any(small_corpus.glob("scene_*/*.npz"))   # readers write none
    # the enhanced grid's sidecar is a hit for its own text
    enhanced = tmp_path / "hit" / "enhanced.csv"
    spy = mock.Mock()
    read_grid(enhanced, spy)
    assert spy.call_count == 0


def test_ingest_writes_the_sidecar(small_corpus, tmp_path):
    assert main(["ingest", "--scenes-dir", str(small_corpus),
                 "--grid-rows", "70", "--grid-cols", "70"]) == 0
    for grid in sorted(small_corpus.glob("scene_*/grid.csv")):
        spy = mock.Mock()
        image = read_grid(grid, spy)
        assert spy.call_count == 0
        assert outcome(lambda: image) == outcome(parse_grid_csv,
                                                 grid.read_text())


@pytest.mark.parametrize("n_rows", [2.0, np.float64(2), True, 0])
def test_a_spec_counts_rows_in_ints(n_rows):
    # grid_to_csv writes "#n_rows=2.0" for a float count, which the parser
    # rejects while a sidecar written with it would load
    with pytest.raises(ValueError, match="at least one row and one column"):
        GridSpec(31.5, 19.5, 0.045, n_rows=n_rows, n_cols=2)
    assert GridSpec(31.5, 19.5, 0.045, n_rows=np.int64(2), n_cols=2).n_rows == 2
