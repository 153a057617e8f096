"""The label, PR-curve, proxy, out-of-fold and scene-manifest writers, all
through grid.table_to_csv, against their row-at-a-time references: the same
text on generated tables, in blocks of any size."""

import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import table_csv_oracle as oracle
from shipplume import grid, synth
from shipplume.dataset import LabeledDataset, labels_to_csv
from shipplume.evaluation import (ShipTable, estimates_to_csv, oof_to_csv,
                                  pr_curve)
from shipplume.grid import table_to_csv

from conftest import label_table

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16,
           9.999999999999999e15, -1e16, 1e-5, 0.1, 1.0, 0.5, 1e300]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL))
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
# ids with one "_", none, several, or at either end
GROUP_IDS = st.sampled_from(["200000001_2019-04-01", "200000101_2019-04-02",
                             "123", "", "_", "1_2_3", "_2019-04-01", "777_"])
BLOCK_ROWS = st.sampled_from([1, 2, 3, 7, grid.CSV_BLOCK_ROWS])
LONG = 2 * grid.CSV_BLOCK_ROWS + 5   # rows in three blocks of the default


def blocks_of(block_rows):
    return mock.patch.object(grid, "CSV_BLOCK_ROWS", block_rows)


def pools(draw, values, n):
    """n values from a pool of 1-6 drawn values, so that values repeat."""
    pool = draw(st.lists(values, min_size=1, max_size=6))
    return [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                           min_size=n, max_size=n))]


@st.composite
def label_tables(draw):
    """0-40 labelled pixels, row and column numbers of any size and sign."""
    keys = draw(st.lists(st.tuples(GROUP_IDS, st.integers(-10 ** 20, 10 ** 20),
                                   st.integers(-3, 40)),
                         max_size=40, unique=True))
    return {key: draw(st.sampled_from([0, 1])) for key in keys}


@given(label_tables(), BLOCK_ROWS)
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_labels_text_equals_oracle(labels, block_rows):
    with blocks_of(block_rows):
        assert labels_to_csv(label_table(labels)) == oracle.labels_to_csv(
            labels)


def test_empty_labels_are_the_header():
    assert labels_to_csv(label_table({})) == oracle.labels_to_csv({}) == (
        "group_id,row,col,label\n")


@st.composite
def scored_labels(draw):
    """1-60 0/1 labels, at least one positive, with scores that tie."""
    n = draw(st.integers(1, 60))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = 1
    return np.array(labels), np.array(pools(draw, FINITE, n), dtype=float)


@given(scored_labels(), BLOCK_ROWS)
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_pr_curve_text_equals_oracle(case, block_rows):
    labels, scores = case
    with blocks_of(block_rows):
        assert table_to_csv(pr_curve(labels, scores)) == (
            oracle.pr_points_to_csv(oracle.pr_curve(labels, scores)))


def ship_table(group_ids, no2_sum, e_s):
    return ShipTable(group_ids=np.array(group_ids, dtype=str),
                     no2_sum=np.array(no2_sum, dtype=float),
                     n_plume_pixels=np.ones(len(group_ids), dtype=int),
                     e_s=np.array(e_s, dtype=float))


@st.composite
def ship_tables(draw):
    n = draw(st.integers(0, 30))
    return ship_table(pools(draw, GROUP_IDS, n), pools(draw, FLOATS, n),
                      pools(draw, FLOATS, n))


@given(ship_tables(), BLOCK_ROWS)
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_estimates_text_equals_oracle(table, block_rows):
    with blocks_of(block_rows):
        assert estimates_to_csv(table) == oracle.estimates_to_csv(table)


def test_empty_estimates_are_the_header():
    table = ship_table([], [], [])
    assert estimates_to_csv(table) == oracle.estimates_to_csv(table) == (
        "mmsi,date,no2_sum,e_s\n")


def oof_case(rng, n, gids, scores):
    """A dataset of n rows and a report whose out-of-fold rows are a
    permutation of them."""
    ds = LabeledDataset(group_ids=np.array(gids, dtype=str),
                        rows=rng.integers(0, 18, n), cols=rng.integers(0, 18, n),
                        X=np.zeros((n, 17)), moran_high=np.zeros(n),
                        labels=rng.integers(-1, 2, n))
    report = SimpleNamespace(oof_index=rng.permutation(n),
                             oof_score=np.array(scores, dtype=float),
                             oof_pred=rng.integers(0, 2, n))
    return ds, report


@st.composite
def oof_cases(draw):
    n = draw(st.integers(0, 40))
    return oof_case(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                    n, pools(draw, GROUP_IDS, n), pools(draw, FLOATS, n))


@given(oof_cases(), BLOCK_ROWS)
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_oof_text_equals_oracle(case, block_rows):
    with blocks_of(block_rows):
        assert oof_to_csv(*case) == oracle.oof_to_csv(*case)


def manifest_text(n_scenes, start_epoch):
    """The scenes.csv generate_corpus writes, with the scenes left out."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(synth, "fork_map", lambda task, n: [0] * n):
        path, _ = synth.generate_corpus(tmp, n_scenes, start_epoch=start_epoch)
        return Path(path).read_text()


@given(st.integers(1, 40), FINITE, BLOCK_ROWS)
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_manifest_text_equals_oracle(n_scenes, start_epoch, block_rows):
    with blocks_of(block_rows):
        assert manifest_text(n_scenes, start_epoch) == oracle.manifest_to_csv(
            [start_epoch + s * 86400.0 for s in range(n_scenes)])


def test_texts_equal_oracle_across_block_boundaries():
    """Every writer on tables of three blocks of the default size."""
    rng = np.random.default_rng(7)
    gids = [f"{200000001 + i // 40}_2019-04-01" for i in range(LONG)]
    values = rng.choice([*SPECIAL, *rng.normal(size=50)], LONG)
    labels = {(g, i, i % 7): i % 2 for i, g in enumerate(gids)}
    assert labels_to_csv(label_table(labels)) == oracle.labels_to_csv(labels)
    scores = rng.normal(size=LONG)   # a point per row
    y = (scores > 0.3).astype(int)
    assert len(pr_curve(y, scores)["threshold"]) == LONG
    assert table_to_csv(pr_curve(y, scores)) == oracle.pr_points_to_csv(
        oracle.pr_curve(y, scores))
    table = ship_table(gids, values, values[::-1])
    assert estimates_to_csv(table) == oracle.estimates_to_csv(table)
    case = oof_case(rng, LONG, gids, values)
    assert oof_to_csv(*case) == oracle.oof_to_csv(*case)
    assert manifest_text(LONG, 1554120000.0) == oracle.manifest_to_csv(
        [1554120000.0 + s * 86400.0 for s in range(LONG)])
