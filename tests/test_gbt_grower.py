"""The rank-sorting split search of ``models._grow_tree`` against the argsort
reference grower in ``gbt_oracle``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbt_oracle as oracle
from shipplume import models
from shipplume.cli import main
from shipplume.dataset import parse_dataset_csv
from shipplume.models import leaf_value, model_to_json


def tied_data(rng, n=240, n_groups=12):
    """Columns with heavy ties: integers in 0..3, a one-hot block, three
    group-constant columns (the last two cut the groups into the same two
    sets, in opposite order), a rounded continuous column and a constant one;
    quantized probabilities make many g/h sums coincide."""
    group = np.repeat(np.arange(n_groups), n // n_groups)
    per_group = rng.normal(size=n_groups)[group]
    X = np.column_stack([
        rng.integers(0, 4, size=(n, 3)),
        np.eye(4)[rng.integers(0, 4, n)],
        rng.integers(0, 5, n_groups)[group],
        per_group,
        -per_group,
        np.round(rng.normal(size=n), 1),
        np.full(n, 2.5),
    ]).astype(float)
    y = rng.integers(0, 2, n)
    p = rng.choice([0.2, 0.5, 0.8], n)
    return X, p - y, p * (1 - p), group


def grow(X, g, h, idx, feats, max_depth, mcw, gamma, alpha, lr=0.3):
    """models._grow_tree and the reference grower on the same node."""
    args = (g, h, idx, feats, max_depth, mcw, gamma, alpha, lr)
    return (models._grow_tree(X, models.value_ranks(X), *args),
            oracle.grow_tree(X, *args))


def check_best_gain(node, X, g, h, idx, feats, depth, max_depth, mcw, gamma,
                    alpha) -> int:
    """Assert that every node splits on a cut whose reference gain equals the
    reference best gain within 1e-12 relative, or is a leaf where the
    reference finds no cut; return the number of splits."""
    if depth >= max_depth or idx.size < 2:
        assert "leaf" in node
        return 0
    gains = oracle.split_gains(X, g, h, idx, feats, mcw, gamma, alpha)
    best_gain, best = oracle.best_split(gains)
    if "leaf" in node:
        assert best is None
        return 0
    chosen = gains[(node["feature"], node["threshold"])]
    assert abs(chosen - best_gain) <= 1e-12 * best_gain
    mask = X[idx, node["feature"]] < node["threshold"]
    args = (X, g, h)
    rest = (feats, depth + 1, max_depth, mcw, gamma, alpha)
    return (1 + check_best_gain(node["left"], *args, idx[mask], *rest)
            + check_best_gain(node["right"], *args, idx[~mask], *rest))


@pytest.mark.parametrize("case", [
    "all_rows", "gamma_alpha", "subsample_colsample", "one_group"])
@pytest.mark.parametrize("seed", range(4))
def test_split_gain_equals_oracle_best(case, seed):
    rng = np.random.default_rng(seed)
    X, g, h, group = tied_data(rng)
    assert {r.dtype for _, r in models.value_ranks(X)} == {np.dtype(np.uint8)}
    n, d = X.shape
    idx, feats = np.arange(n), np.arange(d)
    mcw, gamma, alpha = 1.0, 0.0, 0.0
    if case == "gamma_alpha":
        gamma, alpha = 0.05, 0.1
    elif case == "subsample_colsample":
        idx = np.sort(rng.choice(n, size=150, replace=False))
        feats = np.sort(rng.choice(d, size=7, replace=False))
    elif case == "one_group":
        # the group-constant columns are constant within every node
        idx = np.flatnonzero(group == 0)
        mcw = 0.5
    tree, reference = grow(X, g, h, idx, feats, 5, mcw, gamma, alpha)
    splits = check_best_gain(tree, X, g, h, idx, feats, 0, 5, mcw, gamma,
                             alpha)
    assert splits >= 1
    assert tree == reference


def test_every_cut_blocked_by_min_child_weight(rng):
    X, g, h, _ = tied_data(rng)
    idx, feats = np.arange(len(X)), np.arange(X.shape[1])
    assert oracle.best_split(oracle.split_gains(X, g, h, idx, feats, 1e6,
                                                0.0, 0.0)) == (0.0, None)
    tree, reference = grow(X, g, h, idx, feats, 5, 1e6, 0.0, 0.0)
    assert tree == reference == {"leaf": leaf_value(g.sum(), h.sum()) * 0.3}


def test_constant_columns_are_never_split(rng):
    X, g, h, _ = tied_data(rng)
    idx = np.arange(len(X))
    tree, _ = grow(X, g, h, idx, np.array([X.shape[1] - 1]), 5, 1.0, 0.0, 0.0)
    assert "leaf" in tree


def test_more_distinct_values_than_16_bit_ranks(rng):
    # 70,000 distinct values need 32-bit ranks
    n = 70_000
    X = rng.permutation(n)[:, None] / 7.0
    y = rng.integers(0, 2, n)
    p = rng.choice([0.2, 0.5, 0.8], n)
    assert models.value_ranks(X)[0][1].dtype == np.uint32
    tree, reference = grow(X, p - y, p * (1 - p), np.arange(n), np.array([0]),
                           2, 1.0, 0.0, 0.0)
    assert "feature" in tree
    assert tree == reference


TWO_VALUES = [(0.0, 1.0), (-3.5, 2.0), (1e-3, 7.25)]
COLUMN_KINDS = ["two", "many", "constant", "copy", "coarsen", "refine"]


@st.composite
def grower_cases(draw):
    """A node's data and grower parameters. Besides random two-valued,
    many-valued and constant columns, a column may copy an earlier one, or
    coarsen an earlier column to two values at one of its cuts, or refine an
    earlier two-valued column into more values. Those give exactly equal
    best gains on a two-valued and a many-valued feature, in either order,
    and two-valued columns that are constant inside a child node."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    cols: list[np.ndarray] = []
    for kind in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1,
                              max_size=8)):
        lo, hi = TWO_VALUES[draw(st.integers(0, len(TWO_VALUES) - 1))]
        if kind == "two" or not cols:
            col = np.where(rng.random(n) < rng.uniform(0.1, 0.9), lo, hi)
        elif kind == "many":
            col = rng.integers(0, int(rng.integers(3, 7)), n) * 1.5 - 2.0
        elif kind == "constant":
            col = np.full(n, lo)
        else:
            prev = cols[int(rng.integers(len(cols)))]
            values = np.unique(prev)
            if kind == "copy":
                col = prev.copy()
            elif kind == "coarsen":
                col = np.where(prev <= rng.choice(values), lo, hi)
            else:  # refine: the lowest value stays one class
                col = np.where(prev == values[0], 0.5,
                               1.5 + rng.integers(0, 3, n))
        cols.append(col.astype(float))
    X = np.column_stack(cols)
    p = (rng.choice([0.2, 0.5, 0.8], n) if draw(st.booleans())
         else rng.uniform(0.05, 0.95, n))
    y = rng.integers(0, 2, n)
    d = X.shape[1]
    idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                             replace=False))
    feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)),
                               replace=False))
    params = (draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.1, 1.0])),
              draw(st.sampled_from([0.0, 0.02])),
              draw(st.sampled_from([0.0, 0.05])))
    return X, p - y, p * (1 - p), idx, feats, params


@given(grower_cases())
@settings(max_examples=150, deadline=2000, derandomize=True)
def test_grower_equals_oracle_on_generated_nodes(case):
    X, g, h, idx, feats, params = case
    tree, reference = grow(X, g, h, idx, feats, *params)
    assert tree == reference


def oracle_fit(monkeypatch, *args, **kwargs):
    """fit_family with the reference grower in place of models._grow_tree."""
    with monkeypatch.context() as m:
        m.setattr(models, "_grow_tree",
                  lambda X, bins, *rest: oracle.grow_tree(X, *rest))
        return models.fit_family(*args, **kwargs)


SEARCH_LIKE = {"n_trees": 20, "max_depth": 6, "min_child_weight": 2,
               "subsample": 0.7, "colsample": 0.7, "gamma": 0.1,
               "reg_alpha": 1e-3}


@pytest.mark.parametrize("params", [None, SEARCH_LIKE],
                         ids=["defaults", "search_like"])
def test_fit_matches_oracle_on_small_corpus(small_corpus, tmp_path,
                                            monkeypatch, params):
    dataset = tmp_path / "dataset.csv"
    assert main(["features", "--scenes-dir", str(small_corpus),
                 "--dataset-file", str(dataset)]) == 0
    ds = parse_dataset_csv(dataset.read_text())
    args = ("gbt", ds.X, ds.require_labels(), ds.moran_high, params)
    fitted = models.fit_family(*args, seed=3)
    assert model_to_json(fitted) == model_to_json(
        oracle_fit(monkeypatch, *args, seed=3))


def test_fit_matches_oracle_on_tied_data(rng, monkeypatch):
    X, _, _, _ = tied_data(rng)
    y = (X[:, 0] + X[:, 8] + rng.normal(size=len(X)) > 2).astype(int)
    args = ("gbt", X, y, np.zeros(len(X)), SEARCH_LIKE)
    assert model_to_json(models.fit_family(*args, seed=1)) == model_to_json(
        oracle_fit(monkeypatch, *args, seed=1))
