"""The loss-free descent of ``models.fit_logistic_path`` against the
loss-computing reference loop in ``logistic_oracle``, and the split-major
inner search of ``evaluation.nested_cv`` against a candidate-major one."""

import numpy as np
import pytest

import logistic_oracle as oracle
from shipplume import evaluation, models
from shipplume.evaluation import (average_precision, nested_cv, oof_to_csv,
                                  pr_points_to_csv, report_to_json)
from shipplume.models import fit_logistic_path

from conftest import columns_dataset


def random_problem(rng, n=None, d=None):
    n = n or int(rng.integers(30, 300))
    d = d or int(rng.integers(1, 10))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = (X[:, 0] + rng.normal(size=n) > rng.uniform(-1.0, 1.5)).astype(int)
    y[:2] = 0, 1
    return X, y, d


def fit_one(X, y, n_continuous, **params):
    return fit_logistic_path(X, y, [params], n_continuous)[0]


def outcome(fit, *args, **kwargs):
    """(weights bytes, bias) of a fit, or the text of its ValueError."""
    try:
        model = fit(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return model.weights.tobytes(), model.bias


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("l2", [0.0, 1e-4, 1.0])
def test_fit_equals_oracle_bits(seed, l2):
    rng = np.random.default_rng(seed)
    X, y, d = random_problem(rng)
    for lr in (0.05, 0.2, 0.45):
        for max_iter in (1, 200, 1000):
            kwargs = dict(l2=l2, max_iter=max_iter, lr=lr, n_continuous=d)
            expected = outcome(oracle.fit, X, y, **kwargs)
            assert not isinstance(expected, str)
            assert outcome(fit_one, X, y, **kwargs) == expected


def test_path_snapshots_around_convergence(rng):
    X, y, d = random_problem(rng, n=120, d=4)
    params = dict(l2=1.0, lr=0.5, n_continuous=d)
    # the descent converges after 10 and before 1000 iterations
    assert (outcome(oracle.fit, X, y, max_iter=1000, **params)
            == outcome(oracle.fit, X, y, max_iter=5000, **params)
            != outcome(oracle.fit, X, y, max_iter=10, **params))
    counts = [1000, 10, 5000, 1, 10]
    path = fit_logistic_path(X, y, [{"l2": 1.0, "lr": 0.5, "max_iter": m}
                                    for m in counts], n_continuous=d)
    assert [(m.weights.tobytes(), m.bias) for m in path] == [
        outcome(oracle.fit, X, y, max_iter=m, **params) for m in counts]


def test_too_large_lr_still_diverges(rng):
    X = rng.normal(size=(20, 2)) * 1e6
    y = np.array([0, 1] * 10)
    kwargs = dict(l2=0.0, lr=1e300, n_continuous=0)
    # one step from zero weights is finite; the loss at the second is not
    assert not isinstance(outcome(oracle.fit, X, y, max_iter=1, **kwargs), str)
    for max_iter in (1, 2, 200):
        expected = outcome(oracle.fit, X, y, max_iter=max_iter, **kwargs)
        assert outcome(fit_one, X, y, max_iter=max_iter,
                       **kwargs) == expected
    assert expected == "divergence (try a smaller lr)"
    with pytest.raises(ValueError, match="divergence"):
        fit_logistic_path(X, y, [{"l2": 0.0, "lr": 1e300, "max_iter": m}
                                 for m in (1, 200)], n_continuous=0)


def test_nan_probabilities_diverge_like_the_oracle(rng):
    X, y, d = random_problem(rng, n=40, d=3)
    X[5, 1] = np.nan
    kwargs = dict(l2=1e-3, max_iter=50, lr=0.5, n_continuous=d)
    assert (outcome(fit_one, X, y, **kwargs)
            == outcome(oracle.fit, X, y, **kwargs)
            == "divergence (try a smaller lr)")


@pytest.mark.parametrize("kwargs, message", [
    ({"lr": -0.5}, "logistic lr must be finite and > 0, got -0.5"),
    ({"lr": 0.0}, "logistic lr must be finite and > 0, got 0.0"),
    ({"lr": float("nan")}, "logistic lr must be finite and > 0, got nan"),
    ({"lr": float("inf")}, "logistic lr must be finite and > 0, got inf"),
    ({"l2": -1e-3}, "logistic l2 must be finite and >= 0, got -0.001"),
    ({"l2": float("inf")}, "logistic l2 must be finite and >= 0, got inf"),
    ({"max_iter": 0}, "logistic max_iter must be an int >= 1, got 0"),
    ({"max_iter": -5}, "logistic max_iter must be an int >= 1, got -5"),
    ({"max_iter": 2.5}, "logistic max_iter must be an int >= 1, got 2.5"),
])
def test_bad_parameters_rejected(rng, kwargs, message):
    X, y, d = random_problem(rng, n=20, d=2)
    with pytest.raises(ValueError) as exc:
        fit_logistic_path(X, y, [kwargs], d)
    assert str(exc.value) == message


# --- the inner search --------------------------------------------------------

def search_dataset(rng, n_groups=12, rows_per_group=20, d=9):
    gids, rows, feats, labels = [], [], [], []
    for g in range(n_groups):
        f = rng.normal(size=(rows_per_group, d))
        y = (f[:, 0] + 0.8 * rng.normal(size=rows_per_group) > 0.4).astype(int)
        y[0] = 1
        gids += [f"{200 + g}_2019-05-01"] * rows_per_group
        rows += list(range(rows_per_group))
        feats.append(f)
        labels += y.tolist()
    X = np.vstack(feats)
    return columns_dataset(gids, X, X[:, 1] / 3, labels, rows=rows)


def reference_fit(family, X, y, aux, params=None, seed=0):
    """fit_family with the reference loop for logistic models."""
    if family != "logistic":
        return models.fit_family(family, X, y, aux, params, seed)
    p = {**models.DEFAULT_LOGISTIC_PARAMS, **(params or {})}
    return oracle.fit(X, y, l2=p["l2"], max_iter=p["max_iter"], lr=p["lr"])


def reference_scores(family, X, y, aux, candidates, seed, inner_splits):
    """Candidate-major search: every candidate fits every inner split on its
    own."""
    out = []
    for params in candidates:
        aps = []
        for tr, va in inner_splits:
            if va.size == 0 or y[va].sum() == 0 or y[tr].min() == y[tr].max():
                continue
            model = reference_fit(family, X[tr], y[tr], aux[tr], params, seed)
            aps.append(average_precision(
                y[va], models.predict_scores(model, X[va], aux[va])))
        out.append(float(np.mean(aps)) if aps else -1.0)
    return out


def texts(ds, report):
    return (report_to_json(report), oof_to_csv(ds, report),
            pr_points_to_csv(report.pr_points))


@pytest.mark.parametrize("family, base", [
    ("logistic", None), ("logistic", {"lr": 0.3}), ("gbt", {"n_trees": 5}),
])
def test_search_equals_candidate_major_reference(monkeypatch, family, base):
    ds = search_dataset(np.random.default_rng(4))
    kwargs = dict(n_outer=3, n_inner=3, n_candidates=10, seed=2,
                  base_params=base)
    if family == "gbt":
        kwargs["n_candidates"] = 3
    descents = []
    real_path = evaluation.fit_logistic_path

    def spy(X, y, param_sets):
        descents.append([p["max_iter"] for p in param_sets])
        return real_path(X, y, param_sets)

    with monkeypatch.context() as m:
        m.setattr(evaluation, "fit_logistic_path", spy)
        got = texts(ds, nested_cv(ds, family, **kwargs))
    with monkeypatch.context() as m:
        m.setattr(evaluation, "_search_scores", reference_scores)
        m.setattr(evaluation, "fit_family", reference_fit)
        expected = texts(ds, nested_cv(ds, family, **kwargs))
    assert got == expected
    if family == "logistic":
        # the draws repeat an l2 at different max_iter and repeat a whole
        # candidate, so descents are shared both ways
        assert any(len(set(c)) > 1 for c in descents)
        assert any(len(set(c)) < len(c) for c in descents)
        assert sum(map(len, descents)) == 3 * 3 * 10
        assert len(descents) < 3 * 3 * 10
    else:
        assert descents == []
