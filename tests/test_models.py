import numpy as np
import pytest
from scipy.special import expit

from shipplume.dataset import FEATURE_BASE
from shipplume.models import (LogisticModel, ThresholdModel, _gradient,
                              check_params, class_weight_pair, eval_tree,
                              fit_family, fit_gbt_arrays, fit_logistic_path,
                              fit_threshold_values, leaf_value, model_to_json,
                              parse_model_json, predict_labels, predict_scores,
                              standardize_fit)

from conftest import columns_dataset
from logistic_oracle import loss_grad


def dataset_from_arrays(X, y, moran_high=None):
    n = len(X)
    return columns_dataset([f"g{i % 5}" for i in range(n)], X,
                           np.zeros(n) if moran_high is None else moran_high,
                           [int(v) for v in y])


def random_features(rng, n, d=17):
    return rng.normal(size=(n, d))


def f1_of(values, y, threshold):
    pred = values >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    if tp == 0:
        return 0.0
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return 2 * p * r / (p + r)


class TestFitThreshold:
    def test_perfectly_separated(self):
        values = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        y = np.array([0, 0, 0, 1, 1, 1])
        thr = fit_threshold_values(values, y)
        assert thr == 6.0  # the single midpoint inside the gap
        assert f1_of(values, y, thr) == 1.0

    def test_tie_breaks_to_smaller_threshold(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1, 1, 1, 1])
        # all candidates give F1 < 1 equally... construct a real tie instead
        values = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0, 1, 0, 1])
        thr = fit_threshold_values(values, y)
        cands = [(a + b) / 2 for a, b in zip(sorted(set(values))[:-1],
                                             sorted(set(values))[1:])]
        best = max(f1_of(values, y, t) for t in cands)
        ties = [t for t in cands if f1_of(values, y, t) == best]
        assert thr == min(ties)

    def test_exhaustive_scan_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 60))
            values = np.round(rng.normal(size=n), 2)  # force ties
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            thr = fit_threshold_values(values, y)
            uniq = np.unique(values)
            if uniq.size == 1:
                assert thr == uniq[0]
                continue
            cands = (uniq[:-1] + uniq[1:]) / 2
            best = max(f1_of(values, y, t) for t in cands)
            assert f1_of(values, y, thr) == pytest.approx(best, abs=1e-12)
            ties = [t for t in cands
                    if f1_of(values, y, t) == pytest.approx(best, abs=1e-12)]
            assert thr == min(ties)

    def test_degenerate_labels_error(self):
        with pytest.raises(ValueError, match="degenerate labels"):
            fit_threshold_values(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_fit_threshold_on_dataset(self, rng):
        X = random_features(rng, 30)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        mh = rng.normal(size=30)
        ds = dataset_from_arrays(X, y, mh)
        m = fit_family("moran-high", ds.X, ds.labels, ds.moran_high)
        assert m.feature == "moran_on_high"
        assert m.threshold == fit_threshold_values(mh, y)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            ThresholdModel(feature="banana", threshold=0.0)


class TestLogistic:
    def test_separable_sign(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        m = fit_logistic_path(X, y, [dict(l2=0.0, max_iter=500, lr=0.5)],
                              1)[0]
        assert m.weights[0] > 0

    def test_gradient_matches_finite_differences(self, rng):
        n, d = 40, 6
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        sw = rng.uniform(0.5, 2.0, size=n)
        l2 = 0.01
        for _ in range(10):
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            gw, gb = _gradient(expit(X @ w + b), w, X, y, sw, l2)
            eps = 1e-5
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                lp, _, _ = loss_grad(wp, b, X, y, sw, l2)
                lm, _, _ = loss_grad(wm, b, X, y, sw, l2)
                assert gw[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)
            lp, _, _ = loss_grad(w, b + eps, X, y, sw, l2)
            lm, _, _ = loss_grad(w, b - eps, X, y, sw, l2)
            assert gb == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_class_weights_formula(self):
        y = np.array([0, 0, 0, 1])
        w_neg, w_pos = class_weight_pair(y)
        assert w_neg == pytest.approx(4 / 6)
        assert w_pos == pytest.approx(4 / 2)

    def test_reweighting_equivalence(self, rng):
        # class weights on the imbalanced data match unit weights on data
        # with positives duplicated to balance; compare fitted probabilities
        n_neg, n_pos, rep = 60, 20, 3
        Xn = rng.normal(size=(n_neg, 3))
        Xp = rng.normal(loc=0.8, size=(n_pos, 3))
        X = np.vstack([Xn, Xp])
        y = np.array([0] * n_neg + [1] * n_pos)
        X_dup = np.vstack([Xn] + [Xp] * rep)
        y_dup = np.array([0] * n_neg + [1] * n_pos * rep)
        params = [dict(l2=0.0, max_iter=30000, lr=1.0)]
        m = fit_logistic_path(X, y, params, 3)[0]
        m_dup = fit_logistic_path(X_dup, y_dup, params, 3)[0]
        assert m_dup.class_weights == (1.0, 1.0)
        p = predict_scores(m, X)
        p_dup = predict_scores(m_dup, X)
        np.testing.assert_allclose(p, p_dup, atol=1e-4)

    def test_divergence_error(self, rng):
        X = rng.normal(size=(20, 2)) * 1e6
        y = np.array([0, 1] * 10)
        with pytest.raises(ValueError, match="divergence"):
            fit_logistic_path(X, y, [dict(l2=0.0, max_iter=200, lr=1e300)],
                              0)

    def test_zero_weight_model_scores_half(self, rng):
        m = LogisticModel(weights=np.zeros(4), bias=0.0,
                          class_weights=(1.0, 1.0),
                          feature_mean=np.zeros(4), feature_std=np.ones(4))
        X = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(predict_scores(m, X), np.full(10, 0.5))

    def test_rescaling_invariance_exact(self, rng):
        # doubling a continuous feature is absorbed exactly by standardization
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        params = [dict(l2=1e-3, max_iter=300, lr=0.5)]
        m1 = fit_logistic_path(X, y, params, 4)[0]
        X2 = X.copy()
        X2[:, 1] *= 2.0
        m2 = fit_logistic_path(X2, y, params, 4)[0]
        np.testing.assert_array_equal(
            predict_labels(m1, predict_scores(m1, X)),
            predict_labels(m2, predict_scores(m2, X2)))
        np.testing.assert_array_equal(predict_scores(m1, X),
                                      predict_scores(m2, X2))

    def test_constant_feature_std_fallback(self, rng):
        X = rng.normal(size=(30, 3))
        X[:, 2] = 7.0
        mean, std = standardize_fit(X, n_continuous=3)
        assert std[2] == 1.0


class TestGBT:
    def test_stump_splits_at_step(self):
        X = np.array([[x] for x in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                                    10.0, 11.0, 12.0, 13.0, 14.0, 15.0)])
        y = np.array([0] * 6 + [1] * 6)
        m = fit_gbt_arrays(X, y, {"n_trees": 1, "max_depth": 1,
                                  "learning_rate": 1.0})
        tree = m.trees[0]
        assert tree["feature"] == 0
        assert tree["threshold"] == pytest.approx(7.5)

    @pytest.mark.parametrize("params, message", [
        ({"n_trees": 2.5}, "gbt n_trees must be an int >= 1, got 2.5"),
        ({"max_depth": 0}, "gbt max_depth must be an int >= 1, got 0"),
        ({"learning_rate": -0.1},
         "gbt learning_rate must be finite and > 0, got -0.1"),
        ({"subsample": float("nan")}, "gbt subsample must be in (0, 1], got nan"),
        ({"colsample": 1.0 + 1e-9},
         "gbt colsample must be in (0, 1], got 1.000000001"),
        ({"reg_alpha": float("inf")},
         "gbt reg_alpha must be finite and >= 0, got inf"),
    ])
    def test_bad_parameters_rejected(self, rng, params, message):
        X = rng.normal(size=(20, 2))
        y = np.arange(20) % 2
        with pytest.raises(ValueError) as exc:
            fit_gbt_arrays(X, y, {"n_trees": 2, **params})
        assert str(exc.value) == message

    @pytest.mark.parametrize("family", ["gbt", "logistic", "no2"])
    def test_unknown_parameter_rejected(self, family):
        with pytest.raises(ValueError) as exc:
            check_params(family, {"foo": 1})
        assert str(exc.value) == f"{family} has no parameter foo"

    def test_model_holds_parameters_as_their_default_types(self, rng):
        # the search draws min_child_weight from ints
        X = rng.normal(size=(20, 2))
        y = np.arange(20) % 2
        m = fit_gbt_arrays(X, y, {"n_trees": np.int64(2), "min_child_weight": 2})
        assert type(m.n_trees) is int and m.n_trees == 2
        assert type(m.min_child_weight) is float and m.min_child_weight == 2.0

    def test_leaf_values_match_second_order_oracle(self, rng):
        n, d = 120, 5
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        params = {"n_trees": 6, "max_depth": 3, "learning_rate": 0.3}
        m = fit_gbt_arrays(X, y, params, seed=0)
        logit = np.zeros(n)
        for tree in m.trees:
            p = expit(logit)
            g = p - y
            h = p * (1 - p)

            def check(node, idx):
                if "leaf" in node:
                    G, H = g[idx].sum(), h[idx].sum()
                    expect = -G / (H + 1.0) * params["learning_rate"]
                    assert node["leaf"] == pytest.approx(expect, rel=1e-9,
                                                         abs=1e-12)
                    return
                mask = X[idx, node["feature"]] < node["threshold"]
                check(node["left"], idx[mask])
                check(node["right"], idx[~mask])

            check(tree, np.arange(n))
            logit += eval_tree(tree, X)

    def test_training_loss_monotone(self, rng):
        n = 200
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(int)
        m = fit_gbt_arrays(X, y, {"n_trees": 30, "max_depth": 3,
                                  "learning_rate": 0.3})
        logit = np.zeros(n)
        losses = []
        for tree in m.trees:
            logit += eval_tree(tree, X)
            p = np.clip(expit(logit), 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p)
                                         + (1 - y) * np.log(1 - p))))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_seed_reproducibility(self, rng):
        X = rng.normal(size=(150, 6))
        y = (X[:, 0] > 0).astype(int)
        params = {"n_trees": 12, "max_depth": 3, "subsample": 0.7,
                  "colsample": 0.7}
        a = fit_gbt_arrays(X, y, params, seed=99)
        b = fit_gbt_arrays(X, y, params, seed=99)
        assert model_to_json(a) == model_to_json(b)
        c = fit_gbt_arrays(X, y, params, seed=100)
        assert model_to_json(a) != model_to_json(c)

    def test_scores_match_traversal_oracle(self, rng):
        X = rng.normal(size=(80, 5))
        y = (X[:, 1] > 0).astype(int)
        m = fit_gbt_arrays(X, y, {"n_trees": 5, "max_depth": 3})
        scores = predict_scores(m, X)

        def traverse(node, x):
            while "leaf" not in node:
                node = node["left"] if x[node["feature"]] < node["threshold"] \
                    else node["right"]
            return node["leaf"]

        for i in range(len(X)):
            s = sum(traverse(t, X[i]) for t in m.trees)
            assert scores[i] == pytest.approx(expit(s), rel=1e-12)

    def test_min_child_weight_respected(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        y[0], y[1] = 0, 1
        m = fit_gbt_arrays(X, y, {"n_trees": 3, "max_depth": 4,
                                  "min_child_weight": 4.0})
        p = np.full(len(X), 0.5)
        h = p * (1 - p)

        def check(node, idx):
            if "leaf" in node:
                return
            mask = X[idx, node["feature"]] < node["threshold"]
            assert h[idx][mask].sum() >= 4.0 - 1e-12
            assert h[idx][~mask].sum() >= 4.0 - 1e-12
            # only the first tree sees uniform hessians; stop after the root
        check(m.trees[0], np.arange(len(X)))

    def test_reg_alpha_shrinks_leaves(self):
        assert leaf_value(2.0, 3.0, 0.0) == pytest.approx(-0.5)
        assert leaf_value(2.0, 3.0, 1.0) == pytest.approx(-0.25)
        assert leaf_value(-2.0, 3.0, 1.0) == pytest.approx(0.25)
        assert leaf_value(0.5, 3.0, 1.0) == 0.0


class TestPrediction:
    def test_threshold_model_uses_fitted_threshold(self, rng):
        X = random_features(rng, 20)
        m = ThresholdModel(feature="no2", threshold=0.25)
        labels = predict_labels(m, predict_scores(m, X))
        np.testing.assert_array_equal(
            labels, (X[:, FEATURE_BASE.index("no2")] >= 0.25).astype(int))

    def test_threshold_scores_are_raw_values(self, rng):
        X = random_features(rng, 20)
        m = ThresholdModel(feature="moran", threshold=0.0)
        np.testing.assert_array_equal(predict_scores(m, X),
                                      X[:, FEATURE_BASE.index("moran_i")])

    def test_feature_length_mismatch(self, rng):
        X = rng.normal(size=(5, 3))
        m = LogisticModel(weights=np.zeros(4), bias=0.0,
                          class_weights=(1.0, 1.0), feature_mean=np.zeros(4),
                          feature_std=np.ones(4))
        with pytest.raises(ValueError, match="feature length mismatch"):
            predict_scores(m, X)

    def test_moran_high_required(self, rng):
        X = random_features(rng, 5)
        m = ThresholdModel(feature="moran_on_high", threshold=0.0)
        with pytest.raises(ValueError, match="moran_on_high values required"):
            predict_scores(m, X)

    def test_deterministic_predictions(self, rng):
        X = random_features(rng, 40)
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        ds = dataset_from_arrays(X, y, rng.normal(size=40))
        m = fit_family("gbt", ds.X, ds.labels, ds.moran_high,
                       {"n_trees": 4}, seed=0)
        a = predict_scores(m, ds.X, ds.moran_high)
        b = predict_scores(m, ds.X, ds.moran_high)
        np.testing.assert_array_equal(a, b)


class TestModelJson:
    def test_threshold_round_trip(self):
        m = ThresholdModel(feature="no2", threshold=1.25)
        text = model_to_json(m)
        assert model_to_json(parse_model_json(text)) == text

    def test_logistic_round_trip(self, rng):
        X = random_features(rng, 30, d=17)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        ds = dataset_from_arrays(X, y)
        m = fit_family("logistic", ds.X, ds.labels, ds.moran_high,
                       {"max_iter": 50})
        text = model_to_json(m)
        again = parse_model_json(text)
        assert model_to_json(again) == text
        np.testing.assert_array_equal(predict_scores(m, X),
                                      predict_scores(again, X))

    def test_gbt_round_trip(self, rng):
        X = random_features(rng, 50, d=17)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        ds = dataset_from_arrays(X, y)
        m = fit_family("gbt", ds.X, ds.labels, ds.moran_high,
                       {"n_trees": 3}, seed=1)
        text = model_to_json(m)
        again = parse_model_json(text)
        assert model_to_json(again) == text
        np.testing.assert_array_equal(predict_scores(m, X),
                                      predict_scores(again, X))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            parse_model_json('{"type": "mystery"}')
