import json
import math

import numpy as np
import pytest

from shipplume.evaluation import (ShipEstimate,
                                  average_precision, emission_proxy,
                                  nested_cv, pearson, pr_curve, pr_metrics,
                                  proxy_correlation, report_to_json,
                                  ship_estimates, split_group_id)
from shipplume.tracks import ShipInfo

from conftest import columns_dataset


def unrolled_ap_oracle(labels, scores):
    """Definition-unrolled AP: scan precision/recall at every distinct
    threshold, highest first."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    n_pos = labels.sum()
    cutoffs = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in cutoffs:
        pred = scores >= t
        tp = float(labels[pred].sum())
        precision = tp / pred.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def grouped_dataset(rng, n_groups=10, rows_per_group=8, d=17,
                    informative=True):
    gids, rows, feats, labels = [], [], [], []
    for g in range(n_groups):
        for i in range(rows_per_group):
            f = rng.normal(size=d)
            if informative:
                label = int(f[0] + 0.5 * rng.normal() > 0.3)
            else:
                label = int(rng.random() < 0.3)
            if i == 0:
                label = 1  # every group keeps at least one positive
            gids.append(f"{100 + g}_2019-04-0{g % 9 + 1}")
            rows.append(i)
            feats.append(f)
            labels.append(label)
    feats = np.array(feats)
    return columns_dataset(gids, feats, feats[:, 0] / 2, labels, rows=rows)


def assert_same_oof(a, b):
    np.testing.assert_array_equal(a.oof_index, b.oof_index)
    np.testing.assert_array_equal(a.oof_score, b.oof_score)
    np.testing.assert_array_equal(a.oof_pred, b.oof_pred)


class TestPrMetrics:
    def test_perfect_predictor(self):
        y = np.array([0, 1, 1, 0, 1])
        m = pr_metrics(y, y)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.support == (3, 2)

    def test_null_predictor(self):
        y = np.array([0, 1, 1, 0])
        m = pr_metrics(y, np.zeros(4, dtype=int))
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.precision == 0.0  # no positive predictions

    def test_counting_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 200))
            y = rng.integers(0, 2, size=n)
            p = rng.integers(0, 2, size=n)
            if y.sum() == 0:
                y[0] = 1
            m = pr_metrics(y, p)
            tp = sum(1 for a, b in zip(y, p) if a == 1 and b == 1)
            fp = sum(1 for a, b in zip(y, p) if a == 0 and b == 1)
            fn = sum(1 for a, b in zip(y, p) if a == 1 and b == 0)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn)
            assert m.precision == pytest.approx(prec)
            assert m.recall == pytest.approx(rec)
            expect_f1 = (2 * prec * rec / (prec + rec)) if prec + rec else 0.0
            assert m.f1 == pytest.approx(expect_f1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pr_metrics([1, 0], [1])

    def test_no_positive_labels(self):
        with pytest.raises(ValueError, match="no positive labels"):
            pr_metrics([0, 0], [1, 0])


class TestAveragePrecision:
    def test_perfect_ranking(self, rng):
        y = np.array([0] * 10 + [1] * 5)
        s = np.concatenate([rng.uniform(0, 0.4, 10), rng.uniform(0.6, 1, 5)])
        assert average_precision(y, s) == pytest.approx(1.0)

    def test_constant_scores_give_prevalence(self):
        y = np.array([0, 0, 0, 1])
        s = np.full(4, 0.7)
        assert average_precision(y, s) == pytest.approx(0.25)

    def test_step_sum_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 120))
            y = rng.integers(0, 2, size=n)
            if y.sum() == 0:
                y[0] = 1
            s = np.round(rng.random(size=n), 2)  # force score ties
            assert average_precision(y, s) == pytest.approx(
                unrolled_ap_oracle(y, s), abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        y = rng.integers(0, 2, size=60)
        y[0] = 1
        s = rng.normal(size=60)
        a = average_precision(y, s)
        assert average_precision(y, 3 * s + 10) == pytest.approx(a, abs=1e-12)
        assert average_precision(y, np.exp(s)) == pytest.approx(a, abs=1e-12)

    def test_no_positives_error(self):
        with pytest.raises(ValueError, match="no positive labels"):
            average_precision([0, 0, 0], [0.1, 0.2, 0.3])


class TestNestedCv:
    def test_five_groups_leave_one_out(self, rng):
        ds = grouped_dataset(rng, n_groups=5, rows_per_group=6)
        report = nested_cv(ds, "no2", n_outer=5, n_candidates=1, seed=3)
        test_groups = []
        for split in report.splits:
            assert split["kind"] == "outer"
            gids = set(split["test_groups"])
            assert len(gids) == 1
            test_groups.extend(gids)
        assert sorted(test_groups) == sorted(set(ds.group_ids.tolist()))

    def test_no_group_leakage(self, rng):
        ds = grouped_dataset(rng, n_groups=12)
        report = nested_cv(ds, "logistic", n_outer=4, n_inner=3,
                           n_candidates=2, seed=0,
                           base_params={"max_iter": 30})
        assert any(s["kind"] == "inner" for s in report.splits)
        for split in report.splits:
            tr = set(split["train_groups"])
            te = set(split["test_groups"])
            assert not tr & te

    def test_single_candidate_equals_plain_cv(self, rng):
        ds = grouped_dataset(rng, n_groups=8)
        a = nested_cv(ds, "moran", n_outer=4, n_candidates=1, seed=5)
        b = nested_cv(ds, "moran", n_outer=4, n_candidates=7, seed=5)
        # the threshold families have no hyperparameters: same folds, same
        # metrics whether or not a search nominally runs
        assert a.folds == b.folds
        assert a.summary == b.summary
        assert_same_oof(a, b)

    def test_seed_determinism(self, rng):
        ds = grouped_dataset(rng, n_groups=10)
        a = nested_cv(ds, "gbt", n_outer=3, n_inner=2, n_candidates=2, seed=11,
                      base_params={"n_trees": 5})
        b = nested_cv(ds, "gbt", n_outer=3, n_inner=2, n_candidates=2, seed=11,
                      base_params={"n_trees": 5})
        assert report_to_json(a) == report_to_json(b)
        assert_same_oof(a, b)

    def test_pooled_curve_from_concatenated_scores(self, rng):
        ds = grouped_dataset(rng, n_groups=8)
        report = nested_cv(ds, "logistic", n_outer=4, n_candidates=1, seed=2,
                           base_params={"max_iter": 50})
        scores = report.oof_score
        labels = ds.labels[report.oof_index]
        assert report.pr_points == pr_curve(labels, scores)

    def test_too_few_groups(self, rng):
        ds = grouped_dataset(rng, n_groups=3)
        with pytest.raises(ValueError, match="group count < fold count"):
            nested_cv(ds, "no2", n_outer=5, n_candidates=1)

    def test_folds_balanced_by_group_count(self, rng):
        ds = grouped_dataset(rng, n_groups=13)
        report = nested_cv(ds, "no2", n_outer=5, n_candidates=1, seed=1)
        sizes = []
        for split in report.splits:
            sizes.append(len(set(split["test_groups"])))
        assert max(sizes) - min(sizes) <= 1

    def test_report_json_fields(self, rng):
        ds = grouped_dataset(rng, n_groups=6)
        report = nested_cv(ds, "no2", n_outer=3, n_candidates=1, seed=1)
        obj = json.loads(report_to_json(report))
        assert obj["family"] == "no2"
        assert len(obj["folds"]) == 3
        assert set(obj["summary"]) == {"precision", "recall", "f1", "ap"}


class TestEmissionProxy:
    def test_direct_formula(self):
        p = emission_proxy(ShipInfo(mmsi=1, length_m=200.0, speed_ms=8.0))
        assert p.e_s == 20480000.0

    def test_zero_speed(self):
        p = emission_proxy(ShipInfo(mmsi=1, length_m=100.0, speed_ms=0.0))
        assert p.e_s == 0.0

    def test_cubic_homogeneity(self):
        a = emission_proxy(ShipInfo(mmsi=1, length_m=150.0, speed_ms=5.0))
        b = emission_proxy(ShipInfo(mmsi=1, length_m=150.0, speed_ms=10.0))
        assert b.e_s == pytest.approx(8 * a.e_s)

    def test_non_positive_length(self):
        with pytest.raises(ValueError):
            ShipInfo(mmsi=1, length_m=0.0, speed_ms=5.0)


def estimate_dataset(values_by_group):
    gids, rows, no2 = [], [], []
    for gid, values in values_by_group.items():
        gids += [gid] * len(values)
        rows += range(len(values))
        no2 += values
    X = np.zeros((len(gids), 17))
    X[:, 1] = no2
    return columns_dataset(gids, X, np.zeros(len(gids)), [None] * len(gids),
                           rows=rows)


class TestShipEstimates:
    def test_sums_predicted_positives(self):
        ds = estimate_dataset({"1_2019-04-01": [1.0, 2.0, 4.0],
                               "2_2019-04-01": [8.0, 16.0]})
        preds = [1, 0, 1, 0, 0]
        est = ship_estimates(ds, preds)
        assert est[0] == ShipEstimate(1, "2019-04-01", 5.0, 2)
        assert est[1] == ShipEstimate(2, "2019-04-01", 0.0, 0)

    def test_running_sum_oracle(self, rng):
        # per-group totals equal a running sum over the rows, bit for bit
        ds = estimate_dataset({f"{g}_d": rng.normal(size=int(rng.integers(1, 40)))
                               .tolist() for g in range(8)})
        preds = rng.integers(0, 2, size=len(ds.rows))
        expect: dict[str, float] = {}
        for gid, v, p in zip(ds.group_ids.tolist(), ds.X[:, 1].tolist(),
                             preds.tolist()):
            expect[gid] = expect.get(gid, 0.0) + (v if p else 0.0)
        est = ship_estimates(ds, preds)
        assert {e.group_id: e.no2_sum for e in est} == expect

    def test_split_group_id(self):
        assert split_group_id("12345_2019-07-01") == (12345, "2019-07-01")

    def test_proportional_estimates_give_r1(self):
        est = [ShipEstimate(i, "d", 2.5 * e, 3) for i, e in
               enumerate([1.0, 2.0, 5.0, 9.0])]
        proxies = {f"{i}_d": e for i, e in enumerate([1.0, 2.0, 5.0, 9.0])}
        assert proxy_correlation(est, proxies) == pytest.approx(1.0)

    def test_constant_estimates_zero_variance(self):
        est = [ShipEstimate(i, "d", 3.0, 1) for i in range(4)]
        proxies = {f"{i}_d": float(i + 1) for i in range(4)}
        with pytest.raises(ValueError, match="zero variance"):
            proxy_correlation(est, proxies)

    def test_zero_prediction_ships_excluded(self):
        est = [ShipEstimate(0, "d", 1.0, 2), ShipEstimate(1, "d", 2.0, 1),
               ShipEstimate(2, "d", 99.0, 0)]
        proxies = {"0_d": 1.0, "1_d": 2.0, "2_d": 50.0}
        assert proxy_correlation(est, proxies) == pytest.approx(1.0)

    def test_insufficient_ships(self):
        est = [ShipEstimate(0, "d", 1.0, 2)]
        with pytest.raises(ValueError, match="insufficient ships"):
            proxy_correlation(est, {"0_d": 1.0})

    def test_two_pass_pearson_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            num = sum((a - x.mean()) * (b - y.mean()) for a, b in zip(x, y)) / n
            den = math.sqrt(sum((a - x.mean()) ** 2 for a in x) / n) * \
                math.sqrt(sum((b - y.mean()) ** 2 for b in y) / n)
            assert pearson(x, y) == pytest.approx(num / den, rel=1e-9)
