import json
import math
import os

import numpy as np
import pytest

from shipplume import evaluation, parallel
from shipplume.dataset import FEATURE_BASE
from shipplume.evaluation import (ShipTable, average_precision,
                                  estimates_to_csv, nested_cv, pearson,
                                  pr_curve, pr_metrics, proxy_correlation,
                                  report_to_json, ship_estimates)
from shipplume.tracks import ShipInfo

from conftest import assert_no_child, columns_dataset


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

    def test_inner_fold_count_checked_before_any_fold(self, rng,
                                                      monkeypatch):
        ds = grouped_dataset(rng, n_groups=6)
        started = []
        monkeypatch.setattr(evaluation, "_outer_fold", started.append)
        # each outer training set has 3 groups, fewer than 5 inner folds
        with pytest.raises(ValueError) as exc:
            nested_cv(ds, "logistic", n_outer=2, n_inner=5, n_candidates=3)
        assert str(exc.value) == "group count < fold count"
        assert started == []
        monkeypatch.undo()
        # without a search the inner fold count is not used
        nested_cv(ds, "logistic", n_outer=2, n_inner=5, n_candidates=1,
                  base_params={"max_iter": 20})

    def test_only_searchable_families_fork(self, rng, monkeypatch):
        ds = grouped_dataset(rng, n_groups=6)
        thresholds = ("no2", "moran", "moran-high")
        expected = {f: report_to_json(nested_cv(ds, f, n_outer=3,
                                                n_candidates=1))
                    for f in thresholds}

        def no_fork():
            raise AssertionError("fork started")

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        monkeypatch.setattr(parallel.os, "fork", no_fork)
        for family in thresholds:
            report = nested_cv(ds, family, n_outer=3, n_candidates=1)
            assert report_to_json(report) == expected[family]
        with pytest.raises(AssertionError, match="^fork started$"):
            nested_cv(ds, "logistic", n_outer=3, n_candidates=1,
                      base_params={"max_iter": 20})

    @pytest.mark.parametrize("fails", [False, True])
    def test_workers_joined_and_child_error_raised(self, rng, monkeypatch,
                                                   fails):
        ds = grouped_dataset(rng, n_groups=6)
        caller = os.getpid()
        real_fit = evaluation.fit_family

        def fit(*args):
            if fails and os.getpid() != caller:
                raise ValueError("fit failed in a worker")
            return real_fit(*args)

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        monkeypatch.setattr(evaluation, "fit_family", fit)
        # the caller fits fold 0, the one worker fold 1 (the threshold
        # families fork no worker)
        kwargs = dict(n_outer=2, n_candidates=1, base_params={"max_iter": 20})
        if fails:
            with pytest.raises(ValueError, match="^fit failed in a worker$"):
                nested_cv(ds, "logistic", **kwargs)
        else:
            report = nested_cv(ds, "logistic", **kwargs)
            assert len(report.folds) == 2
        assert_no_child()

    @pytest.mark.parametrize("failing, first", [((1, 2, 3), 1), ((3, 2), 2)])
    def test_first_failing_fold_raises(self, rng, monkeypatch, failing,
                                       first):
        ds = grouped_dataset(rng, n_groups=8)
        splits = nested_cv(ds, "no2", n_outer=4, n_candidates=1).splits
        held_out = [ds.X[np.isin(ds.group_ids, s["test_groups"]), 0]
                    for s in splits]
        real_fit = evaluation.fit_family
        fitted = []  # the folds fitted in this process

        def fit(family, X, *args):
            k = next(k for k, v in enumerate(held_out)
                     if not np.isin(v, X[:, 0]).any())
            fitted.append(k)
            if k in failing:
                raise ValueError(f"fold {k} failed")
            return real_fit(family, X, *args)

        monkeypatch.setattr(evaluation, "fit_family", fit)
        # the caller takes folds 0, n, 2n, ... and workers the others
        for n_cpus in (1, 2, 3, 4):
            monkeypatch.setattr(parallel, "_cpu_count", lambda: n_cpus)
            with pytest.raises(ValueError, match=f"^fold {first} failed$"):
                nested_cv(ds, "logistic", n_outer=4, n_candidates=1,
                          base_params={"max_iter": 20})
            assert_no_child()
            if n_cpus == 1:  # no fold after the first failing one runs
                assert fitted == list(range(first + 1))

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


def estimate_dataset(values_by_group, ships=None):
    """Rows of NO2 values per group; ships maps a group to its
    (ship_length, ship_speed), 100 m and 1 m/s by default."""
    gids, rows, no2, ship_rows = [], [], [], []
    for gid, values in values_by_group.items():
        gids += [gid] * len(values)
        rows += range(len(values))
        no2 += values
        ship_rows += [(ships or {}).get(gid, (100.0, 1.0))] * len(values)
    length, speed = np.array(ship_rows).reshape(-1, 2).T
    X = np.zeros((len(gids), 17))
    X[:, FEATURE_BASE.index("no2")] = no2
    X[:, FEATURE_BASE.index("ship_length")] = length
    X[:, FEATURE_BASE.index("ship_speed")] = speed
    return columns_dataset(gids, X, np.zeros(len(gids)), [None] * len(gids),
                           rows=rows)


def proxy_of(length, speed):
    ds = estimate_dataset({"1_d": [1.0]}, {"1_d": (length, speed)})
    return ship_estimates(ds, [1]).e_s[0]


def ship_table(no2_sum, n_plume_pixels, e_s):
    return ShipTable(group_ids=np.array([f"{i}_d" for i in range(len(e_s))]),
                     no2_sum=np.array(no2_sum, dtype=float),
                     n_plume_pixels=np.array(n_plume_pixels),
                     e_s=np.array(e_s, dtype=float))


class TestEmissionProxy:
    def test_direct_formula(self):
        assert proxy_of(200.0, 8.0) == 20480000.0

    def test_zero_speed(self):
        assert proxy_of(100.0, 0.0) == 0.0

    def test_cubic_homogeneity(self):
        assert proxy_of(150.0, 10.0) == pytest.approx(8 * proxy_of(150.0, 5.0))

    def test_non_positive_length(self):
        with pytest.raises(ValueError):
            ShipInfo(mmsi=1, length_m=0.0, speed_ms=5.0)

    def test_python_float_arithmetic_per_group(self, rng):
        # each group's own first-row length and speed, with Python-float
        # powers, which numpy's ** does not match on every input
        ships = {f"{g}_d": (float(rng.uniform(50, 400)),
                            float(rng.uniform(0, 15))) for g in range(300)}
        ds = estimate_dataset({gid: [1.0, 2.0] for gid in ships}, ships)
        table = ship_estimates(ds, np.ones(len(ds), dtype=int))
        expect = {gid: length ** 2 * speed ** 3
                  for gid, (length, speed) in ships.items()}
        assert dict(zip(table.group_ids.tolist(), table.e_s.tolist())) == expect


class TestShipEstimates:
    def test_sums_predicted_positives(self):
        ds = estimate_dataset({"1_2019-04-01": [1.0, 2.0, 4.0],
                               "2_2019-04-01": [8.0, 16.0]})
        preds = [1, 0, 1, 0, 0]
        table = ship_estimates(ds, preds)
        assert table.group_ids.tolist() == ["1_2019-04-01", "2_2019-04-01"]
        assert table.no2_sum.tolist() == [5.0, 0.0]
        assert table.n_plume_pixels.tolist() == [2, 0]

    def test_running_sum_oracle(self, rng):
        # per-group totals equal a running sum over the rows, bit for bit
        ds = estimate_dataset({f"{g}_d": rng.normal(size=int(rng.integers(1, 40)))
                               .tolist() for g in range(8)})
        preds = rng.integers(0, 2, size=len(ds.rows))
        expect: dict[str, float] = {}
        for gid, v, p in zip(ds.group_ids.tolist(), ds.X[:, 1].tolist(),
                             preds.tolist()):
            expect[gid] = expect.get(gid, 0.0) + (v if p else 0.0)
        table = ship_estimates(ds, preds)
        assert dict(zip(table.group_ids.tolist(),
                        table.no2_sum.tolist())) == expect

    def test_split_group_id(self):
        # the proxy CSV splits each group_id into its mmsi and date
        ds = estimate_dataset({"12345_2019-07-01": [2.5, 1.0]},
                              {"12345_2019-07-01": (200.0, 8.0)})
        assert estimates_to_csv(ship_estimates(ds, [1, 0])) == (
            "mmsi,date,no2_sum,e_s\n12345,2019-07-01,2.5,20480000.0\n")

    def test_proportional_estimates_give_r1(self):
        e_s = [1.0, 2.0, 5.0, 9.0]
        table = ship_table([2.5 * e for e in e_s], [3] * 4, e_s)
        assert proxy_correlation(table) == pytest.approx(1.0)

    def test_constant_estimates_zero_variance(self):
        table = ship_table([3.0] * 4, [1] * 4, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="zero variance"):
            proxy_correlation(table)

    def test_zero_prediction_ships_excluded(self):
        table = ship_table([1.0, 2.0, 99.0], [2, 1, 0], [1.0, 2.0, 50.0])
        assert proxy_correlation(table) == pytest.approx(1.0)

    def test_insufficient_ships(self):
        for table in (ship_table([1.0], [2], [1.0]),
                      ship_table([1.0, 2.0], [2, 0], [1.0, 2.0])):
            with pytest.raises(ValueError, match="insufficient ships"):
                proxy_correlation(table)

    def test_two_pass_pearson_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            num = sum((a - x.mean()) * (b - y.mean()) for a, b in zip(x, y)) / n
            den = math.sqrt(sum((a - x.mean()) ** 2 for a in x) / n) * \
                math.sqrt(sum((b - y.mean()) ** 2 for b in y) / n)
            assert pearson(x, y) == pytest.approx(num / den, rel=1e-9)
