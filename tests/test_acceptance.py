"""Acceptance suite: one test per criterion, each printing a summary line
(run with -s to see them). Heavier synthetic-corpus experiments share
module-scoped fixtures."""

import math
import time

import numpy as np
import pytest

from shipplume.dataset import (dataset_to_csv, labels_to_csv,
                               parse_dataset_csv, parse_labels_csv)
from shipplume.enhance import moran_enhance
from shipplume.evaluation import (average_precision, nested_cv,
                                  proxy_correlation, ship_estimates)
from shipplume.grid import (GridImage, GridSpec, grid_to_csv, parse_grid_csv,
                            table_to_csv)
from shipplume.models import (GBTModel, LogisticModel, ThresholdModel,
                              _gradient, eval_tree, fit_gbt_arrays,
                              fit_threshold_values, model_to_json,
                              parse_model_json)
from shipplume.pipeline import PipelineParams, build_dataset_from_scenes
from shipplume.sector import normalize_points, pixels_in_sector, ShipSector
from shipplume.synth import generate_corpus
from shipplume.tracks import AIS_DTYPE, WindVector, parse_ais_csv
from scipy.special import expit

from conftest import columns, columns_dataset, label_table, random_image
from logistic_oracle import loss_grad
from test_enhance import dense_moran_oracle, image_3x3_center9
from test_evaluation import unrolled_ap_oracle
from test_models import f1_of
from test_sector import make_sector, oracle_pixel_set, pixel_set

CORPUS_KWARGS = dict(n_ships=2, emission_scale=2e-6)
GBT_PARAMS = {"n_trees": 60, "max_depth": 3, "learning_rate": 0.3}
LOGISTIC_PARAMS = {"l2": 1e-3, "max_iter": 800, "lr": 0.5}


@pytest.fixture(scope="module")
def corpus_a(tmp_path_factory):
    """Criterion 6/7/8 corpus: 100 scenes x 2 ships (200 plume images),
    moderate uncorrelated noise, interfering plumes."""
    root = tmp_path_factory.mktemp("corpus_a")
    params = PipelineParams()
    manifest, n_ships = generate_corpus(root, 100, params=params, seed=42,
                                        scene_kwargs=CORPUS_KWARGS)
    ds, _ = build_dataset_from_scenes(manifest, params)
    assert n_ships == 200
    return ds


@pytest.fixture(scope="module")
def corpus_a_reports(corpus_a):
    reports = {}
    for family, base in (("no2", None), ("moran-high", None),
                         ("logistic", LOGISTIC_PARAMS), ("gbt", GBT_PARAMS)):
        reports[family] = nested_cv(corpus_a, family, n_outer=5,
                                    n_candidates=1, seed=0, base_params=base)
    return reports


def test_criterion_01_moran_oracle_equivalence(rng):
    start = time.time()
    for _ in range(200):
        img = random_image(rng)
        out = moran_enhance(img)
        expect = dense_moran_oracle(img)
        np.testing.assert_allclose(out.values[img.valid], expect[img.valid],
                                   rtol=1e-9, atol=1e-12)
    hand = moran_enhance(image_3x3_center9())
    assert hand.values[1, 1] == -8.0
    for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert hand.values[r, c] == -0.75
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: moran oracle, 200 images, {elapsed:.2f}s")


def test_criterion_02_geometry_oracles(rng):
    start = time.time()
    # membership vs an independent point-in-polygon oracle
    for _ in range(100):
        _, sector = make_sector(heading=float(rng.uniform(0, 360)),
                                wind=WindVector(float(rng.uniform(-6, 6)),
                                                float(rng.uniform(-6, 6))),
                                speed=float(rng.uniform(14.5, 24)))
        lats = [p[0] for p in sector.polygon]
        lons = [p[1] for p in sector.polygon]
        pad = 0.05
        cell = max(max(lats) - min(lats), max(lons) - min(lons)) / 16 + 1e-9
        spec = GridSpec(min(lats) - pad, min(lons) - pad, cell,
                        int((max(lats) - min(lats) + 2 * pad) / cell) + 1,
                        int((max(lons) - min(lons) + 2 * pad) / cell) + 1)
        shape = (spec.n_rows, spec.n_cols)
        img = GridImage(spec, np.zeros(shape), np.ones(shape, bool))
        assert pixel_set(pixels_in_sector(sector, img)) == \
            oracle_pixel_set(sector, spec)

    # rotation invariance of the bins on 100 rotated sector pairs
    for _ in range(100):
        _, sector = make_sector(heading=float(rng.uniform(0, 360)))
        lat0, lon0 = sector.origin
        coslat = math.cos(math.radians(lat0))
        x = rng.uniform(-40000, 40000, size=20)
        y = rng.uniform(-40000, 40000, size=20)
        nd = normalize_points(sector, lat0 + y / 111320.0,
                              lon0 + x / (111320.0 * coslat))
        phi = math.radians(float(rng.uniform(0, 360)))
        xr = x * math.cos(phi) - y * math.sin(phi)
        yr = x * math.sin(phi) + y * math.cos(phi)
        rotated = ShipSector(sector.mmsi, sector.origin, sector.polygon,
                             sector.reference_angle + math.degrees(phi),
                             sector.angle_half_width)
        nd_rot = normalize_points(rotated, lat0 + yr / 111320.0,
                                  lon0 + xr / (111320.0 * coslat))
        assert sorted(zip(nd["level"], nd["sub_sector"])) == \
            sorted(zip(nd_rot["level"], nd_rot["sub_sector"]))
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: geometry oracles, 100 sectors, {elapsed:.2f}s")


def test_criterion_03_model_correctness(rng):
    start = time.time()
    # logistic gradient vs central finite differences at 50 random points
    n, d = 60, 7
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float)
    sw = rng.uniform(0.5, 2.0, size=n)
    eps = 1e-5
    for _ in range(50):
        w = rng.normal(scale=0.5, size=d)
        b = float(rng.normal(scale=0.5))
        l2 = float(rng.uniform(0, 0.1))
        gw, gb = _gradient(expit(X @ w + b), w, X, y, sw, l2)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp = loss_grad(wp, b, X, y, sw, l2)[0]
            lm = loss_grad(wm, b, X, y, sw, l2)[0]
            assert abs(gw[j] - (lp - lm) / (2 * eps)) < 1e-6
        lp = loss_grad(w, b + eps, X, y, sw, l2)[0]
        lm = loss_grad(w, b - eps, X, y, sw, l2)[0]
        assert abs(gb - (lp - lm) / (2 * eps)) < 1e-6

    # boosted-tree leaf values vs the -G/(H+1) oracle
    Xg = rng.normal(size=(150, 5))
    yg = (Xg[:, 0] + 0.4 * rng.normal(size=150) > 0).astype(int)
    lr = 0.3
    model = fit_gbt_arrays(Xg, yg, {"n_trees": 8, "max_depth": 3,
                                    "learning_rate": lr}, seed=0)
    logit = np.zeros(len(Xg))
    for tree in model.trees:
        p = expit(logit)
        g = p - yg
        h = p * (1 - p)

        def check(node, idx):
            if "leaf" in node:
                G, H = g[idx].sum(), h[idx].sum()
                assert node["leaf"] == pytest.approx(-G / (H + 1.0) * lr,
                                                     rel=1e-9, abs=1e-12)
                return
            mask = Xg[idx, node["feature"]] < node["threshold"]
            check(node["left"], idx[mask])
            check(node["right"], idx[~mask])

        check(tree, np.arange(len(Xg)))
        logit += eval_tree(tree, Xg)

    # threshold fit vs exhaustive scan on 100 random datasets
    for _ in range(100):
        m = int(rng.integers(4, 80))
        values = np.round(rng.normal(size=m), 2)
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        thr = fit_threshold_values(values, labels)
        uniq = np.unique(values)
        if uniq.size == 1:
            assert thr == uniq[0]
            continue
        cands = (uniq[:-1] + uniq[1:]) / 2
        best = max(f1_of(values, labels, t) for t in cands)
        assert f1_of(values, labels, thr) == pytest.approx(best, abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: model correctness oracles, {elapsed:.2f}s")


def test_criterion_04_metric_oracles(rng):
    start = time.time()
    for _ in range(200):
        n = int(rng.integers(2, 501))
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            y[0] = 1
        s = np.round(rng.random(size=n), 2)
        assert average_precision(y, s) == pytest.approx(
            unrolled_ap_oracle(y, s), abs=1e-12)
    # perfect ranking
    y = np.array([0] * 20 + [1] * 7)
    s = np.concatenate([np.linspace(0, 0.4, 20), np.linspace(0.6, 1, 7)])
    assert average_precision(y, s) == pytest.approx(1.0, abs=1e-12)
    # constant scores = prevalence
    y = rng.integers(0, 2, size=100)
    y[0] = 1
    assert average_precision(y, np.full(100, 0.5)) == pytest.approx(
        y.mean(), abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 PASS: AP oracle, 200 vectors, {elapsed:.2f}s")


def test_criterion_05_no_group_leakage(rng):
    start = time.time()
    gids, rows, feats, labels = [], [], [], []
    for g in range(40):
        for i in range(10):
            f = rng.normal(size=17)
            gids.append(f"{g}_2019-04-01")
            rows.append(i)
            feats.append(f)
            labels.append(int(f[0] > 0.4) if i else 1)
    feats = np.array(feats)
    ds = columns_dataset(gids, feats, feats[:, 0], labels, rows=rows)
    report = nested_cv(ds, "logistic", n_outer=5, n_inner=5, n_candidates=3,
                       seed=7, base_params={"max_iter": 20})
    assert any(s["kind"] == "inner" for s in report.splits)
    leaks = 0
    for split in report.splits:
        train_groups = set(split["train_groups"])
        test_groups = set(split["test_groups"])
        leaks += len(train_groups & test_groups)
    assert leaks == 0
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 5 PASS: zero group leakage over "
          f"{len(report.splits)} splits, {elapsed:.2f}s")


def test_criterion_06_method_ordering(corpus_a, corpus_a_reports):
    start = time.time()
    ap = {fam: rep.summary["ap"][0] for fam, rep in corpus_a_reports.items()}
    assert len(set(corpus_a.group_ids.tolist())) == 200
    neg, pos = corpus_a.class_counts
    assert pos < neg  # plume pixels are the minority class
    assert ap["gbt"] >= ap["logistic"] >= ap["moran-high"] >= ap["no2"]
    assert ap["gbt"] - ap["no2"] >= 0.10
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 6 PASS: AP gbt={ap['gbt']:.3f} >= "
          f"logistic={ap['logistic']:.3f} >= moran-high={ap['moran-high']:.3f}"
          f" >= no2={ap['no2']:.3f}, margin={ap['gbt'] - ap['no2']:.3f}")


def test_criterion_07_enhancement_value(corpus_a):
    # corpus noise is white (correlation length 0 cells), i.e. spatially
    # uncorrelated at plume scale
    start = time.time()
    X = corpus_a.X
    y = corpus_a.require_labels()
    ap_moran = average_precision(y, X[:, 0])
    ap_no2 = average_precision(y, X[:, 1])
    assert ap_moran - ap_no2 >= 0.05
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 PASS: moran AP {ap_moran:.3f} exceeds "
          f"NO2 AP {ap_no2:.3f} by {ap_moran - ap_no2:.3f}")


def test_criterion_08_proxy_correlation(tmp_path_factory, corpus_a,
                                        corpus_a_reports):
    start = time.time()
    # ground-truth masks as predictions on a dedicated 100-ship corpus
    root = tmp_path_factory.mktemp("corpus_b")
    params = PipelineParams()
    manifest, n_ships = generate_corpus(root, 50, params=params, seed=77,
                                        scene_kwargs=CORPUS_KWARGS)
    assert n_ships == 100
    ds_b, _ = build_dataset_from_scenes(manifest, params)
    r_truth = proxy_correlation(ship_estimates(ds_b, ds_b.require_labels()))
    assert r_truth >= 0.95

    # boosted-tree out-of-fold predictions from the criterion-6 experiment
    preds = corpus_a_reports["gbt"].predictions()
    r_gbt = proxy_correlation(ship_estimates(corpus_a, preds))
    assert r_gbt >= 0.7
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 PASS: r_truth={r_truth:.3f} (>=0.95), "
          f"r_gbt={r_gbt:.3f} (>=0.7), {elapsed:.1f}s")


def test_criterion_09_pipeline_determinism(tmp_path):
    from shipplume.cli import main
    start = time.time()

    def run_pipeline(workdir):
        scenes = workdir / "scenes"
        args = ["--scenes-dir", str(scenes), "--n-scenes", "4",
                "--ships-per-scene", "2", "--seed", "21"]
        assert main(["synth", *args]) == 0
        assert main(["ingest", *args]) == 0
        assert main(["features", *args,
                     "--dataset-file", str(workdir / "dataset.csv")]) == 0
        assert main(["evaluate", "--dataset-file", str(workdir / "dataset.csv"),
                     "--model", "gbt", "--gbt-n-trees", "15",
                     "--outer-folds", "4", "--n-candidates", "1",
                     "--seed", "21",
                     "--report-file", str(workdir / "report.json"),
                     "--pr-file", str(workdir / "pr.csv"),
                     "--oof-file", str(workdir / "oof.csv")]) == 0
        return workdir

    a = run_pipeline(tmp_path / "run_a")
    b = run_pipeline(tmp_path / "run_b")
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "pr.csv").read_bytes() == (b / "pr.csv").read_bytes()
    assert (a / "oof.csv").read_bytes() == (b / "oof.csv").read_bytes()
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    elapsed = time.time() - start
    print(f"ACCEPTANCE 9 PASS: byte-identical pipeline replay, {elapsed:.1f}s")


def test_criterion_10_format_round_trips(rng):
    start = time.time()
    n_cases = 1000

    # grid-csv
    for _ in range(n_cases):
        img = random_image(rng, n_rows=int(rng.integers(1, 5)),
                           n_cols=int(rng.integers(1, 5)),
                           invalid_fraction=float(rng.random() * 0.8))
        text = grid_to_csv(img)
        assert grid_to_csv(parse_grid_csv(text)) == text

    # AIS CSV
    for _ in range(n_cases):
        recs = np.array([(int(rng.integers(1, 10 ** 9)),
                          float(rng.uniform(1.5e9, 1.6e9)),
                          float(rng.uniform(-80, 80)),
                          float(rng.uniform(-180, 180)),
                          float(rng.uniform(0, 30)),
                          float(rng.uniform(0, 360)))
                         for _ in range(int(rng.integers(1, 4)))],
                        dtype=AIS_DTYPE)
        text = table_to_csv(columns(recs))
        assert table_to_csv(columns(parse_ais_csv(text))) == text

    # label CSV
    for _ in range(n_cases):
        table = {(f"{int(rng.integers(1, 999))}_2019-04-01",
                  int(rng.integers(0, 18)), int(rng.integers(0, 18))):
                 int(rng.integers(0, 2))
                 for _ in range(int(rng.integers(1, 5)))}
        text = labels_to_csv(label_table(table))
        assert labels_to_csv(parse_labels_csv(text)) == text

    # dataset CSV
    for _ in range(n_cases):
        gids, cols, feats, mh, labels = [], [], [], [], []
        n = int(rng.integers(1, 4))
        for _ in range(n):
            labels.append([None, 0, 1][int(rng.integers(0, 3))])
            gids.append(f"{int(rng.integers(1, 999))}_d")
            cols.append(int(rng.integers(0, 18)))
            f = rng.normal(size=17)
            # a dataset row needs ship_speed >= 0 and ship_length > 0
            f[5:7] = np.abs(f[5:7])
            feats.append(f)
            mh.append(float(rng.normal()))
        text = dataset_to_csv(columns_dataset(gids, feats, mh, labels,
                                              cols=cols))
        assert dataset_to_csv(parse_dataset_csv(text)) == text

    # model JSON
    for i in range(n_cases):
        kind = i % 3
        if kind == 0:
            model = ThresholdModel(feature=("no2", "moran", "moran_on_high")[i % 3],
                                   threshold=float(rng.normal()))
        elif kind == 1:
            d = int(rng.integers(1, 20))
            model = LogisticModel(weights=rng.normal(size=d),
                                  bias=float(rng.normal()),
                                  class_weights=(float(rng.uniform(0.1, 2)),
                                                 float(rng.uniform(0.1, 9))),
                                  feature_mean=rng.normal(size=d),
                                  feature_std=rng.uniform(0.5, 2, size=d))
        else:
            def rand_tree(depth):
                if depth == 0 or rng.random() < 0.4:
                    return {"leaf": float(rng.normal())}
                return {"feature": int(rng.integers(0, 17)),
                        "threshold": float(rng.normal()),
                        "left": rand_tree(depth - 1),
                        "right": rand_tree(depth - 1)}
            model = GBTModel(trees=[rand_tree(3) for _ in
                                    range(int(rng.integers(1, 4)))],
                             learning_rate=0.3, max_depth=3, n_trees=2,
                             min_child_weight=1.0, subsample=1.0,
                             colsample=1.0, gamma=0.0, reg_alpha=0.0,
                             n_features=17)
        text = model_to_json(model)
        assert model_to_json(parse_model_json(text)) == text

    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 10 PASS: 5 x {n_cases} round-trips, {elapsed:.1f}s")
