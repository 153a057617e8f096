import json

import numpy as np
import pytest

from shipplume.cli import main, parse_config_file
from shipplume.dataset import dataset_header, dataset_to_csv
from shipplume.fileio import write_atomic
from shipplume.synth import SceneConfig, generate_scene, scene_to_inputs

from conftest import columns_dataset


def run(argv):
    return main([str(a) for a in argv])


def revisit_dataset(path):
    """MMSI 111 on two days, 100 m long: 8 m/s with 2.0 NO2 in its one plume
    pixel on day 1, 12 m/s with 5.0 on day 2."""
    lines = [dataset_header()]
    for date, speed, no2 in (("2019-04-01", 8.0, 2.0),
                             ("2019-04-02", 12.0, 5.0)):
        feats = [0.5, no2, 3.0, 0.0, 1.0, speed, 100.0] + [1.0] + [0.0] * 4 \
            + [1.0] + [0.0] * 4
        lines.append(f"111_{date},0,0,{','.join(map(str, feats))},0.25,1")
    path.write_text("\n".join(lines) + "\n")
    return path


def run_on_8_groups(tmp_path, command, model, flags):
    """command on a 48-row dataset of 8 groups, with 2 outer and 2 inner
    folds and 3 candidates before flags; every output goes to tmp_path."""
    dataset = tmp_path / "dataset.csv"
    rng = np.random.default_rng(0)
    X = rng.uniform(0.1, 1.0, size=(48, 17))
    labels = (X[:, 0] > 0.5).astype(int)
    labels[::6] = 1
    dataset.write_text(dataset_to_csv(columns_dataset(
        [f"{300 + i // 6}_2019-04-01" for i in range(48)], X, X[:, 1],
        labels)))
    out = tmp_path / "out"
    return run([command, "--dataset-file", dataset, "--model", model,
                "--outer-folds", "2", "--inner-folds", "2",
                "--n-candidates", "3", *flags, "--model-file", out,
                "--report-file", out, "--pr-file", tmp_path / "pr.csv",
                "--oof-file", tmp_path / "oof.csv"])


def gbt_json(*trees):
    """A GBT model file for 17 features with the given trees."""
    return json.dumps({"type": "gbt", "trees": list(trees),
                       "learning_rate": 0.3, "max_depth": 3,
                       "n_trees": len(trees), "min_child_weight": 1.0,
                       "subsample": 1.0, "colsample": 1.0, "gamma": 0.0,
                       "reg_alpha": 0.0, "n_features": 17})


class TestConfig:
    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not-a-key=3\n")
        assert run(["synth", "--config", cfg]) == 1
        assert "not-a-key" in capsys.readouterr().err

    def test_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nseed=7\nn-scenes=2  # trailing comment\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"seed": 7, "n-scenes": 2}

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["features", "--scenes-dir", tmp_path / "nowhere"]) == 2

    def test_bad_flag_value_exits_1(self):
        assert run(["synth", "--n-scenes", "many"]) == 1


class TestBadInputs:
    def test_grid_without_cell_size_exits_1(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("#lat_min=31.5\n#lon_min=19.5\n#n_rows=1\n"
                        "#n_cols=2\n1.0,2.0\n")
        assert run(["enhance", "--grid-in", grid,
                    "--grid-out", tmp_path / "out.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cell_size" in err

    def test_model_json_without_bias_exits_1(self, tmp_path, capsys):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "type": "logistic", "weights": [0.0] * 17,
            "class_weights": [1.0, 1.0], "feature_mean": [0.0] * 17,
            "feature_std": [1.0] * 17}))
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--model-file", model,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bias" in err

    @pytest.mark.parametrize("model_json, message", [
        ("[]", "must be an object"),
        (json.dumps({"type": "logistic", "weights": [0.0] * 17, "bias": 0.0,
                     "class_weights": [1.0], "feature_mean": [0.0] * 17,
                     "feature_std": [1.0] * 17}), "class_weights"),
        (json.dumps({"type": "logistic", "weights": [0.0] * 17, "bias": 0.0,
                     "class_weights": 5, "feature_mean": [0.0] * 17,
                     "feature_std": [1.0] * 17}), "malformed model JSON"),
        (gbt_json({}), "tree 0: node must be a leaf or a split, got keys []"),
        (gbt_json({"leaf": 0.0}, {"feature": 17, "threshold": 0.5,
                                  "left": {"leaf": 0.1},
                                  "right": {"leaf": -0.1}}),
         "tree 1: feature 17 not in [0, 17)"),
        (gbt_json({"feature": 2, "threshold": 0.5, "left": {"leaf": 0.1}}),
         "tree 0: node must be a leaf or a split, got keys ['feature', 'left'"),
    ], ids=["top_level_array", "one_class_weight", "scalar_class_weights",
            "gbt_empty_node", "gbt_feature_out_of_range", "gbt_missing_right"])
    def test_malformed_model_json_exits_1(self, tmp_path, capsys, model_json,
                                          message):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        model = tmp_path / "model.json"
        model.write_text(model_json)
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--model-file", model,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err

    def test_nonfinite_dataset_exits_1(self, tmp_path, capsys):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        dataset.write_text(dataset.read_text().replace(",0.25,", ",nan,", 1))
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--use-labels", "1",
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "line 2" in err

    def test_nonfinite_sample_exits_1(self, small_corpus, capsys):
        samples = small_corpus / "scene_001" / "samples.csv"
        header, first, rest = samples.read_text().split("\n", 2)
        samples.write_text("\n".join([header, "nan" + first[first.index(","):],
                                      rest]))
        assert run(["ingest", "--scenes-dir", small_corpus,
                    "--grid-rows", "70", "--grid-cols", "70"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "samples CSV line 2: non-finite value 'nan'" in err

    @pytest.mark.parametrize("cell, message", [
        ("inf", "grid-csv line 6: infinite value"),
        ("x", "grid-csv line 6: could not convert string to float: 'x'"),
    ], ids=["inf", "bad_token"])
    def test_bad_grid_cell_exits_1(self, tmp_path, capsys, cell, message):
        grid = tmp_path / "grid.csv"
        grid.write_text("#lat_min=31.5\n#lon_min=19.5\n#cell_size=0.045\n"
                        "#n_rows=2\n#n_cols=2\n1.0," + cell + "\n3.0,4.0\n")
        assert run(["enhance", "--grid-in", grid,
                    "--grid-out", tmp_path / "out.csv"]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: " + message]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("rows, message", [
        (["111_2019-04-01,0,0,0.9,2,1", "111_2019-04-02,0,0,0.9,1,1"],
         "line 2: pred must be 0 or 1"),
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,0.9,1,1",
          "111_2019-04-01,0,0,0.1,0,1"],
         "line 4: duplicate key 111_2019-04-01,0,0"),
        (["111_2019-04-01,0,0,0.9,1", "111_2019-04-02,0,0,0.9,1,1"],
         "line 2: wrong field count"),
        (["111_2019-04-01,0,0,abc,1,1", "111_2019-04-02,0,0,0.9,1,1"],
         "line 2: could not convert string to float: 'abc'"),
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,nan,1,1"],
         "line 3: non-finite value 'nan'"),
        (["111_2019-04-01,0,0,0.9,1,7", "111_2019-04-02,0,0,0.9,1,1"],
         "line 2: label must be 0 or 1"),
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,0.9,1,x"],
         "line 3: label must be 0 or 1"),
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,0.9,1,1",
          "999_2020-01-01,3,3,0.1,0,0"],
         "line 4: key 999_2020-01-01,3,3 not in the dataset"),
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,0.9,1,0"],
         "line 3: label 0 disagrees with the dataset"),
    ], ids=["pred_2", "repeated_key", "field_count", "score_abc", "score_nan",
            "label_7", "label_x", "foreign_key", "label_disagrees"])
    def test_bad_out_of_fold_rows_exit_1(self, tmp_path, capsys, rows,
                                         message):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        oof = tmp_path / "oof.csv"
        oof.write_text("\n".join(["group_id,row,col,score,pred,label", *rows])
                       + "\n")
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--predictions", oof,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: out-of-fold CSV " + message]

    @pytest.mark.parametrize("command", ["evaluate", "proxy-report"])
    @pytest.mark.parametrize("ship, message", [
        ("8.0,0.0", "ship_length must be > 0"),
        ("-1.0,100.0", "ship_speed must be >= 0"),
    ], ids=["zero_length", "negative_speed"])
    def test_bad_ship_length_or_speed_exits_1(self, tmp_path, capsys,
                                              command, ship, message):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        dataset.write_text(dataset.read_text().replace(",8.0,100.0,",
                                                       f",{ship},", 1))
        assert run([command, "--dataset-file", dataset, "--use-labels", "1",
                    "--outer-folds", "2", "--n-candidates", "1",
                    "--report-file", tmp_path / "report.json",
                    "--pr-file", tmp_path / "pr.csv",
                    "--oof-file", tmp_path / "oof.csv",
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: dataset CSV line 2: " + message]

    @pytest.mark.parametrize("row, message", [
        ("0,scene_000", "line 3: wrong field count"),
        ("0.5,scene_000,1554120000.0", "line 3: invalid literal for int()"),
        ("0,scene_000,inf", "line 3: non-finite value 'inf'"),
    ], ids=["field_count", "non_integer_index", "nonfinite_t_overpass"])
    def test_bad_manifest_exits_1(self, tmp_path, capsys, row, message):
        (tmp_path / "scenes.csv").write_text(
            "scene,dir,t_overpass\n\n" + row + "\n")
        assert run(["features", "--scenes-dir", tmp_path,
                    "--dataset-file", tmp_path / "dataset.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "scenes manifest CSV " + message in err

    @pytest.mark.parametrize("flags, message", [
        (["--inner-folds", "0", "--n-candidates", "3"],
         "outer and inner fold counts must be >= 2, got 5 and 0"),
        (["--outer-folds", "0"],
         "outer and inner fold counts must be >= 2, got 0 and 5"),
        (["--outer-folds", "1"],
         "outer and inner fold counts must be >= 2, got 1 and 5"),
        (["--n-candidates", "0"], "candidate count must be >= 1, got 0"),
    ], ids=["inner_0", "outer_0", "outer_1", "candidates_0"])
    def test_bad_fold_or_candidate_count_exits_1(self, tmp_path, capsys,
                                                 flags, message):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        report = tmp_path / "report.json"
        assert run(["evaluate", "--dataset-file", dataset,
                    "--model", "logistic", "--report-file", report,
                    "--pr-file", tmp_path / "pr.csv",
                    "--oof-file", tmp_path / "oof.csv", *flags]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: " + message]
        assert not report.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("flags, message", [
        (["--logistic-lr", "-0.5"],
         "logistic lr must be finite and > 0, got -0.5"),
        (["--logistic-lr", "nan"], "logistic lr must be finite and > 0, got nan"),
        # without a search; test_bad_gbt_or_searched_parameters_exit_1 has
        # the values the search replaces
        (["--logistic-l2", "-1", "--n-candidates", "1"],
         "logistic l2 must be finite and >= 0, got -1.0"),
        (["--logistic-max-iter", "-5", "--n-candidates", "1"],
         "logistic max_iter must be an int >= 1, got -5"),
    ], ids=["lr_negative", "lr_nan", "l2_negative", "max_iter_negative"])
    def test_bad_logistic_parameters_exit_1(self, tmp_path, capsys, command,
                                            flags, message):
        assert run_on_8_groups(tmp_path, command, "logistic", flags) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: " + message]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("flags, message", [
        (["--gbt-learning-rate", "nan"],
         "gbt learning_rate must be finite and > 0, got nan"),
        (["--gbt-learning-rate", "0"],
         "gbt learning_rate must be finite and > 0, got 0.0"),
        (["--gbt-n-trees", "-3"], "gbt n_trees must be an int >= 1, got -3"),
        (["--gbt-max-depth", "-2"], "gbt max_depth must be an int >= 1, got -2"),
        (["--gbt-max-depth", "0"], "gbt max_depth must be an int >= 1, got 0"),
        (["--gbt-subsample", "0"], "gbt subsample must be in (0, 1], got 0.0"),
        (["--gbt-subsample", "1.5"],
         "gbt subsample must be in (0, 1], got 1.5"),
        (["--gbt-colsample", "-1"],
         "gbt colsample must be in (0, 1], got -1.0"),
        (["--gbt-reg-alpha", "-1"],
         "gbt reg_alpha must be finite and >= 0, got -1.0"),
        (["--gbt-min-child-weight", "nan"],
         "gbt min_child_weight must be finite and >= 0, got nan"),
        (["--gbt-gamma", "inf"], "gbt gamma must be finite and >= 0, got inf"),
        (["--model", "logistic", "--logistic-l2", "-1"],
         "logistic l2 must be finite and >= 0, got -1.0"),
        (["--model", "logistic", "--logistic-max-iter", "-5"],
         "logistic max_iter must be an int >= 1, got -5"),
    ], ids=["lr_nan", "lr_zero", "n_trees_negative", "max_depth_negative",
            "max_depth_zero", "subsample_zero", "subsample_above_1",
            "colsample_negative", "reg_alpha_negative", "mcw_nan", "gamma_inf",
            "logistic_l2_negative", "logistic_max_iter_negative"])
    def test_bad_gbt_or_searched_parameters_exit_1(self, tmp_path, capsys,
                                                   command, flags, message):
        # evaluate runs a 3-candidate search, which replaces every value
        # here but n_trees and lr; the base values are checked before it
        assert run_on_8_groups(tmp_path, command, "gbt", flags) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: " + message]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv"]

    @pytest.mark.parametrize("key, value", [
        ("lat_min", "nan"), ("lon_min", "-inf"), ("cell_size", "inf"),
    ])
    def test_nonfinite_grid_header_exits_1(self, tmp_path, capsys, key,
                                           value):
        header = {"lat_min": "31.5", "lon_min": "19.5", "cell_size": "0.045",
                  "n_rows": "2", "n_cols": "2"}
        header[key] = value
        grid = tmp_path / "grid.csv"
        grid.write_text("".join(f"#{k}={v}\n" for k, v in header.items())
                        + "1.0,2.0\n3.0,4.0\n")
        out = tmp_path / "out.csv"
        assert run(["enhance", "--grid-in", grid, "--grid-out", out]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {key} must be finite"]
        assert not out.exists()

    def test_same_day_revisit_exits_1(self, tmp_path, capsys):
        # scene 1 is 100 min after scene 0 and shows the same ships
        t0 = 1554120000.0
        manifest = ["scene,dir,t_overpass"]
        for s, t in enumerate((t0, t0 + 6000.0)):
            scene = generate_scene(SceneConfig(seed=s, t_overpass=t))
            scene_to_inputs(scene, tmp_path / f"scene_{s}")
            manifest.append(f"{s},scene_{s},{t!r}")
        (tmp_path / "scenes.csv").write_text("\n".join(manifest) + "\n")
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", tmp_path,
                    "--dataset-file", dataset]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: group_id 200000001_2019-04-01 occurs in scenes "
            f"{tmp_path / 'scene_0'} and {tmp_path / 'scene_1'}"]
        assert not dataset.exists()


class TestWriteAtomic:
    def test_creates_parents_and_no_tmp_left(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "out.txt"
        write_atomic(target, "payload")
        assert target.read_text() == "payload"
        assert list(target.parent.glob("*.tmp")) == []

    def test_overwrites_previous(self, tmp_path):
        target = tmp_path / "out.txt"
        write_atomic(target, "one")
        write_atomic(target, "two")
        assert target.read_text() == "two"


class TestPipelineCommands:
    def test_synth_then_ingest_zero_drops(self, small_corpus, capsys):
        before = [(p, (small_corpus / p / "grid.csv").read_bytes())
                  for p in ("scene_000", "scene_001")]
        assert run(["ingest", "--scenes-dir", small_corpus,
                    "--grid-rows", "70", "--grid-cols", "70"]) == 0
        out = capsys.readouterr().out
        assert "samples_dropped=0" in out
        for name, payload in before:
            assert (small_corpus / name / "grid.csv").read_bytes() == payload

    def test_sectors_geojson(self, small_corpus, tmp_path):
        out = tmp_path / "sectors.geojson"
        assert run(["sectors", "--scenes-dir", small_corpus,
                    "--sectors-file", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["type"] == "FeatureCollection"
        assert len(obj["features"]) == 4

    def test_enhance_variants(self, small_corpus, tmp_path):
        grid_in = small_corpus / "scene_000" / "grid.csv"
        for variant in ("moran", "moran-high"):
            out = tmp_path / f"{variant}.csv"
            assert run(["enhance", "--grid-in", grid_in, "--grid-out", out,
                        "--variant", variant]) == 0
            assert out.exists()
        assert run(["enhance", "--grid-in", grid_in,
                    "--grid-out", tmp_path / "x.csv",
                    "--variant", "sharpen"]) == 1

    def test_features_train_evaluate_deterministic(self, small_corpus,
                                                   tmp_path, capsys):
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset]) == 0
        assert dataset.exists()

        model = tmp_path / "model.json"
        assert run(["train", "--dataset-file", dataset, "--model", "gbt",
                    "--model-file", model, "--gbt-n-trees", "10",
                    "--seed", "3"]) == 0
        assert json.loads(model.read_text())["type"] == "gbt"

        def evaluate(report):
            return run(["evaluate", "--dataset-file", dataset,
                        "--model", "logistic", "--outer-folds", "4",
                        "--n-candidates", "1", "--seed", "9",
                        "--logistic-max-iter", "60",
                        "--report-file", report,
                        "--pr-file", tmp_path / "pr.csv",
                        "--oof-file", tmp_path / "oof.csv"])

        r1 = tmp_path / "report1.json"
        r2 = tmp_path / "report2.json"
        assert evaluate(r1) == 0
        assert evaluate(r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_proxy_report_with_perfect_predictions(self, small_corpus,
                                                   tmp_path, capsys):
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset]) == 0
        proxy = tmp_path / "proxy.csv"
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--use-labels", "1", "--proxy-file", proxy]) == 0
        out = capsys.readouterr().out
        r = float(out.split("pearson_r=")[1].split()[0])
        assert r >= 0.99
        lines = proxy.read_text().splitlines()
        assert lines[0] == "mmsi,date,no2_sum,e_s"
        assert len(lines) == 5

    def test_proxy_per_ship_day(self, tmp_path):
        # the same ship on two days gets each day's own L^2 U^3
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        proxy = tmp_path / "proxy.csv"
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--use-labels", "1", "--proxy-file", proxy]) == 0
        assert proxy.read_text() == ("mmsi,date,no2_sum,e_s\n"
                                     "111,2019-04-01,2.0,5120000.0\n"
                                     "111,2019-04-02,5.0,17280000.0\n")

    def test_proxy_report_from_model(self, small_corpus, tmp_path):
        dataset = tmp_path / "dataset.csv"
        run(["features", "--scenes-dir", small_corpus,
             "--dataset-file", dataset])
        model = tmp_path / "model.json"
        run(["train", "--dataset-file", dataset, "--model", "no2",
             "--model-file", model])
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--model-file", model,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 0
