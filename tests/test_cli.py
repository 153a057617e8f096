import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from shipplume import evaluation, parallel
from shipplume.cli import main, parse_config_file
from shipplume.dataset import dataset_header, dataset_to_csv
from shipplume.fileio import sidecar, write_atomic
from shipplume.pipeline import PipelineParams, read_manifest, scene_images
from shipplume.synth import SceneConfig, generate_scene, scene_to_inputs

from conftest import BRIGHT, assert_no_child, columns_dataset


def run(argv):
    code = main([str(a) for a in argv])
    assert_no_child()  # every worker reaped
    return code


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


def gbt_json(*trees, **fields):
    """A GBT model file for 17 features with the given trees; fields
    replace the defaults."""
    return json.dumps({"type": "gbt", "trees": list(trees),
                       "learning_rate": 0.3, "max_depth": 3,
                       "n_trees": len(trees), "min_child_weight": 1.0,
                       "subsample": 1.0, "colsample": 1.0, "gamma": 0.0,
                       "reg_alpha": 0.0, "n_features": 17, **fields})


def logistic_json(**fields):
    """A zero-weight logistic model file for 17 features; fields replace
    the defaults."""
    return json.dumps({"type": "logistic", "weights": [0.0] * 17,
                       "bias": 0.0, "class_weights": [1.0, 1.0],
                       "feature_mean": [0.0] * 17, "feature_std": [1.0] * 17,
                       **fields})


@pytest.fixture(scope="module")
def seed3_dataset(tmp_path_factory):
    """The dataset of a 4-scene corpus whose outer fold 3 (5 folds, seed 0)
    holds only ships without plume pixels."""
    root = tmp_path_factory.mktemp("seed3")
    assert main(["synth", "--scenes-dir", str(root / "scenes"), "--seed", "3",
                 "--n-scenes", "4", "--emission-scale", "2e-6"]) == 0
    assert main(["features", "--scenes-dir", str(root / "scenes"),
                 "--dataset-file", str(root / "dataset.csv")]) == 0
    return root / "dataset.csv"


def negative_speed(lines):
    """AIS CSV lines whose first record has speed_kt -0.5."""
    fields = lines[1].split(",")
    fields[4] = "-0.5"
    return [lines[0], ",".join(fields), *lines[2:]]


def non_float_lat(lines):
    """samples CSV lines whose first sample has lat abc."""
    return [lines[0], "abc" + lines[1][lines[1].index(","):], *lines[2:]]


def non_integer_n_rows(lines):
    """grid-csv lines with the header #n_rows=abc."""
    return ["#n_rows=abc" if ln.startswith("#n_rows=") else ln for ln in lines]


def grid_sidecars(grid):
    """Leave next to grid, in turn, a stale sidecar (of another grid), a
    damaged one, a foreign one (another file kind's members under the grid
    text's own digest) and none; yields each one's name. No reader writes
    a sidecar back."""
    def npz(text, **arrays):
        out = io.BytesIO()
        sidecar([text.encode()], lambda: arrays)(out)
        return out.getvalue()

    stale = npz("#lat_min=31.5\n", spec=np.array([31.5, 19.5, 0.045]),
                values=np.ones((2, 2)))
    path = Path(f"{grid}.npz")
    for name, data in {"stale": stale, "damaged": stale[:len(stale) // 2],
                       "foreign": npz(grid.read_text(), rows=np.arange(2)),
                       "none": None}.items():
        path.unlink(missing_ok=True)
        if data is not None:
            path.write_bytes(data)
        yield name
    assert not path.exists()


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

    def test_bad_config_value_names_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# seed below\nn-scenes=2\nseed=abc\n")
        assert run(["synth", "--config", cfg,
                    "--scenes-dir", tmp_path / "scenes"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: config line 3: seed: invalid literal for int() with "
            "base 10: 'abc'"]
        assert not (tmp_path / "scenes").exists()


class TestBadInputs:
    def test_grid_without_cell_size_exits_1(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("#lat_min=31.5\n#lon_min=19.5\n#n_rows=1\n"
                        "#n_cols=2\n1.0,2.0\n")
        for _ in grid_sidecars(grid):
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
        (logistic_json(bias=float("nan")),
         "model JSON bias must be a finite number, got nan"),
        (logistic_json(weights=[float("inf")] + [0.0] * 16),
         "model JSON weights must be finite, 1-D and as long as weights"),
        (logistic_json(feature_mean=[0.0] * 16),
         "model JSON feature_mean must be finite, 1-D and as long as weights"),
        (logistic_json(feature_std=[0.0] * 17),
         "model JSON feature_std must be > 0"),
        (gbt_json({"leaf": 0.0}, learning_rate="abc"),
         "model JSON gbt learning_rate must be finite and > 0, got 'abc'"),
        (gbt_json({"leaf": 0.0}, n_features="17"),
         "model JSON gbt n_features must be an int >= 1, got '17'"),
    ], ids=["top_level_array", "one_class_weight", "scalar_class_weights",
            "gbt_empty_node", "gbt_feature_out_of_range", "gbt_missing_right",
            "nan_bias", "inf_weight", "short_feature_mean", "zero_feature_std",
            "gbt_string_learning_rate", "gbt_string_n_features"])
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
        assert not (tmp_path / "proxy.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "sectors", "features"])
    @pytest.mark.parametrize("flags, message", [
        (["--crop-half-extent", "0"], "half_extent must be finite and > 0, got 0.0"),
        (["--track-step-s", "0"], "step_s must be finite and > 0, got 0.0"),
        (["--track-step-s", "inf"], "step_s must be finite and > 0, got inf"),
        (["--track-window-s", "0"],
         "window_s must be finite and >= step_s, got 0.0"),
        (["--track-window-s", "100"],
         "window_s must be finite and >= step_s, got 100.0"),
        (["--wind-dspeed", "nan"], "dspeed must be finite and >= 0, got nan"),
        (["--wind-dangle", "0"], "dangle must be in (0, 180), got 0.0"),
        (["--wind-dangle", "180"], "dangle must be in (0, 180), got 180.0"),
        (["--wind-dangle", "nan"], "dangle must be in (0, 180), got nan"),
        (["--n-levels", "0"], "n_levels must be an int >= 1, got 0"),
        (["--n-subsectors", "0"], "n_subsectors must be an int >= 1, got 0"),
        (["--n-subsectors", "-2"], "n_subsectors must be an int >= 1, got -2"),
        (["--min-speed-kt", "nan"],
         "min_speed_kt must be finite and >= 0, got nan"),
        (["--dedup-radius-deg", "-0.1"],
         "dedup_radius_deg must be finite and >= 0, got -0.1"),
    ], ids=["half_extent_zero", "step_zero", "step_inf", "window_zero",
            "window_below_step", "dspeed_nan", "dangle_zero", "dangle_180",
            "dangle_nan", "levels_zero", "subsectors_zero",
            "subsectors_negative", "min_speed_nan", "dedup_negative"])
    def test_bad_pipeline_parameters_exit_1(self, tmp_path, capsys, command,
                                            flags, message):
        # checked before any scene is read or written
        assert run([command, "--scenes-dir", tmp_path / "scenes",
                    "--dataset-file", tmp_path / "dataset.csv",
                    "--sectors-file", tmp_path / "sectors.geojson",
                    *flags]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: pipeline " + message]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        (["--mask-tau", "nan"], "mask_tau must be finite and > 0, got nan"),
        (["--emission-scale", "nan"],
         "emission_scale must be finite and >= 0, got nan"),
        (["--decay-halflife-s", "nan"],
         "decay_halflife_s must be finite and > 0, got nan"),
        (["--decay-halflife-s", "0"],
         "decay_halflife_s must be finite and > 0, got 0.0"),
        (["--puff-sigma-m", "inf"],
         "puff_sigma_m must be finite and > 0, got inf"),
        (["--noise-corr-cells", "-1"],
         "noise_corr_cells must be finite and >= 0, got -1.0"),
        (["--wind-speed-min", "nan"], "wind_speed_range must be finite "
         "with 0 <= min <= max, got (nan, 7.0)"),
        (["--wind-speed-min", "8"], "wind_speed_range must be finite "
         "with 0 <= min <= max, got (8.0, 7.0)"),
        (["--start-epoch", "nan"], "t_overpass must be finite, got nan"),
        (["--ships-per-scene", "0"], "n_ships must be an int >= 1, got 0"),
    ], ids=["mask_tau_nan", "emission_nan", "halflife_nan", "halflife_zero",
            "sigma_inf", "corr_negative", "wind_min_nan", "wind_min_above_max",
            "epoch_nan", "no_ships"])
    def test_bad_scene_settings_exit_1(self, tmp_path, capsys, flags, message):
        # checked before any scene is written
        assert run(["synth", "--scenes-dir", tmp_path / "scenes",
                    "--n-scenes", "1", *flags]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: scene " + message]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("cutoff", ["nan", "2", "-1", "inf"])
    def test_bad_cutoff_exits_1(self, tmp_path, capsys, cutoff):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        model = tmp_path / "model.json"
        model.write_text(logistic_json())
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--model-file", model, "--cutoff", cutoff,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: cutoff must be finite and in [0, 1], "
            f"got {float(cutoff)!r}"]

    def test_nonfinite_dataset_exits_1(self, tmp_path, capsys):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        dataset.write_text(dataset.read_text().replace(",0.25,", ",nan,", 1))
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--use-labels", "1",
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "line 2" in err

    @pytest.mark.parametrize("field", [1, 2], ids=["row", "col"])
    def test_key_beyond_int64_exits_1(self, tmp_path, capsys, field):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        lines = dataset.read_text().splitlines()
        fields = lines[2].split(",")
        fields[field] = "99999999999999999999"
        dataset.write_text("\n".join([*lines[:2], ",".join(fields)]) + "\n")
        assert run(["train", "--dataset-file", dataset, "--model", "no2",
                    "--model-file", tmp_path / "model.json"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: dataset CSV line 3: row and col must fit in int64"]
        assert not (tmp_path / "model.json").exists()

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

    @pytest.mark.parametrize("key", ["qa-min", "cloud-max"])
    def test_nonfinite_quality_limit_exits_1(self, small_corpus, capsys, key):
        # checked before any grid is written
        grids = sorted(small_corpus.glob("*/grid.csv"))
        before = [p.read_bytes() for p in grids]
        assert run(["ingest", "--scenes-dir", small_corpus, f"--{key}", "nan",
                    "--grid-rows", "70", "--grid-cols", "70"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: ingest {key.replace('-', '_')} must be finite, got nan"]
        assert [p.read_bytes() for p in grids] == before

    @pytest.mark.parametrize("n_scenes", ["0", "-3"])
    def test_no_scenes_exits_1(self, tmp_path, capsys, n_scenes):
        assert run(["synth", "--scenes-dir", tmp_path / "scenes",
                    "--n-scenes", n_scenes]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: corpus n_scenes must be an int >= 1, got {n_scenes}"]
        assert not any(tmp_path.iterdir())

    def test_train_on_a_dataset_without_rows_exits_1(self, small_corpus,
                                                      tmp_path, capsys):
        # features writes a header-only dataset when it skips every ship
        for labels in small_corpus.glob("*/labels.csv"):
            labels.unlink()   # labels of skipped ships would be orphans
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset, "--min-speed-kt", "100"]) == 0
        assert dataset.read_text() == dataset_header() + "\n"
        capsys.readouterr()
        for model in ("no2", "moran", "moran-high", "logistic", "gbt"):
            assert run(["train", "--dataset-file", dataset, "--model", model,
                        "--model-file", tmp_path / "model.json"]) == 1
            assert capsys.readouterr().err.strip().splitlines() == [
                "error: degenerate labels"]
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("cell, message", [
        ("inf", "grid-csv line 6: infinite value"),
        ("x", "grid-csv line 6: could not convert string to float: 'x'"),
    ], ids=["inf", "bad_token"])
    def test_bad_grid_cell_exits_1(self, tmp_path, capsys, cell, message):
        grid = tmp_path / "grid.csv"
        grid.write_text("#lat_min=31.5\n#lon_min=19.5\n#cell_size=0.045\n"
                        "#n_rows=2\n#n_cols=2\n1.0," + cell + "\n3.0,4.0\n")
        for _ in grid_sidecars(grid):
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
        # a group_id that extends a dataset id is another key
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-02,0,0,0.9,1,1",
          "111_2019-04-01x,0,0,0.1,0,1"],
         "line 4: key 111_2019-04-01x,0,0 not in the dataset"),
        # rows compare as numbers, messages quote the fields as written
        (["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-01,00,0,0.1,0,1"],
         "line 3: duplicate key 111_2019-04-01,00,0"),
    ], ids=["pred_2", "repeated_key", "field_count", "score_abc", "score_nan",
            "label_7", "label_x", "foreign_key", "label_disagrees",
            "extended_group_id", "repeated_padded_key"])
    def test_bad_out_of_fold_rows_exit_1(self, tmp_path, capsys, rows,
                                         message):
        assert self.proxy_report_on(tmp_path, rows) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: out-of-fold CSV " + message]

    @staticmethod
    def proxy_report_on(tmp_path, rows):
        """proxy-report's exit code on revisit_dataset's two rows with an
        out-of-fold file of the given rows."""
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        oof = tmp_path / "oof.csv"
        oof.write_text("\n".join(["group_id,row,col,score,pred,label", *rows])
                       + "\n")
        return run(["proxy-report", "--dataset-file", dataset,
                    "--predictions", oof,
                    "--proxy-file", tmp_path / "proxy.csv"])

    def test_out_of_fold_file_without_a_dataset_row_exits_1(self, tmp_path,
                                                            capsys):
        # reported after the whole file, without a line number
        assert self.proxy_report_on(
            tmp_path, ["111_2019-04-01,0,0,0.9,1,1"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: missing prediction for 111_2019-04-02,0,0"]
        assert not (tmp_path / "proxy.csv").exists()

    def test_signed_and_padded_out_of_fold_rows_match(self, tmp_path):
        rows = ["111_2019-04-01,+0,00,0.9,1,1", "111_2019-04-02,00,-0,0.9,1,1"]
        assert self.proxy_report_on(tmp_path, rows) == 0

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

    @pytest.mark.parametrize("command", ["evaluate", "proxy-report"])
    def test_repeated_dataset_key_exits_1(self, tmp_path, capsys, command):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        header, first, second = dataset.read_text().splitlines()
        dataset.write_text("\n".join([header, first, second, first]) + "\n")
        assert run([command, "--dataset-file", dataset, "--model", "no2",
                    "--use-labels", "1",
                    "--report-file", tmp_path / "report.json",
                    "--pr-file", tmp_path / "pr.csv",
                    "--oof-file", tmp_path / "oof.csv",
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: dataset CSV line 4: duplicate key 111_2019-04-01,0,0"]
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]

    @pytest.mark.parametrize("no2, message", [
        (None, "insufficient ships"), ("2.0", "zero variance"),
    ], ids=["insufficient_ships", "zero_variance"])
    def test_failed_proxy_report_writes_no_file(self, tmp_path, capsys, no2,
                                                message):
        dataset = revisit_dataset(tmp_path / "dataset.csv")
        oof = tmp_path / "oof.csv"
        pred = "0"
        if no2 is not None:   # both ship-days predicted, with equal NO2
            dataset.write_text(dataset.read_text().replace(",5.0,", f",{no2},"))
            pred = "1"
        oof.write_text("group_id,row,col,score,pred,label\n"
                       f"111_2019-04-01,0,0,0.5,{pred},1\n"
                       f"111_2019-04-02,0,0,0.5,{pred},1\n")
        assert run(["proxy-report", "--dataset-file", dataset,
                    "--predictions", oof,
                    "--proxy-file", tmp_path / "proxy.csv"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: " + message]
        assert not (tmp_path / "proxy.csv").exists()

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

    def test_error_in_a_worker_fold_exits_1(self, tmp_path, capsys,
                                            monkeypatch):
        caller = os.getpid()
        real_fit = evaluation.fit_family

        def fit(*args):
            if os.getpid() != caller:
                raise ValueError("divergence (try a smaller lr)")
            return real_fit(*args)

        # the caller runs outer fold 0, a forked worker fold 1 (the
        # threshold families fork no worker)
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        monkeypatch.setattr(evaluation, "fit_family", fit)
        assert run_on_8_groups(tmp_path, "evaluate", "logistic",
                               ["--n-candidates", "1"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: divergence (try a smaller lr)"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("model", ["moran", "logistic"])
    def test_outer_fold_without_positives_exits_1(
            self, seed3_dataset, tmp_path, capsys, monkeypatch, model,
            workers):
        fits = tmp_path / "fits.txt"
        real_fit = evaluation.fit_family

        def fit(*args):
            with open(fits, "a") as fh:   # forked workers append too
                fh.write("fit\n")
            return real_fit(*args)

        monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
        monkeypatch.setattr(evaluation, "fit_family", fit)
        out = tmp_path / "out"
        assert run(["evaluate", "--dataset-file", seed3_dataset,
                    "--model", model, "--n-candidates", "1",
                    "--report-file", out, "--pr-file", out,
                    "--oof-file", out]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: outer fold 3 has no positive labels"]
        assert not out.exists()
        # the fold is checked while the plan is built, before any fit
        assert not fits.exists()

    @pytest.mark.parametrize("command, scene, scene_file, edit, message", [
        ("features", "scene_001", "ais.csv", negative_speed,
         "AIS CSV line 2: speed_kt must be >= 0"),
        *[(command, "scene_002", "grid.csv", non_integer_n_rows,
           "grid-csv header #n_rows=: invalid literal for int() with base "
           "10: 'abc'") for command in ("features", "sectors")],
        ("ingest", "scene_001", "samples.csv", non_float_lat,
         "samples CSV line 2: could not convert string to float: 'abc'"),
    ], ids=["ais_negative_speed", "grid_n_rows_abc", "sectors-grid_n_rows_abc",
            "ingest-samples_lat_abc"])
    def test_bad_scene_file_row_exits_1(self, small_corpus, tmp_path, capsys,
                                        command, scene, scene_file, edit,
                                        message):
        path = small_corpus / scene / scene_file
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        for _ in grid_sidecars(path) if scene_file == "grid.csv" else [None]:
            assert run([command, "--scenes-dir", small_corpus,
                        "--dataset-file", out, "--sectors-file", out]) == 1
            # one line that names the scene directory, as the manifest
            # gives it
            assert capsys.readouterr().err.strip().splitlines() == [
                f"error: scene {small_corpus / scene}: {message}"]
            assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("lat_min", "nan", "lat_min must be finite"),
        ("lon_min", "-inf", "lon_min must be finite"),
        ("cell_size", "inf", "cell_size must be finite"),
        ("n_rows", "abc", "grid-csv header #n_rows=: invalid literal for "
         "int() with base 10: 'abc'"),
        ("n_rows", "3.5", "grid-csv header #n_rows=: invalid literal for "
         "int() with base 10: '3.5'"),
        ("cell_size", "abc", "grid-csv header #cell_size=: could not "
         "convert string to float: 'abc'"),
    ], ids=["lat_min-nan", "lon_min--inf", "cell_size-inf", "n_rows-abc",
            "n_rows-3.5", "cell_size-abc"])
    def test_nonfinite_grid_header_exits_1(self, tmp_path, capsys, key,
                                           value, message):
        header = {"lat_min": "31.5", "lon_min": "19.5", "cell_size": "0.045",
                  "n_rows": "2", "n_cols": "2"}
        header[key] = value
        # the grid of enhance, and of the one scene of a features corpus,
        # which is read before any other file of the scene
        grid = tmp_path / "scene_0" / "grid.csv"
        grid.parent.mkdir()
        grid.write_text("".join(f"#{k}={v}\n" for k, v in header.items())
                        + "1.0,2.0\n3.0,4.0\n")
        (tmp_path / "scenes.csv").write_text(
            "scene,dir,t_overpass\n0,scene_0,1554120000.0\n")
        out = tmp_path / "out.csv"
        dataset = tmp_path / "dataset.csv"
        for _ in grid_sidecars(grid):
            assert run(["enhance", "--grid-in", grid, "--grid-out", out]) == 1
            assert run(["features", "--scenes-dir", tmp_path,
                        "--dataset-file", dataset]) == 1
            assert capsys.readouterr().err.strip().splitlines() == [
                f"error: {message}", f"error: scene {grid.parent}: {message}"]
            assert not out.exists()
            assert not dataset.exists()

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

    def test_masked_labelled_pixel_is_an_orphan_of_its_scene(self, tmp_path,
                                                             capsys):
        # cloud-masked cells inside a labelled plume: 15% of every grid's
        # cells become nan, labels.csv stays as synth wrote it
        scenes = tmp_path / "scenes"
        assert run(["synth", "--scenes-dir", scenes, "--seed", "3",
                    "--n-scenes", "4", "--emission-scale", "2e-6"]) == 0
        rng = np.random.default_rng(0)
        for grid in sorted(scenes.glob("scene_*/grid.csv")):
            lines = grid.read_text().splitlines()
            body = np.array([line.split(",") for line in lines[5:]],
                            dtype=object)
            body[rng.random(body.shape) < 0.15] = "nan"
            grid.write_text("\n".join([*lines[:5], *map(",".join, body)])
                            + "\n")
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", scenes,
                    "--dataset-file", dataset]) == 1
        key = "200000001_2019-04-01,8,9"
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: scene {scenes / 'scene_000'}: orphan label: {key}"]
        labels = (scenes / "scene_000" / "labels.csv").read_text()
        assert f"\n{key},1\n" in labels
        assert not dataset.exists()

    def test_label_of_another_scenes_pixel_is_an_orphan(self, small_corpus,
                                                        tmp_path, capsys):
        # scene 0's labels.csv also names a plume pixel of scene 1's ship
        moved = (small_corpus / "scene_001" / "labels.csv").read_text(
            ).splitlines()[1]
        labels = small_corpus / "scene_000" / "labels.csv"
        labels.write_text(labels.read_text() + moved + "\n")
        dataset = tmp_path / "dataset.csv"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: scene {small_corpus / 'scene_000'}: orphan label: "
            f"{moved.rsplit(',', 1)[0]}"]
        assert not dataset.exists()

    @pytest.mark.parametrize("wind_rows", [True, False],
                             ids=["wind", "header_only_wind"])
    def test_only_features_reads_labels(self, small_corpus, tmp_path, capsys,
                                        wind_rows):
        """A malformed labels.csv stops features alone, before any error of
        the ship pass; sectors, and synth run again into the same
        directory, do not read it."""
        scene = small_corpus / "scene_000"
        labels = scene / "labels.csv"
        written = labels.read_text()
        labels.write_text(written + "200000001_2019-04-01,0,0,7\n")
        if not wind_rows:
            wind = scene / "wind.csv"
            wind.write_text(wind.read_text().splitlines()[0] + "\n")
        dataset, sectors = tmp_path / "dataset.csv", tmp_path / "sectors.json"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset]) == 1
        assert run(["sectors", "--scenes-dir", small_corpus,
                    "--sectors-file", sectors]) == (0 if wind_rows else 1)
        line = len(written.splitlines()) + 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: scene {scene}: labels CSV line {line}: label must be 0 "
            "or 1", *([] if wind_rows else
                      [f"error: scene {scene}: no wind samples"])]
        assert not dataset.exists() and sectors.exists() == wind_rows
        assert run(["synth", "--scenes-dir", small_corpus, "--n-scenes", "4",
                    "--seed", "5", *BRIGHT]) == 0
        assert labels.read_text() == written


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

    def test_binary_writer_gets_the_temp_file(self, tmp_path):
        target = tmp_path / "out.bin"
        seen = []

        def write(fh):
            seen.append(Path(fh.name).name)
            fh.write(b"\x00\xff")

        write_atomic(target, write)
        assert target.read_bytes() == b"\x00\xff"
        assert seen == ["out.bin.tmp"]
        assert list(tmp_path.iterdir()) == [target]


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

    def test_sectors_are_those_of_the_feature_images(self, small_corpus,
                                                      tmp_path, capsys):
        # scenes 0-2 lose their ship: no registry entry, 10 kt, off the grid
        def edit(scene, name, change):
            path = small_corpus / scene / name
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header, *map(change, rows)]) + "\n")
            (small_corpus / scene / "labels.csv").unlink(missing_ok=True)

        def field(k, change):
            return lambda row: ",".join(change(f) if i == k else f
                                        for i, f in enumerate(row.split(",")))

        edit("scene_000", "ships.csv", field(0, lambda f: "1"))
        edit("scene_001", "ais.csv", field(4, lambda f: "10.0"))
        edit("scene_002", "ais.csv", field(2, lambda f: str(float(f) + 10)))
        dataset = tmp_path / "dataset.csv"
        sectors = tmp_path / "sectors.geojson"
        assert run(["features", "--scenes-dir", small_corpus,
                    "--dataset-file", dataset]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "features: skipped 1: center out of bounds",
            "features: skipped 1: no registry entry",
            "features: skipped 1: speed/duplicate selection"]
        assert run(["sectors", "--scenes-dir", small_corpus,
                    "--sectors-file", sectors]) == 0

        expected = set()
        for ref in read_manifest(small_corpus / "scenes.csv"):
            images, _ = scene_images(ref.path, ref.t_overpass,
                                     PipelineParams())
            expected |= {(im.info.mmsi, tuple((lon, lat) for lat, lon
                                              in im.sector.polygon))
                         for im in images}
        written = {(f["properties"]["mmsi"],
                    tuple(map(tuple, f["geometry"]["coordinates"][0][:-1])))
                   for f in json.loads(sectors.read_text())["features"]}
        assert written == expected and len(written) == 1
        rows = dataset.read_text().splitlines()[1:]
        assert {int(r.split("_")[0]) for r in rows} == {m for m, _ in written}

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
