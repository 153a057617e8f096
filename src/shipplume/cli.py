"""Command-line pipeline: synth | ingest | sectors | enhance | features |
train | evaluate | proxy-report.

Configuration is a flat key=value file ('#' starts a comment) whose keys
mirror the command-line flags; explicit flags override the file. Outputs are
written atomically. Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import evaluation as ev
from . import models as md
from . import synth
from .enhance import moran_enhance, moran_on_high
from .fileio import write_atomic
from .grid import (GridSpec, _check_rules, _finite_number, grid_to_csv,
                   parse_grid_csv, parse_samples_csv, quality_filter, regrid,
                   table_to_csv)
from .pipeline import (PipelineParams, build_dataset_from_scenes,
                       map_scenes, read_manifest)
from .sector import sectors_to_geojson

_GBT, _LOGISTIC = md.DEFAULT_GBT_PARAMS, md.DEFAULT_LOGISTIC_PARAMS

# key -> (type, default, help)
KEYS: dict[str, tuple[type, object, str]] = {
    "scenes-dir": (str, "scenes", "directory holding scene subdirectories and scenes.csv"),
    "n-scenes": (int, 5, "number of scenes to synthesize"),
    "ships-per-scene": (int, 2, "ships per synthetic scene"),
    "grid-lat-min": (float, 31.5, "grid origin latitude (southern edge)"),
    "grid-lon-min": (float, 19.5, "grid origin longitude (western edge)"),
    "grid-cell-size": (float, 0.045, "grid cell size in degrees"),
    "grid-rows": (int, 60, "grid rows"),
    "grid-cols": (int, 60, "grid columns"),
    "noise-std": (float, 1.0, "background noise standard deviation"),
    "noise-corr-cells": (float, 0.0, "background correlation length in cells"),
    "emission-scale": (float, 3e-6, "plume mass per unit emission proxy"),
    "puff-sigma-m": (float, 3000.0, "puff Gaussian width in meters"),
    "decay-halflife-s": (float, 3600.0, "puff decay half-life in seconds"),
    "mask-tau": (float, 1.0, "mask threshold as a multiple of noise-std"),
    "wind-speed-min": (float, 2.0, "minimum sampled wind speed (m/s)"),
    "wind-speed-max": (float, 7.0, "maximum sampled wind speed (m/s)"),
    "start-epoch": (float, 1554120000.0, "overpass time of the first scene (UTC s)"),
    "qa-min": (float, 0.5, "keep samples with qa strictly above this"),
    "cloud-max": (float, 0.5, "keep samples with cloud fraction strictly below this"),
    "crop-half-extent": (float, 0.4, "plume image half extent in degrees"),
    "track-window-s": (float, 7200.0, "track duration before overpass (s)"),
    "track-step-s": (float, 300.0, "track resampling step (s)"),
    "wind-dspeed": (float, 5.0, "wind speed uncertainty margin (m/s)"),
    "wind-dangle": (float, 40.0, "wind direction uncertainty margin (deg)"),
    "n-levels": (int, 5, "radial sub-regions of the normalized sector"),
    "n-subsectors": (int, 5, "angular sub-regions of the normalized sector"),
    "min-speed-kt": (float, 14.0, "keep ships strictly faster than this"),
    "dedup-radius-deg": (float, 0.4, "duplicate-image clustering radius (deg)"),
    "dataset-file": (str, "dataset.csv", "feature dataset CSV"),
    "model-file": (str, "model.json", "trained model JSON"),
    "report-file": (str, "report.json", "cross-validation report JSON"),
    "pr-file": (str, "pr_curve.csv", "pooled precision-recall curve CSV"),
    "oof-file": (str, "oof.csv", "out-of-fold predictions CSV"),
    "proxy-file": (str, "proxy.csv", "per-ship estimate vs proxy CSV"),
    "sectors-file": (str, "sectors.geojson", "sector polygons GeoJSON"),
    "grid-in": (str, "grid.csv", "input raster for enhance"),
    "grid-out": (str, "grid_enhanced.csv", "output raster for enhance"),
    "variant": (str, "moran", "enhancement variant: moran | moran-high"),
    "model": (str, "gbt", "model family: no2 | moran | moran-high | logistic | gbt"),
    "seed": (int, 0, "random seed"),
    "outer-folds": (int, 5, "outer cross-validation folds"),
    "inner-folds": (int, 5, "inner cross-validation folds"),
    "n-candidates": (int, 10, "hyperparameter sets sampled per outer fold"),
    "cutoff": (float, 0.5, "probability cutoff for binary predictions"),
    "predictions": (str, "", "out-of-fold predictions CSV to score (proxy-report)"),
    "use-labels": (int, 0, "proxy-report: treat labels as predictions (1/0)"),
    "gbt-n-trees": (int, _GBT["n_trees"], "boosted trees: number of trees"),
    "gbt-max-depth": (int, _GBT["max_depth"], "boosted trees: maximum depth"),
    "gbt-learning-rate": (float, _GBT["learning_rate"], "boosted trees: shrinkage"),
    "gbt-subsample": (float, _GBT["subsample"], "boosted trees: row subsample fraction"),
    "gbt-colsample": (float, _GBT["colsample"], "boosted trees: feature subsample fraction"),
    "gbt-min-child-weight": (float, _GBT["min_child_weight"], "boosted trees: minimum child hessian"),
    "gbt-gamma": (float, _GBT["gamma"], "boosted trees: minimum split gain"),
    "gbt-reg-alpha": (float, _GBT["reg_alpha"], "boosted trees: L1 leaf regularization"),
    "logistic-l2": (float, _LOGISTIC["l2"], "logistic: L2 penalty"),
    "logistic-max-iter": (int, _LOGISTIC["max_iter"], "logistic: maximum iterations"),
    "logistic-lr": (float, _LOGISTIC["lr"], "logistic: gradient descent step"),
}

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value lines; '#' comments; unknown keys are fatal."""
    out: dict[str, object] = {}
    for k, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in KEYS:
            raise ValueError(f"unknown config key: {key}")
        try:
            out[key] = KEYS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"config line {k}: {key}: {exc}") from None
    return out


def merge_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default, _) in KEYS.items()}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in KEYS:
        attr = key.replace("-", "_")
        value = getattr(args, attr, None)
        if value is not None:
            cfg[key] = value
    return cfg


def pipeline_params(cfg: dict) -> PipelineParams:
    return PipelineParams(half_extent=cfg["crop-half-extent"],
                          window_s=cfg["track-window-s"],
                          step_s=cfg["track-step-s"],
                          dspeed=cfg["wind-dspeed"], dangle=cfg["wind-dangle"],
                          n_levels=cfg["n-levels"],
                          n_subsectors=cfg["n-subsectors"],
                          min_speed_kt=cfg["min-speed-kt"],
                          dedup_radius_deg=cfg["dedup-radius-deg"])


def grid_spec(cfg: dict) -> GridSpec:
    return GridSpec(lat_min=cfg["grid-lat-min"], lon_min=cfg["grid-lon-min"],
                    cell_size=cfg["grid-cell-size"], n_rows=cfg["grid-rows"],
                    n_cols=cfg["grid-cols"])


def base_params(cfg: dict) -> dict:
    """The model's fit parameters from its <model>-* keys, so gbt-max-depth
    becomes max_depth; families without such keys get none."""
    prefix = cfg["model"] + "-"
    return {key[len(prefix):].replace("-", "_"): value
            for key, value in cfg.items() if key.startswith(prefix)}


def cmd_synth(cfg: dict) -> None:
    scene_kwargs = {
        "grid": grid_spec(cfg),
        "n_ships": cfg["ships-per-scene"],
        "noise_std": cfg["noise-std"],
        "noise_corr_cells": cfg["noise-corr-cells"],
        "emission_scale": cfg["emission-scale"],
        "puff_sigma_m": cfg["puff-sigma-m"],
        "decay_halflife_s": cfg["decay-halflife-s"],
        "mask_tau": cfg["mask-tau"],
        "wind_speed_range": (cfg["wind-speed-min"], cfg["wind-speed-max"]),
        "window_s": cfg["track-window-s"],
        "step_s": cfg["track-step-s"],
    }
    manifest, n_ships = synth.generate_corpus(
        cfg["scenes-dir"], cfg["n-scenes"], params=pipeline_params(cfg),
        scene_kwargs=scene_kwargs, seed=cfg["seed"],
        start_epoch=cfg["start-epoch"])
    print(f"synth: scenes={cfg['n-scenes']} ships={n_ships} "
          f"seed={cfg['seed']} manifest={manifest}")


def cmd_ingest(cfg: dict) -> None:
    limits = {"qa_min": cfg["qa-min"], "cloud_max": cfg["cloud-max"]}
    _check_rules("ingest", limits,
                 dict.fromkeys(limits, ("finite", _finite_number)))
    refs = read_manifest(Path(cfg["scenes-dir"]) / "scenes.csv")
    spec = grid_spec(cfg)
    kept = dropped = 0
    for ref in refs:
        try:
            samples = parse_samples_csv((ref.path / "samples.csv").read_text())
        except ValueError as exc:
            raise ValueError(f"scene {ref.path}: {exc}") from None
        good = quality_filter(samples, **limits)
        kept += len(good)
        dropped += len(samples) - len(good)
        write_atomic(ref.path / "grid.csv", grid_to_csv(regrid(good, spec)))
    print(f"ingest: scenes={len(refs)} samples_kept={kept} "
          f"samples_dropped={dropped}")


def cmd_sectors(cfg: dict) -> None:
    params = pipeline_params(cfg)
    refs = read_manifest(Path(cfg["scenes-dir"]) / "scenes.csv")
    parts = map_scenes(refs, params, lambda ims, *_: [im.sector for im in ims])
    sectors = [sector for _, part in parts for sector in part]
    write_atomic(cfg["sectors-file"], sectors_to_geojson(sectors))
    print(f"sectors: scenes={len(refs)} sectors={len(sectors)} "
          f"out={cfg['sectors-file']}")


def cmd_enhance(cfg: dict) -> None:
    image = parse_grid_csv(Path(cfg["grid-in"]).read_text())
    if cfg["variant"] == "moran":
        out = moran_enhance(image)
    elif cfg["variant"] == "moran-high":
        out = moran_on_high(image)
    else:
        raise ValueError(f"unknown enhancement variant: {cfg['variant']}")
    write_atomic(cfg["grid-out"], grid_to_csv(out))
    print(f"enhance: variant={cfg['variant']} in={cfg['grid-in']} "
          f"out={cfg['grid-out']}")


def cmd_features(cfg: dict) -> None:
    manifest = Path(cfg["scenes-dir"]) / "scenes.csv"
    dataset, counts = build_dataset_from_scenes(manifest, pipeline_params(cfg))
    ds_mod.write_dataset(cfg["dataset-file"], dataset, write_atomic)
    neg, pos = dataset.class_counts
    skips = sum(n for reason, n in counts.items() if reason != "ships")
    print(f"features: ships={counts.get('ships', 0)} skipped={skips} "
          f"rows={len(dataset)} positives={pos} negatives={neg} "
          f"dropped_nonfinite={dataset.n_dropped} out={cfg['dataset-file']}")
    for reason in sorted(counts.keys() - {"ships"}):
        print(f"features: skipped {counts[reason]}: {reason}", file=sys.stderr)


def cmd_train(cfg: dict) -> None:
    dataset = ds_mod.read_dataset(cfg["dataset-file"])
    family = cfg["model"]
    model = md.fit_family(family, dataset.X, dataset.require_labels(),
                          dataset.moran_high, base_params(cfg),
                          seed=cfg["seed"])
    write_atomic(cfg["model-file"], md.model_to_json(model))
    print(f"train: model={family} rows={len(dataset)} "
          f"seed={cfg['seed']} out={cfg['model-file']}")


def cmd_evaluate(cfg: dict) -> None:
    dataset = ds_mod.read_dataset(cfg["dataset-file"])
    report = ev.nested_cv(dataset, cfg["model"], n_outer=cfg["outer-folds"],
                          n_inner=cfg["inner-folds"],
                          n_candidates=cfg["n-candidates"], seed=cfg["seed"],
                          base_params=base_params(cfg))
    write_atomic(cfg["report-file"], ev.report_to_json(report))
    write_atomic(cfg["pr-file"], table_to_csv(report.pr_points))
    write_atomic(cfg["oof-file"], ev.oof_to_csv(dataset, report))
    ap_mean, ap_std = report.summary["ap"]
    print(f"evaluate: model={cfg['model']} folds={cfg['outer-folds']} "
          f"seed={cfg['seed']} ap={ap_mean:.4f}+-{ap_std:.4f} "
          f"out={cfg['report-file']}")


def _predictions_for_proxy(cfg: dict, dataset) -> np.ndarray:
    if cfg["use-labels"]:
        return dataset.require_labels()
    if cfg["predictions"]:
        return ev.oof_predictions(dataset,
                                  Path(cfg["predictions"]).read_text())
    model = md.parse_model_json(Path(cfg["model-file"]).read_text())
    scores = md.predict_scores(model, dataset.X, dataset.moran_high)
    return md.predict_labels(model, scores, cutoff=cfg["cutoff"])


def cmd_proxy_report(cfg: dict) -> None:
    dataset = ds_mod.read_dataset(cfg["dataset-file"])
    preds = _predictions_for_proxy(cfg, dataset)
    table = ev.ship_estimates(dataset, preds)
    r = ev.proxy_correlation(table)   # raises before any file is written
    write_atomic(cfg["proxy-file"], ev.estimates_to_csv(table))
    n_zero = int(np.sum(table.n_plume_pixels == 0))
    print(f"proxy-report: ships={len(table)} zero_prediction={n_zero} "
          f"pearson_r={r:.4f} out={cfg['proxy-file']}")


DISPATCH = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "sectors": cmd_sectors,
    "enhance": cmd_enhance,
    "features": cmd_features,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "proxy-report": cmd_proxy_report,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="shipplume",
                     description="Ship NO2 plume segmentation pipeline")
    parser.add_argument("command", choices=DISPATCH)
    parser.add_argument("--config", default=None, help="key=value config file")
    for key, (caster, _, help_text) in KEYS.items():
        parser.add_argument(f"--{key}", type=caster, default=None,
                            dest=key.replace("-", "_"), help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help (0) or flag errors (1)
        return int(exc.code or 0)
    try:
        cfg = merge_config(args)
        DISPATCH[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
