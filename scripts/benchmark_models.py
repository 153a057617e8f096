"""Benchmark every model family on a synthetic corpus.

Generates scenes, assembles the feature dataset, runs group cross-validation
per family, and prints a results table plus the per-ship emission-proxy
correlations. With --n-candidates > 1 the inner randomized search is active.

Usage:
    python3 scripts/benchmark_models.py --scenes 40 --seed 42 --out /tmp/bench
"""

import argparse
import sys
import tempfile
import time

from shipplume.evaluation import nested_cv, proxy_correlation, ship_estimates
from shipplume.pipeline import PipelineParams, build_dataset_from_scenes
from shipplume.synth import generate_corpus

FAMILIES = ("no2", "moran", "moran-high", "logistic", "gbt")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenes", type=int, default=40)
    ap.add_argument("--ships-per-scene", type=int, default=2)
    ap.add_argument("--emission-scale", type=float, default=2e-6)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n-candidates", type=int, default=1)
    ap.add_argument("--gbt-n-trees", type=int, default=60)
    ap.add_argument("--out", default=None, help="scene directory (default: temp)")
    args = ap.parse_args(argv)

    out = args.out or tempfile.mkdtemp(prefix="shipplume_bench_")
    params = PipelineParams()
    t0 = time.time()
    manifest, n_ships = generate_corpus(
        out, args.scenes, params=params, seed=args.seed,
        scene_kwargs=dict(n_ships=args.ships_per_scene,
                          emission_scale=args.emission_scale))
    ds, counts = build_dataset_from_scenes(manifest, params)
    neg, pos = ds.class_counts
    print(f"corpus: {args.scenes} scenes, {n_ships} ships, "
          f"{len(ds)} pixels ({pos} plume / {neg} background), "
          f"generated in {time.time() - t0:.1f}s -> {out}")

    base = {"gbt": {"n_trees": args.gbt_n_trees},
            "logistic": {"max_iter": 800}}
    print(f"\n{'model':<12}{'precision':>16}{'recall':>16}"
          f"{'f1':>16}{'ap':>16}{'time':>8}")
    reports = {}
    for family in FAMILIES:
        t1 = time.time()
        rep = nested_cv(ds, family, n_outer=5, n_candidates=args.n_candidates,
                        seed=args.seed, base_params=base.get(family))
        reports[family] = rep
        cells = [f"{rep.summary[m][0]:.3f}+-{rep.summary[m][1]:.3f}"
                 for m in ("precision", "recall", "f1", "ap")]
        print(f"{family:<12}" + "".join(f"{c:>16}" for c in cells)
              + f"{time.time() - t1:>7.1f}s")

    print(f"\n{'model':<12}{'pearson r':>12}{'ships used':>12}{'no plume':>10}")
    table = ship_estimates(ds, ds.require_labels())
    used = int((table.n_plume_pixels > 0).sum())
    r = proxy_correlation(table)
    print(f"{'truth':<12}{r:>12.3f}{used:>12}{len(table) - used:>10}")
    for family, rep in reports.items():
        table = ship_estimates(ds, rep.predictions())
        used = int((table.n_plume_pixels > 0).sum())
        try:
            r = proxy_correlation(table)
            r_text = f"{r:>12.3f}"
        except ValueError as exc:
            r_text = f"{str(exc):>12}"
        print(f"{family:<12}{r_text}{used:>12}{len(table) - used:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
