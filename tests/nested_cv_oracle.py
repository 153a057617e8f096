"""Reference nested group cross-validation: one job per outer fold, each
running its own inner search (``_search_scores``) and then its final fit
(``_outer_fold``), the outer folds dealt over the caller and forked workers.

``evaluation.nested_cv`` runs every inner and final fit as one job of a flat
plan instead; for the same dataset, family, fold counts, candidate count,
seed and base parameters it must give the same report, out-of-fold table,
PR curve and split records as this reference. The fits, predictions and
metrics are the package's own, looked up here at call time, so a test can
swap them. Test-only code.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from shipplume.dataset import LabeledDataset
from shipplume.evaluation import (CVReport, FoldResult, _deal, _group_indices,
                                  _rows_of, average_precision, pr_curve,
                                  pr_metrics)
from shipplume.models import (DEFAULT_SPACES, FAMILY_NAMES, check_params,
                              fit_family, fit_logistic_path, predict_labels,
                              predict_scores, sample_params)
from shipplume.parallel import fork_map


def _search_scores(family: str, X, y, aux, candidates: list[dict], seed,
                   inner_splits: list[tuple]) -> list[float]:
    """Mean inner-fold AP of every candidate, -1 if no fold has validation
    positives and a two-class fit part. On each split, logistic candidates
    that differ only in max_iter share one descent, duplicates one fit."""
    groups: dict[tuple, list[int]] = {}
    for i, cand in enumerate(candidates):
        key = {**cand, "max_iter": 0} if family == "logistic" else cand
        groups.setdefault(tuple(sorted(key.items())), []).append(i)
    aps: list[list[float]] = [[] for _ in candidates]
    for tr, va in inner_splits:
        if va.size == 0 or y[va].sum() == 0 or y[tr].min() == y[tr].max():
            continue
        for members in groups.values():
            sets = [candidates[i] for i in members]
            if family == "logistic":
                fits = fit_logistic_path(X[tr], y[tr], sets)
            else:
                fits = [fit_family(family, X[tr], y[tr], aux[tr], sets[0],
                                   seed)] * len(sets)
            for i, model in zip(members, fits):
                aps[i].append(average_precision(
                    y[va], predict_scores(model, X[va], aux[va])))
    return [float(np.mean(s)) if s else -1.0 for s in aps]


def _outer_fold(job: tuple, k: int) -> tuple[FoldResult, tuple, list[dict]]:
    """Outer fold k of the nested_cv with the given arguments: its result,
    its (test rows, scores, predictions) and its split records."""
    family, X, y, aux, table, outer, n_inner, n_candidates, seed, base = job
    train_groups = [g for j, fold in enumerate(outer) if j != k for g in fold]
    tr = _rows_of(train_groups, table)
    te = _rows_of(outer[k], table)
    if not (y[te] == 1).any():
        raise ValueError(f"outer fold {k} has no positive labels")
    splits = [{"kind": "outer", "fold": k, "train_groups": train_groups,
               "test_groups": outer[k]}]

    params: dict = dict(base or {})
    if family in DEFAULT_SPACES and n_candidates > 1:
        frng = np.random.default_rng([seed, k])
        candidates = [sample_params(DEFAULT_SPACES[family], frng)
                      for _ in range(n_candidates)]
        inner = _deal(train_groups, n_inner, frng)
        inner_splits = []
        for j, val_groups in enumerate(inner):
            fit_groups = [g for m, fold in enumerate(inner) if m != j
                          for g in fold]
            inner_splits.append((_rows_of(fit_groups, table),
                                 _rows_of(val_groups, table)))
            splits.append({"kind": "inner", "fold": k, "inner_fold": j,
                           "train_groups": fit_groups,
                           "test_groups": val_groups})
        merged = [{**params, **c} for c in candidates]
        scores = _search_scores(family, X, y, aux, merged, seed, inner_splits)
        params.update(candidates[scores.index(max(scores))])  # first best

    model = fit_family(family, X[tr], y[tr], aux[tr], params, seed)
    s = predict_scores(model, X[te], aux[te])
    p = predict_labels(model, s)
    m = replace(pr_metrics(y[te], p), ap=average_precision(y[te], s))
    return FoldResult(fold=k, params=params, metrics=m), (te, s, p), splits


def nested_cv(ds: LabeledDataset, family: str, n_outer: int = 5,
              n_inner: int = 5, n_candidates: int = 10, seed: int = 0,
              base_params: dict | None = None) -> CVReport:
    """Group-wise nested cross-validation with randomized search.

    The outer loop holds out whole groups for evaluation; the inner loop
    samples n_candidates hyperparameter sets from the family's search space
    and selects by mean inner AP. With a single candidate, or for the
    threshold baselines (no search space), the inner loop is skipped and the
    evaluation is plain group k-fold CV.

    The outer folds run through parallel.fork_map, but for the threshold
    baselines, whose fits cost less than a fork, all in the caller.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown model family: {family}")
    if n_outer < 2 or n_inner < 2:
        raise ValueError(f"outer and inner fold counts must be >= 2, got "
                         f"{n_outer} and {n_inner}")
    if n_candidates < 1:
        raise ValueError(f"candidate count must be >= 1, got {n_candidates}")
    check_params(family, base_params)  # also the values the search replaces
    y = ds.require_labels()
    table = _group_indices(ds.group_ids)
    uniq = sorted(table)
    if len(uniq) < n_outer:
        raise ValueError("group count < fold count")
    outer = _deal(uniq, n_outer, np.random.default_rng(seed))
    if (family in DEFAULT_SPACES and n_candidates > 1
            and len(uniq) - max(map(len, outer)) < n_inner):
        raise ValueError("group count < fold count")

    if family == "logistic":  # its fits' scipy, imported once before the fork
        import scipy.special
    fold = partial(_outer_fold, (family, ds.X, y, ds.moran_high, table,
                                 outer, n_inner, n_candidates, seed,
                                 base_params))
    results = (fork_map(fold, n_outer) if family in DEFAULT_SPACES
               else [fold(k) for k in range(n_outer)])
    folds, pooled, splits = zip(*results)

    summary = {}
    for name in ("precision", "recall", "f1", "ap"):
        vals = np.array([getattr(f.metrics, name) for f in folds])
        summary[name] = (float(vals.mean()), float(vals.std()))
    oof_index, oof_score, oof_pred = (np.concatenate(a) for a in zip(*pooled))
    return CVReport(family=family, n_outer=n_outer, n_inner=n_inner,
                    n_candidates=n_candidates, seed=seed, folds=list(folds),
                    summary=summary,
                    pr_points=pr_curve(y[oof_index], oof_score),
                    oof_index=oof_index, oof_score=oof_score,
                    oof_pred=oof_pred, splits=[s for f in splits for s in f])
