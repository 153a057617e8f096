"""Segmentation metrics, nested group cross-validation with randomized
hyperparameter search, and the per-ship emission-proxy comparison.

Splits are always group-wise: every pixel of one plume image stays in a single
fold, in both the outer evaluation loop and the inner selection loop.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import LabeledDataset, parse_pixel_csv
from .grid import _finite, table_to_csv
from .models import (DEFAULT_SPACES, FAMILY_NAMES, check_params, fit_family,
                     fit_logistic_path, predict_labels, predict_scores,
                     sample_params)
from .parallel import fork_map


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    ap: float | None
    support: tuple[int, int]  # (n_pos, n_neg)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    params: dict
    metrics: Metrics


@dataclass
class CVReport:
    family: str
    n_outer: int
    n_inner: int
    n_candidates: int
    seed: int
    folds: list[FoldResult]
    summary: dict[str, tuple[float, float]]        # metric -> (mean, std)
    pr_points: dict[str, np.ndarray]               # pr_curve's table
    # Out-of-fold results, pooled over the outer folds in fold order: the
    # dataset row index, score and binary prediction of every row.
    oof_index: np.ndarray
    oof_score: np.ndarray
    oof_pred: np.ndarray
    splits: list[dict] = field(default_factory=list)  # every train/test group split

    def predictions(self) -> np.ndarray:
        """Out-of-fold binary predictions in dataset row order."""
        out = np.empty(len(self.oof_index), dtype=int)
        out[self.oof_index] = self.oof_pred
        return out


@dataclass(frozen=True)
class ShipTable:
    """Per-ship results as columns, one row per group_id (one ship on one
    day) in group_id order."""

    group_ids: np.ndarray       # (n,) str, <mmsi>_<ISO date>
    no2_sum: np.ndarray         # (n,) float, NO2 over the pixels predicted as plume
    n_plume_pixels: np.ndarray  # (n,) int
    e_s: np.ndarray             # (n,) float, emission proxy L^2 U^3, m^5/s^3

    def __len__(self) -> int:
        return len(self.group_ids)


def pr_metrics(labels, predictions) -> Metrics:
    """Precision, recall and F1 from binary predictions."""
    y = np.asarray(labels, dtype=int)
    p = np.asarray(predictions, dtype=int)
    if y.shape != p.shape:
        raise ValueError("length mismatch")
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("no positive labels")
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    fn = n_pos - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1, ap=None,
                   support=(n_pos, int(np.sum(y == 0))))


def _sweep(labels, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision/recall at every distinct score cutoff, swept downward;
    tied scores collapse into one step."""
    y = np.asarray(labels, dtype=float)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape:
        raise ValueError("length mismatch")
    n_pos = y.sum()
    if n_pos == 0:
        raise ValueError("no positive labels")
    order = np.argsort(-s, kind="stable")
    ys = y[order]
    ss = s[order]
    last = np.nonzero(np.append(ss[1:] != ss[:-1], True))[0]
    tp = np.cumsum(ys)[last]
    pp = last + 1.0
    precision = tp / pp
    recall = tp / n_pos
    return ss[last], precision, recall


def average_precision(labels, scores) -> float:
    """Area under the precision-recall curve by step-wise summation:
    AP = sum_n (R_n - R_{n-1}) * P_n."""
    _, precision, recall = _sweep(labels, scores)
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def pr_curve(labels, scores) -> dict[str, np.ndarray]:
    """The PR curve as a threshold,precision,recall table: one point per
    distinct score, thresholds descending."""
    return dict(zip(("threshold", "precision", "recall"),
                    _sweep(labels, scores)))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    sx = float(x.std())
    sy = float(y.std())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance")
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


# --- nested group cross-validation ------------------------------------------

def _group_indices(group_ids: np.ndarray) -> dict[str, np.ndarray]:
    """Row indices of every group, ascending."""
    uniq, inverse = np.unique(group_ids, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    return dict(zip(uniq.tolist(), np.split(order, bounds)))


def _deal(items: list[str], n_folds: int, rng: np.random.Generator,
          ) -> list[list[str]]:
    perm = [items[i] for i in rng.permutation(len(items))]
    return [perm[i::n_folds] for i in range(n_folds)]


def _rows_of(groups: list[str], table: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([table[g] for g in groups])


def _fit_job(family: str, X, y, aux, seed, tr, te, sets, final):
    """One fit of the nested_cv plan on rows tr, scored on rows te: of an
    inner job, the AP of each parameter set (logistic sets share a descent,
    other sets are equal and share a fit); of a final job, its one set's
    scores and binary predictions."""
    if final:
        model = fit_family(family, X[tr], y[tr], aux[tr], sets[0], seed)
        s = predict_scores(model, X[te], aux[te])
        return s, predict_labels(model, s)
    fits = (fit_logistic_path(X[tr], y[tr], sets) if family == "logistic"
            else [fit_family(family, X[tr], y[tr], aux[tr], sets[0], seed)]
            * len(sets))
    return [average_precision(y[te], predict_scores(m, X[te], aux[te]))
            for m in fits]


def nested_cv(ds: LabeledDataset, family: str, n_outer: int = 5,
              n_inner: int = 5, n_candidates: int = 10, seed: int = 0,
              base_params: dict | None = None) -> CVReport:
    """Group-wise nested cross-validation with randomized search.

    The outer loop holds out whole groups for evaluation; the inner loop
    samples n_candidates hyperparameter sets from the family's search space
    and selects by mean inner AP. With a single candidate, or for the
    threshold baselines (no search space), the inner loop is skipped and the
    evaluation is plain group k-fold CV.

    Every fit is a job of one plan, run through parallel.fork_map: the inner
    fits of every fold, then the final fits, which the threshold baselines
    (their fits cost less than a fork) run in the caller.
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
    search = family in DEFAULT_SPACES and n_candidates > 1
    if search and len(uniq) - max(map(len, outer)) < n_inner:
        raise ValueError("group count < fold count")

    splits, folds, plan, fills = [], [], [], []  # fills[i]: plan[i]'s AP lists
    for k, test_groups in enumerate(outer):
        train_groups = [g for j, fold in enumerate(outer) if j != k
                        for g in fold]
        te = _rows_of(test_groups, table)
        if not (y[te] == 1).any():
            raise ValueError(f"outer fold {k} has no positive labels")
        splits.append({"kind": "outer", "fold": k,
                       "train_groups": train_groups, "test_groups": test_groups})
        candidates, inner = [dict(base_params or {})], []
        if search:
            frng = np.random.default_rng([seed, k])
            candidates = [{**candidates[0],
                           **sample_params(DEFAULT_SPACES[family], frng)}
                          for _ in range(n_candidates)]
            inner = _deal(train_groups, n_inner, frng)
        groups: dict[tuple, list[int]] = {}
        for i, cand in enumerate(candidates):
            key = {**cand, "max_iter": 0} if family == "logistic" else cand
            groups.setdefault(tuple(sorted(key.items())), []).append(i)
        aps = [[] for _ in candidates]  # each candidate's, in split order
        folds.append((_rows_of(train_groups, table), te, candidates, aps))
        for j, val_groups in enumerate(inner):
            fit_groups = [g for m, fold in enumerate(inner) if m != j
                          for g in fold]
            splits.append({"kind": "inner", "fold": k, "inner_fold": j,
                           "train_groups": fit_groups, "test_groups": val_groups})
            fit_tr, va = _rows_of(fit_groups, table), _rows_of(val_groups, table)
            if y[va].any() and y[fit_tr].min() < y[fit_tr].max():
                for members in groups.values():
                    plan.append((fit_tr, va, [candidates[i] for i in members],
                                 False))
                    fills.append([aps[i] for i in members])

    data = (family, ds.X, y, ds.moran_high, seed)

    def run(jobs: list) -> list:
        if family not in DEFAULT_SPACES:
            return [_fit_job(*data, *job) for job in jobs]
        return fork_map(lambda i: _fit_job(*data, *jobs[i]), len(jobs))

    if family == "logistic":  # its fits' scipy, imported once before the fork
        import scipy.special
    for lists, got in zip(fills, run(plan)):
        for into, ap in zip(lists, got):
            into.append(ap)
    finals = []
    for tr, te, candidates, aps in folds:
        means = [float(np.mean(a)) if a else -1.0 for a in aps]
        finals.append((tr, te, [candidates[means.index(max(means))]], True))
    pooled = run(finals)  # the first best candidate of each fold, fitted
    results = []
    for k, ((_, te, sets, _), (s, p)) in enumerate(zip(finals, pooled)):
        m = replace(pr_metrics(y[te], p), ap=average_precision(y[te], s))
        results.append(FoldResult(fold=k, params=sets[0], metrics=m))
    summary = {}
    for name in ("precision", "recall", "f1", "ap"):
        vals = np.array([getattr(f.metrics, name) for f in results])
        summary[name] = (float(vals.mean()), float(vals.std()))
    oof_index = np.concatenate([job[1] for job in finals])
    oof_score, oof_pred = (np.concatenate(a) for a in zip(*pooled))
    return CVReport(family=family, n_outer=n_outer, n_inner=n_inner,
                    n_candidates=n_candidates, seed=seed, folds=results,
                    summary=summary,
                    pr_points=pr_curve(y[oof_index], oof_score),
                    oof_index=oof_index, oof_score=oof_score,
                    oof_pred=oof_pred, splits=splits)


# --- per-ship emission comparison -------------------------------------------

def ship_estimates(ds: LabeledDataset, predictions) -> ShipTable:
    """Per-ship NO2 totals over the pixels predicted as plume, next to the
    theoretical relative emission potential e_s = length^2 * speed^3 of the
    same group, from that group's own ship length and speed."""
    p = np.asarray(predictions, dtype=int)
    if len(p) != len(ds):
        raise ValueError("length mismatch")
    groups, first, inverse = np.unique(ds.group_ids, return_index=True,
                                       return_inverse=True)
    hit = p == 1
    # bincount adds in row order, like a running sum per group
    sums = np.bincount(inverse[hit], weights=ds.column("no2")[hit],
                       minlength=len(groups))
    counts = np.bincount(inverse[hit], minlength=len(groups))
    # Python-float powers: numpy's ** rounds differently on some inputs
    e_s = [length ** 2 * speed ** 3 for length, speed in
           zip(ds.column("ship_length")[first].tolist(),
               ds.column("ship_speed")[first].tolist())]
    return ShipTable(group_ids=groups, no2_sum=sums, n_plume_pixels=counts,
                     e_s=np.array(e_s, dtype=float))


def proxy_correlation(table: ShipTable) -> float:
    """Pearson r between per-ship NO2 totals and the emission proxy; ships
    with zero predicted plume pixels are excluded (count them separately)."""
    usable = table.n_plume_pixels > 0
    if usable.sum() < 2:
        raise ValueError("insufficient ships")
    return pearson(table.no2_sum[usable], table.e_s[usable])


# --- report output -----------------------------------------------------------

def report_to_json(report: CVReport) -> str:
    obj = {k: getattr(report, k)
           for k in ("family", "n_outer", "n_inner", "n_candidates", "seed")}
    obj["folds"] = [{"fold": f.fold, "params": f.params, **asdict(f.metrics)}
                    for f in report.folds]
    obj["summary"] = {name: {"mean": mean, "std": std}
                      for name, (mean, std) in report.summary.items()}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def estimates_to_csv(table: ShipTable) -> str:
    mmsi, _, date = (np.char.partition(table.group_ids, "_") if len(table)
                     else np.empty((0, 3), str)).T   # partition fails on 0 rows
    return table_to_csv({"mmsi": mmsi, "date": date,
                         "no2_sum": table.no2_sum, "e_s": table.e_s})


OOF_HEADER = "group_id,row,col,score,pred,label"


def oof_to_csv(ds: LabeledDataset, report: CVReport) -> str:
    i = report.oof_index
    return table_to_csv(dict(zip(OOF_HEADER.split(","), [
        ds.group_ids[i], ds.rows[i], ds.cols[i], report.oof_score,
        report.oof_pred, ds.labels[i]])))


def oof_predictions(ds: LabeledDataset, text: str) -> np.ndarray:
    """The binary predictions of an out-of-fold CSV in dataset row order;
    its rows must be exactly the dataset's, each with the dataset's label."""
    def check(fields: list[str]) -> None:
        _finite(fields[3])
        if fields[5] not in ("0", "1"):
            raise ValueError("label must be 0 or 1")

    table, at = parse_pixel_csv(text, OOF_HEADER, "out-of-fold", "pred",
                                check, ds)
    preds = np.full(len(ds), -1)
    preds[at] = table["pred"]
    if np.any(preds < 0):
        i = int(np.argmax(preds < 0))
        raise ValueError("missing prediction for "
                         f"{ds.group_ids[i]},{ds.rows[i]},{ds.cols[i]}")
    return preds
