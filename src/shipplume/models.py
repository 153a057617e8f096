"""Per-pixel classifiers: single-feature threshold baselines, class-weighted
logistic regression trained by deterministic full-batch gradient descent, and
gradient-boosted regression trees on the second-order logistic objective.

All fits are deterministic given their seed; models serialize to JSON and
round-trip exactly.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dataset import FEATURE_BASE
from .grid import (_COUNT, _NON_NEGATIVE, _POSITIVE, _check_rules,
                   _finite_number)

# threshold-baseline model family -> the single feature it thresholds
THRESHOLD_FEATURES = {"no2": "no2", "moran": "moran",
                      "moran-high": "moran_on_high"}
GBT_LAMBDA = 1.0  # hessian (L2) regularizer on leaf weights


@dataclass(frozen=True)
class ThresholdModel:
    feature: str        # one of THRESHOLD_FEATURES.values()
    threshold: float

    def __post_init__(self) -> None:
        if self.feature not in THRESHOLD_FEATURES.values():
            raise ValueError(f"unknown threshold feature: {self.feature}")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


@dataclass
class LogisticModel:
    weights: np.ndarray            # in standardized feature space
    bias: float
    class_weights: tuple[float, float]   # (w_neg, w_pos)
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        for name in ("weights", "feature_mean", "feature_std"):
            a = np.asarray(getattr(self, name), dtype=float)
            if (a.ndim != 1 or a.shape != self.weights.shape
                    or not np.isfinite(a).all()):
                raise ValueError(f"{name} must be finite, 1-D and as long as weights")
            setattr(self, name, a)
        if not (self.feature_std > 0).all():
            raise ValueError("feature_std must be > 0")
        self.class_weights = tuple(self.class_weights)
        if len(self.class_weights) != 2:
            raise ValueError("class_weights must have 2 entries")
        for name, value in zip(("bias", "w_neg", "w_pos"),
                               (self.bias, *self.class_weights)):
            _check_finite(value, name)


@dataclass
class GBTModel:
    trees: list[dict]
    learning_rate: float
    max_depth: int
    n_trees: int
    min_child_weight: float
    subsample: float
    colsample: float
    gamma: float
    reg_alpha: float
    n_features: int

    def __post_init__(self) -> None:
        p = check_params("gbt", {k: getattr(self, k) for k in DEFAULT_GBT_PARAMS})
        for name, value in p.items():  # the type of each default
            setattr(self, name, type(DEFAULT_GBT_PARAMS[name])(value))
        _check_rules("gbt", vars(self), {"n_features": _COUNT})
        _check_trees(self.trees, self.n_features)


DEFAULT_GBT_PARAMS = {
    "n_trees": 100,
    "max_depth": 3,
    "learning_rate": 0.3,
    "min_child_weight": 1.0,
    "subsample": 1.0,
    "colsample": 1.0,
    "gamma": 0.0,
    "reg_alpha": 0.0,
}

DEFAULT_LOGISTIC_PARAMS = {"l2": 1e-3, "max_iter": 1000, "lr": 0.5}

_FRACTION = ("in (0, 1]", lambda v: _finite_number(v) and 0 < v <= 1)
# family -> (defaults, the rule of each parameter, in checking order)
_PARAM_RULES = {
    "logistic": (DEFAULT_LOGISTIC_PARAMS,
                 {"lr": _POSITIVE, "l2": _NON_NEGATIVE, "max_iter": _COUNT}),
    "gbt": (DEFAULT_GBT_PARAMS,
            {"n_trees": _COUNT, "max_depth": _COUNT, "learning_rate": _POSITIVE,
             "min_child_weight": _NON_NEGATIVE, "gamma": _NON_NEGATIVE,
             "reg_alpha": _NON_NEGATIVE, "subsample": _FRACTION,
             "colsample": _FRACTION}),
}


def check_params(family: str, params: dict | None) -> dict:
    """The family's defaults updated by params, each checked against its
    rule; the threshold families take no parameters."""
    defaults, rules = _PARAM_RULES.get(family, ({}, {}))
    p = {**defaults, **(params or {})}
    for name in p:
        if name not in rules:
            raise ValueError(f"{family} has no parameter {name}")
    _check_rules(family, p, rules)
    return p


def _threshold_values(feature: str, X: np.ndarray,
                      moran_high: np.ndarray | None) -> np.ndarray:
    if feature == "moran":
        return X[:, FEATURE_BASE.index("moran_i")]
    if feature == "no2":
        return X[:, FEATURE_BASE.index("no2")]
    if moran_high is None:
        raise ValueError("moran_on_high values required")
    return np.asarray(moran_high, dtype=float)


def _check_classes(y: np.ndarray) -> None:
    if y.size == 0 or y.min() == y.max():
        raise ValueError("degenerate labels")


def fit_threshold_values(values: np.ndarray, y: np.ndarray) -> float:
    """Threshold maximizing F1 of (value >= threshold) over the midpoints of
    consecutive distinct values; ties go to the smaller threshold."""
    values = np.asarray(values, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_classes(y)
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = y[order]
    uniq = np.unique(vs)
    if uniq.size == 1:
        return float(uniq[0])  # no midpoints; predict everything positive
    n = len(vs)
    n_pos = int(ys.sum())
    # predicting v >= midpoint between uniq[i] and uniq[i+1] keeps the suffix
    # that starts at the first occurrence of uniq[i+1]
    starts = np.searchsorted(vs, uniq[1:], side="left")
    suffix_pos = np.concatenate([np.cumsum(ys[::-1])[::-1], [0]])
    tp = suffix_pos[starts]
    pp = n - starts
    f1 = 2.0 * tp / (pp + n_pos)  # 2tp + fp + fn = pp + n_pos
    best = int(np.argmax(f1))  # the first maximum
    return float((uniq[best] + uniq[best + 1]) / 2.0)


# --- logistic regression ---------------------------------------------------

N_CONTINUOUS = len(FEATURE_BASE)


def expit(x, out=None):
    """scipy.special.expit without importing scipy, bit for bit: 1/(1 +
    exp(-x)) with the C library's exp. numpy's float exp is its own SIMD code
    and differs from it in the last bit; its complex exp calls glibc's cexp,
    which on the real line is exp, but drops a NaN's sign and, above
    1023*ln2 (about 709.09), takes a scaled path that can be an ulp off:
    hence math.exp in -710 < x < -709. Exactness assumes glibc and a numpy
    whose complex exp calls the C library's cexp; tests/test_expit_oracle.py
    fails if a libc or numpy change breaks either."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.where(np.isnan(x), -x,
                     np.exp(np.negative(x, dtype=complex)).real)
        for i in np.flatnonzero((x > -710.0) & (x < -709.0)).tolist():
            try:
                e.flat[i] = math.exp(-x.flat[i])
            except OverflowError:
                e.flat[i] = math.inf
        return np.divide(1.0, np.add(e, 1.0, out=e), out=out)


def special_ufunc(name: str):
    """scipy.special's expit or erf from its extension module _ufuncs alone
    (4 MB and 9 ms against the package's 20 MB and 0.2 s). Assumes _ufuncs
    loads under an unexecuted package module and a later import scipy.special
    reuses it; tests/test_import_footprint.py fails if that layout changes."""
    sp = "scipy.special"
    ufuncs = sys.modules.get(sp) or sys.modules.get(f"{sp}._ufuncs")
    if ufuncs is None:
        spec = importlib.util.find_spec(sp)  # imports scipy itself
        before = set(sys.modules)
        sys.modules[sp] = importlib.util.module_from_spec(spec)
        try:
            ufuncs = importlib.import_module(f"{sp}._ufuncs")
        except ImportError:  # another layout: undone, the package below
            for added in set(sys.modules) - before - {sp}:
                del sys.modules[added]
        finally:
            del sys.modules[sp]
    return getattr(ufuncs or importlib.import_module(sp), name)


def standardize_fit(X: np.ndarray, n_continuous: int = N_CONTINUOUS,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Mean/std of the continuous columns; one-hot columns pass through
    (mean 0, std 1). Constant columns get std 1 so they drop out after
    centering."""
    d = X.shape[1]
    mean = np.zeros(d)
    std = np.ones(d)
    nc = min(n_continuous, d)
    mean[:nc] = X[:, :nc].mean(axis=0)
    s = X[:, :nc].std(axis=0)
    std[:nc] = np.where(s > 0, s, 1.0)
    return mean, std


def _gradient(p: np.ndarray, w: np.ndarray, Xs: np.ndarray, y: np.ndarray,
              sample_weight: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """The loss gradient at p = expit(Xs @ w + b); p becomes the residual."""
    np.multiply(sample_weight, np.subtract(p, y, out=p), out=p)
    np.divide(p, len(y), out=p)
    return Xs.T @ p + 2.0 * l2 * w, float(p.sum())


def class_weight_pair(y: np.ndarray) -> tuple[float, float]:
    n = len(y)
    n_pos = int(np.sum(y == 1))
    n_neg = n - n_pos
    return n / (2.0 * n_neg), n / (2.0 * n_pos)


def fit_logistic_path(X: np.ndarray, y: np.ndarray, param_sets: list[dict],
                      n_continuous: int = N_CONTINUOUS) -> list[LogisticModel]:
    """fit_family("logistic", ...) for parameter sets that differ only in
    max_iter, from one descent run to the largest; a descent that converges
    early gives its last model to every later max_iter. Its many small expit
    calls take scipy's ufunc, which costs half of models.expit per call and
    gives the same bits."""
    scipy_expit = special_ufunc("expit")  # only this fit needs scipy
    ps = [check_params("logistic", p) for p in param_sets]
    l2, lr, stops = ps[0]["l2"], ps[0]["lr"], [p["max_iter"] for p in ps]
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_classes(y)
    w_neg, w_pos = class_weight_pair(y)
    sw = np.where(y == 1, w_pos, w_neg)
    mean, std = standardize_fit(X, n_continuous)
    Xs = (X - mean) / std
    w = np.zeros(X.shape[1])
    b = 0.0
    p = np.empty(len(y))  # one buffer: z, then expit(z), then the residual
    held = {}  # max_iter -> (weights, bias) after that many steps
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, max(stops) + 1):
            scipy_expit(np.add(np.matmul(Xs, w, out=p), b, out=p), out=p)
            gw, gb = _gradient(p, w, Xs, y, sw, l2)
            # The clipped cross-entropy is bounded, so the loss is non-finite
            # exactly when p holds a NaN (then so does gb) or l2*w.w is.
            if math.isnan(gb) or not math.isfinite(l2 * np.dot(w, w)):
                raise ValueError("divergence (try a smaller lr)")
            if max(float(np.max(np.abs(gw))), abs(gb)) < 1e-6:
                break
            gw *= lr
            w -= gw
            b = b - lr * gb
            if k in stops:
                held[k] = w.copy(), b
    return [LogisticModel(*held.get(m, (w, b)), class_weights=(w_neg, w_pos),
                          feature_mean=mean, feature_std=std) for m in stops]


# --- gradient-boosted trees -------------------------------------------------

def _soft_threshold(G, alpha: float):
    return np.sign(G) * np.maximum(np.abs(G) - alpha, 0.0)


def _leaf_score(G, H, alpha: float):
    return _soft_threshold(G, alpha) ** 2 / (H + GBT_LAMBDA)


def leaf_value(G: float, H: float, alpha: float = 0.0) -> float:
    """Optimal leaf weight -G/(H + lambda), soft-thresholded by reg_alpha."""
    return float(-_soft_threshold(G, alpha) / (H + GBT_LAMBDA))


def value_ranks(X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per column, its sorted distinct values and each row's rank among them.
    Ranks take the narrowest unsigned dtype: with 16 bits or fewer a stable
    argsort is a radix sort."""
    return [(u, r.astype(np.min_scalar_type(u.size - 1))) for u, r in
            (np.unique(col, return_inverse=True) for col in X.T)]


def _grow_tree(X: np.ndarray, bins: list, g: np.ndarray, h: np.ndarray,
               idx: np.ndarray, feats: np.ndarray, max_depth: int,
               min_child_weight: float, gamma: float, alpha: float, lr: float,
               depth: int = 0) -> dict:
    """Exact greedy split search: every cut (a midpoint of consecutive distinct
    values) of every feature is scored in one gain vector, from left sums of
    g/h: prefix sums in rank order, or for two values a bincount (same order)."""
    g_node, h_node = g[idx], h[idx]
    G, H = float(g_node.sum()), float(h_node.sum())
    leaf = {"leaf": leaf_value(G, H, alpha) * lr}
    if depth >= max_depth or idx.size < 2:
        return leaf
    cuts = []  # per feature with a cut: (f, rank left of each cut, GL, HL)
    for f in feats.tolist():
        r = bins[f][1][idx]
        if bins[f][0].size > 2:
            order = np.argsort(r, kind="stable")
            rs = r[order]
            cut = np.flatnonzero(rs[1:] != rs[:-1])
            if cut.size:
                cuts.append((f, rs[cut], np.cumsum(g_node[order])[cut],
                             np.cumsum(h_node[order])[cut]))
        elif 0 < np.count_nonzero(r) < r.size:  # both values are in the node
            cuts.append((f, (0,), np.bincount(r, g_node)[:1],
                         np.bincount(r, h_node)[:1]))
    if not cuts:
        return leaf
    GL, HL = (np.concatenate([c[k] for c in cuts]) for k in (2, 3))
    HR = H - HL
    gains = 0.5 * (_leaf_score(GL, HL, alpha) + _leaf_score(G - GL, HR, alpha)
                   - float(_leaf_score(G, H, alpha))) - gamma
    gains[~((HL >= min_child_weight) & (HR >= min_child_weight))] = -np.inf
    # finite g, h and H + 1 > 0: no gain is NaN, so argmax is the first max
    j = int(np.argmax(gains))
    if not gains[j] > 0.0:
        return leaf
    while j >= len(cuts[0][1]):  # j back to its feature and cut
        j -= len(cuts.pop(0)[1])
    f, low = cuts[0][:2]
    del cuts, GL, HL, HR, gains  # so the children's frames do not hold them
    uniq, r = bins[f][0], bins[f][1][idx]
    thr = float((uniq[low[j]] + uniq[r[r > low[j]].min()]) / 2.0)
    mask = X[idx, f] < thr
    left, right = (_grow_tree(X, bins, g, h, rows, feats, max_depth,
                              min_child_weight, gamma, alpha, lr, depth + 1)
                   for rows in (idx[mask], idx[~mask]))
    return {"feature": f, "threshold": thr, "left": left, "right": right}


def eval_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(tree, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if "leaf" in node:
            out[idx] = node["leaf"]
        else:
            mask = X[idx, node["feature"]] < node["threshold"]
            stack.append((node["left"], idx[mask]))
            stack.append((node["right"], idx[~mask]))
    return out


def fit_gbt_arrays(X: np.ndarray, y: np.ndarray, params: dict | None = None,
                   seed: int = 0) -> GBTModel:
    p = check_params("gbt", params)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_classes(y)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    bins = value_ranks(X)
    logit = np.zeros(n)
    trees: list[dict] = []
    for _ in range(int(p["n_trees"])):
        prob = expit(logit)
        g = prob - y
        h = prob * (1.0 - prob)
        if p["subsample"] < 1.0:
            m = max(1, int(round(p["subsample"] * n)))
            idx = np.sort(rng.choice(n, size=m, replace=False))
        else:
            idx = np.arange(n)
        if p["colsample"] < 1.0:
            k = max(1, int(round(p["colsample"] * d)))
            feats = np.sort(rng.choice(d, size=k, replace=False))
        else:
            feats = np.arange(d)
        tree = _grow_tree(X, bins, g, h, idx, feats, int(p["max_depth"]),
                          float(p["min_child_weight"]), float(p["gamma"]),
                          float(p["reg_alpha"]), float(p["learning_rate"]))
        trees.append(tree)
        logit += eval_tree(tree, X)
    return GBTModel(trees=trees, n_features=d, **p)


# --- prediction -------------------------------------------------------------

def predict_scores(model, X, moran_high: np.ndarray | None = None) -> np.ndarray:
    """Probabilities for logistic/GBT models, raw feature values for
    threshold models."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, ThresholdModel):
        if X.shape[1] < len(FEATURE_BASE):
            raise ValueError("feature length mismatch")
        return _threshold_values(model.feature, X, moran_high).astype(float)
    if isinstance(model, LogisticModel):
        if X.shape[1] != len(model.weights):
            raise ValueError("feature length mismatch")
        Xs = (X - model.feature_mean) / model.feature_std
        return expit(Xs @ model.weights + model.bias)
    if isinstance(model, GBTModel):
        if X.shape[1] != model.n_features:
            raise ValueError("feature length mismatch")
        logit = np.zeros(len(X))
        for tree in model.trees:
            logit += eval_tree(tree, X)
        return expit(logit)
    raise TypeError(f"unknown model type: {type(model).__name__}")


def predict_labels(model, scores: np.ndarray, cutoff: float = 0.5) -> np.ndarray:
    """Binary predictions from the scores predict_scores returned for the
    model; threshold models compare against their own fitted threshold,
    probabilistic models against the cutoff, which must lie in [0, 1]."""
    if not 0 <= cutoff <= 1:
        raise ValueError(f"cutoff must be finite and in [0, 1], got {cutoff!r}")
    if isinstance(model, ThresholdModel):
        return (scores >= model.threshold).astype(int)
    return (scores >= cutoff).astype(int)


# --- model files ------------------------------------------------------------

# type tag -> model class; a model file is {"type": tag, **the class's fields}
_MODEL_TYPES = {"threshold": ThresholdModel, "logistic": LogisticModel,
                "gbt": GBTModel}


def model_to_json(model) -> str:
    tags = [t for t, cls in _MODEL_TYPES.items() if type(model) is cls]
    if not tags:
        raise TypeError(f"unknown model type: {type(model).__name__}")
    obj = {"type": tags[0]}
    for f in fields(model):
        v = getattr(model, f.name)
        obj[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_model_json(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    kind = obj.get("type")
    cls = _MODEL_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown model type tag: {kind!r}")
    try:
        return cls(**{f.name: obj[f.name] for f in fields(cls)})
    except KeyError as exc:
        raise ValueError(f"model JSON missing key: {exc.args[0]}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"model JSON {exc}") from None


def _check_finite(value, name: str) -> None:
    if not _finite_number(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_trees(trees, n_features: int) -> None:
    """In tree order, every node must be {"leaf": finite} or {"feature": int
    in [0, n_features), "threshold": finite, "left": node, "right": node}."""
    stack = list(enumerate(trees))[::-1]
    while stack:
        k, node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else None
        if keys == ["leaf"]:
            _check_finite(node["leaf"], f"tree {k}: leaf")
        elif keys == ["feature", "left", "right", "threshold"]:
            f = node["feature"]
            if type(f) is not int or not 0 <= f < n_features:
                raise ValueError(f"tree {k}: feature {f!r} not in "
                                 f"[0, {n_features})")
            _check_finite(node["threshold"], f"tree {k}: threshold")
            stack += [(k, node["left"]), (k, node["right"])]
        else:
            shape = f"keys {keys}" if keys is not None else repr(node)
            raise ValueError(f"tree {k}: node must be a leaf or a split, "
                             f"got {shape}")


# --- model families for cross-validation ------------------------------------

FAMILY_NAMES = (*THRESHOLD_FEATURES, "logistic", "gbt")

# randomized-search space per family; the threshold baselines have none
DEFAULT_SPACES: dict[str, dict] = {
    "logistic": {
        "l2": ("choice", (1e-4, 1e-3, 1e-2, 1e-1, 1.0)),
        "max_iter": ("choice", (200, 500, 1000)),
    },
    "gbt": {
        "gamma": ("uniform", 0.05, 0.5),
        "max_depth": ("choice", (2, 3, 5, 6)),
        "min_child_weight": ("choice", (2, 4, 6, 8, 10, 12)),
        "subsample": ("uniform", 0.6, 1.0),
        "colsample": ("uniform", 0.6, 1.0),
        "learning_rate": ("choice", (0.001, 0.01, 0.1, 0.2, 0.3, 0.4)),
        "reg_alpha": ("choice", (0.0, 1e-5, 5e-4, 1e-3, 1e-2, 0.1, 1.0)),
    },
}


def sample_params(space: dict, rng: np.random.Generator) -> dict:
    """One uniform draw per dimension, iterated in sorted key order."""
    out = {}
    for key in sorted(space):
        kind, *args = space[key]
        if kind == "choice":
            choices = args[0]
            out[key] = choices[int(rng.integers(len(choices)))]
        elif kind == "uniform":
            out[key] = float(rng.uniform(args[0], args[1]))
        else:
            raise ValueError(f"unknown search dimension kind: {kind}")
    return out


def fit_family(family: str, X: np.ndarray, y: np.ndarray,
               moran_high: np.ndarray, params: dict | None = None,
               seed: int = 0):
    if family in THRESHOLD_FEATURES:
        feature = THRESHOLD_FEATURES[family]
        values = _threshold_values(feature, X, moran_high)
        return ThresholdModel(feature=feature,
                              threshold=fit_threshold_values(values, y))
    if family == "logistic":
        return fit_logistic_path(X, y, [params or {}])[0]
    if family == "gbt":
        return fit_gbt_arrays(X, y, params, seed)
    raise ValueError(f"unknown model family: {family}")
