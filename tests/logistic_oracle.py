"""Reference logistic fit: full-batch gradient descent that computes the
clipped cross-entropy loss at every iteration and stops with a divergence
error when it is non-finite.

``models.fit_logistic_path`` drops the loss and tests for divergence
without it; it must return the same weights and bias, bit for bit, and raise
exactly where this loop does. ``loss_grad``'s loss is also the function whose
finite differences ``models._gradient`` is checked against. Test-only code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from shipplume.models import (N_CONTINUOUS, LogisticModel, class_weight_pair,
                              standardize_fit)


def loss_grad(w: np.ndarray, b: float, Xs: np.ndarray, y: np.ndarray,
              sample_weight: np.ndarray, l2: float,
              ) -> tuple[float, np.ndarray, float]:
    """Mean weighted cross-entropy plus l2*||w||^2, with its gradient."""
    n = len(y)
    with np.errstate(invalid="ignore", over="ignore"):
        z = Xs @ w + b
        p = expit(z)
        eps = 1e-12
        ce = -(y * np.log(np.clip(p, eps, 1.0))
               + (1 - y) * np.log(np.clip(1.0 - p, eps, 1.0)))
        loss = float(np.mean(sample_weight * ce) + l2 * np.dot(w, w))
        resid = sample_weight * (p - y) / n
        grad_w = Xs.T @ resid + 2.0 * l2 * w
        grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def fit(X: np.ndarray, y: np.ndarray, l2: float = 1e-3, max_iter: int = 1000,
        lr: float = 0.5, n_continuous: int = N_CONTINUOUS) -> LogisticModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.min() == y.max():
        raise ValueError("degenerate labels")
    w_neg, w_pos = class_weight_pair(y)
    sw = np.where(y == 1, w_pos, w_neg)
    mean, std = standardize_fit(X, n_continuous)
    Xs = (X - mean) / std
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(max_iter):
        loss, gw, gb = loss_grad(w, b, Xs, y, sw, l2)
        if not math.isfinite(loss):
            raise ValueError("divergence (try a smaller lr)")
        if max(float(np.max(np.abs(gw))), abs(gb)) < 1e-6:
            break
        w = w - lr * gw
        b = b - lr * gb
    return LogisticModel(weights=w, bias=b, class_weights=(w_neg, w_pos),
                         feature_mean=mean, feature_std=std)
