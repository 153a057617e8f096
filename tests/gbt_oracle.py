"""Reference GBT tree grower: exact greedy split search by a stable argsort of
every feature's float values at every node.

``models._grow_tree`` sorts precomputed integer value ranks instead; it must
grow the same trees, bit for bit. Test-only code.
"""

from __future__ import annotations

import numpy as np

from shipplume.models import _leaf_score, leaf_value


def split_gains(X: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray,
                feats: np.ndarray, min_child_weight: float, gamma: float,
                alpha: float) -> dict[tuple[int, float], float]:
    """Gain of every candidate cut of the node, keyed by (feature, threshold)
    in scan order (features as given, thresholds ascending); a cut that leaves
    a child below min_child_weight gets -inf."""
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    parent_score = float(_leaf_score(G, H, alpha))
    out: dict[tuple[int, float], float] = {}
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        gs = np.cumsum(g[idx][order])
        hs = np.cumsum(h[idx][order])
        cut = np.nonzero(vs[1:] != vs[:-1])[0]
        if cut.size == 0:
            continue
        GL = gs[cut]
        HL = hs[cut]
        GR = G - GL
        HR = H - HL
        ok = (HL >= min_child_weight) & (HR >= min_child_weight)
        gains = 0.5 * (_leaf_score(GL, HL, alpha) + _leaf_score(GR, HR, alpha)
                       - parent_score) - gamma
        gains = np.where(ok, gains, -np.inf)
        for c, gain in zip(cut, gains):
            out[(int(f), float((vs[c] + vs[c + 1]) / 2.0))] = float(gain)
    return out


def best_split(gains: dict[tuple[int, float], float],
               ) -> tuple[float, tuple[int, float] | None]:
    """The first cut in scan order with the largest gain above 0, or None."""
    best_gain = 0.0
    best = None
    for key, gain in gains.items():
        if gain > best_gain:
            best_gain, best = gain, key
    return best_gain, best


def grow_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray,
              feats: np.ndarray, max_depth: int, min_child_weight: float,
              gamma: float, alpha: float, lr: float, depth: int = 0) -> dict:
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    if depth >= max_depth or idx.size < 2:
        return {"leaf": leaf_value(G, H, alpha) * lr}
    _, best = best_split(split_gains(X, g, h, idx, feats, min_child_weight,
                                     gamma, alpha))
    if best is None:
        return {"leaf": leaf_value(G, H, alpha) * lr}
    f, thr = best
    mask = X[idx, f] < thr
    return {"feature": f, "threshold": thr,
            "left": grow_tree(X, g, h, idx[mask], feats, max_depth,
                              min_child_weight, gamma, alpha, lr, depth + 1),
            "right": grow_tree(X, g, h, idx[~mask], feats, max_depth,
                               min_child_weight, gamma, alpha, lr, depth + 1)}
