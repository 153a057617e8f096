"""Reference dataset CSV codec: the row-at-a-time writer, which formats every
value with its own ``fmt_float`` call, and the parser that converts every
field of every line with ``float``.

``dataset.dataset_to_csv`` formats each distinct value of a column once; it
must write the same text as the reference writer. ``dataset.parse_dataset_csv``
parses line by line like the reference parser and differs from it only by
rejecting a repeated (group_id, row, col) key, which the reference accepts;
otherwise it must read the same arrays, bit for bit, or raise the same
error. Both references stay the specification the tests compare against.
Test-only code.
"""

from __future__ import annotations

import numpy as np

from shipplume.dataset import (_LABEL_TOKENS, FEATURE_BASE, LabeledDataset,
                               dataset_header)


def fmt_float(x: float) -> str:
    """Shortest decimal form that parses back to the same float."""
    return repr(float(x))


def dataset_to_csv(ds: LabeledDataset) -> str:
    lines = [dataset_header(ds.n_levels, ds.n_subsectors)]
    # Python floats from tolist() format faster than numpy scalars; one row
    # at a time keeps the float objects of the whole table out of memory.
    for gid, r, c, feats, mh, y in zip(ds.group_ids.tolist(), ds.rows.tolist(),
                                       ds.cols.tolist(), ds.X,
                                       ds.moran_high.tolist(),
                                       ds.labels.tolist()):
        label = "" if y < 0 else str(y)
        lines.append(f"{gid},{r},{c},{','.join(map(fmt_float, feats.tolist()))},"
                     f"{fmt_float(mh)},{label}")
    return "\n".join(lines) + "\n"


def parse_dataset_csv(text: str) -> LabeledDataset:
    """Parse a dataset CSV; a row with a non-finite feature or moran_high
    value, a ship length <= 0, a negative ship speed, or a label other than
    0, 1 or empty, is rejected."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty dataset CSV")
    header = lines[0][1].split(",")
    n_levels = sum(1 for c in header if c.startswith("level_"))
    n_subsectors = sum(1 for c in header if c.startswith("subsector_"))
    if header != dataset_header(n_levels, n_subsectors).split(","):
        raise ValueError("bad dataset CSV header")
    n_feat = len(FEATURE_BASE) + n_levels + n_subsectors
    n = len(lines) - 1
    gids, rows, cols, labels = [], [], [], []
    values = np.empty((n, n_feat + 1))
    for i, (k, ln) in enumerate(lines[1:]):
        p = ln.split(",")
        try:
            if len(p) != n_feat + 5:
                raise ValueError("wrong field count")
            rows.append(int(p[1]))
            cols.append(int(p[2]))
            values[i] = [float(t) for t in p[3:4 + n_feat]]
            if p[-1] not in _LABEL_TOKENS:
                raise ValueError(f"bad label {p[-1]!r}")
        except ValueError as exc:
            raise ValueError(f"dataset CSV line {k}: {exc}") from None
        gids.append(p[0])
        labels.append(_LABEL_TOKENS[p[-1]])
    length = values[:, FEATURE_BASE.index("ship_length")]
    speed = values[:, FEATURE_BASE.index("ship_speed")]
    for bad, message in ((~np.isfinite(values).all(axis=1), "non-finite value"),
                         (length <= 0, "ship_length must be > 0"),
                         (speed < 0, "ship_speed must be >= 0")):
        if bad.any():
            k = lines[int(np.argmax(bad)) + 1][0]
            raise ValueError(f"dataset CSV line {k}: {message}")
    return LabeledDataset(group_ids=np.array(gids, dtype=str),
                          rows=np.array(rows, dtype=int),
                          cols=np.array(cols, dtype=int), X=values[:, :n_feat],
                          moran_high=values[:, n_feat],
                          labels=np.array(labels, dtype=int),
                          n_levels=n_levels, n_subsectors=n_subsectors)
