"""Ship selection rules and assembly of the per-pixel feature dataset.

Each sector pixel becomes one row: continuous features (Moran's I, NO2, wind
speed, wind direction as sine/cosine, ship speed, ship length) followed by
one-hot level and sub-sector indicators. The auxiliary moran_high column
carries the Moran-on-high-NO2 value used by the corresponding single-feature
benchmark; it is not part of the model feature vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridImage, _parse_rows, fmt_float
from .sector import ShipSector
from .tracks import KNOT_MS, ShipInfo, Track, WindVector, mean_position

FEATURE_BASE = ("moran_i", "no2", "wind_speed", "wind_dir_sin", "wind_dir_cos",
                "ship_speed", "ship_length")


def feature_names(n_levels: int = 5, n_subsectors: int = 5) -> list[str]:
    names = list(FEATURE_BASE)
    names += [f"level_{i}" for i in range(1, n_levels + 1)]
    names += [f"subsector_{i}" for i in range(1, n_subsectors + 1)]
    return names


@dataclass
class LabeledDataset:
    """The per-pixel table as columns: entry i of every array is row i."""

    group_ids: np.ndarray    # (n,) str, <mmsi>_<ISO date> of the plume image
    rows: np.ndarray         # (n,) int, pixel row in the cropped plume image
    cols: np.ndarray         # (n,) int, pixel column
    X: np.ndarray            # (n, n_features) float, see feature_names()
    moran_high: np.ndarray   # (n,) float, auxiliary Moran-on-high value
    labels: np.ndarray       # (n,) int, 0/1, or -1 for an unlabeled row
    n_levels: int = 5
    n_subsectors: int = 5
    n_dropped: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def class_counts(self) -> tuple[int, int]:
        """(n_negative, n_positive) over labeled rows."""
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))

    def require_labels(self) -> np.ndarray:
        if np.any(self.labels < 0):
            raise ValueError("dataset contains unlabeled rows")
        return self.labels

    def column(self, name: str) -> np.ndarray:
        return self.X[:, feature_names(self.n_levels,
                                       self.n_subsectors).index(name)]


@dataclass
class ShipImage:
    """Everything needed to emit feature rows for one analyzed ship."""

    group_id: str
    info: ShipInfo
    wind: WindVector
    crop: GridImage
    moran: GridImage
    moran_high: GridImage
    sector: ShipSector
    pixels: np.ndarray       # (n, 2) int, (row, col) of each sector pixel
    level: np.ndarray        # (n,) int, radial bin of each pixel, from 1
    sub_sector: np.ndarray   # (n,) int, angular bin of each pixel, from 1


def select_ships(candidates: list[tuple[ShipInfo, Track]],
                 min_speed_kt: float = 14.0,
                 dedup_radius_deg: float = 0.4) -> list[tuple[ShipInfo, Track]]:
    """Drop ships at or below the speed threshold, then collapse transitive
    clusters of plume-image centers (track means) within dedup_radius_deg,
    keeping only the fastest ship of each cluster (ties go to the smaller mmsi).
    """
    fast = [(info, tr) for info, tr in candidates
            if info.speed_ms / KNOT_MS > min_speed_kt]
    n = len(fast)
    centers = [mean_position(tr) for _, tr in fast]
    near = np.array([[math.hypot(a[0] - b[0], a[1] - b[1]) <= dedup_radius_deg
                      for b in centers] for a in centers], dtype=bool)
    # label each ship with the smallest index it reaches through near pairs
    label = np.arange(n)
    while n:
        step = np.where(near, label, n).min(axis=1)
        if np.array_equal(step, label):
            break
        label = step
    clusters: dict[int, list[int]] = {}
    for i, root in enumerate(label.tolist()):
        clusters.setdefault(root, []).append(i)
    # max keeps the first of equally fast ships with the same mmsi
    keep = [max(members, key=lambda i: (fast[i][0].speed_ms, -fast[i][0].mmsi))
            for members in clusters.values()]
    return [fast[i] for i in sorted(keep)]


def wind_direction_features(wind: WindVector) -> tuple[float, float]:
    """Sine and cosine of the direction the wind blows toward (atan2(v, u))."""
    ang = math.atan2(wind.v, wind.u)
    return math.sin(ang), math.cos(ang)


def assemble(images: list[ShipImage],
             labels: dict[tuple[str, int, int], int] | None = None,
             n_levels: int = 5, n_subsectors: int = 5) -> LabeledDataset:
    """One row per sector pixel, groups ordered by group_id.

    When a label table is given, listed pixels take their label and the rest
    default to 0; a label keyed to a pixel that was never assembled raises
    "orphan label". Without a table every row is unlabeled (-1). Rows with
    any non-finite feature are dropped and counted.
    """
    n_base = len(FEATURE_BASE)
    n_feat = n_base + n_levels + n_subsectors
    keys: list[tuple[str, int, int]] = []
    X_parts = [np.zeros((0, n_feat))]
    mh_parts = [np.zeros(0)]
    for im in sorted(images, key=lambda im: im.group_id):
        r, c = im.pixels.T
        X = np.zeros((len(r), n_feat))
        X[:, 0] = im.moran.values[r, c]
        X[:, 1] = im.crop.values[r, c]
        X[:, 2:n_base] = (im.wind.speed, *wind_direction_features(im.wind),
                          im.info.speed_ms, im.info.length_m)
        at = np.arange(len(r))
        X[at, n_base - 1 + im.level] = 1.0
        X[at, n_base + n_levels - 1 + im.sub_sector] = 1.0
        X_parts.append(X)
        mh_parts.append(im.moran_high.values[r, c])
        keys += [(im.group_id, row, col) for row, col in im.pixels.tolist()]
    if labels is None:
        y = np.full(len(keys), -1)
    else:
        orphans = set(labels) - set(keys)
        if orphans:
            gid, r, c = sorted(orphans)[0]
            raise ValueError(f"orphan label: {gid},{r},{c}")
        y = np.array([labels.get(k, 0) for k in keys], dtype=int)
    X = np.concatenate(X_parts)
    mh = np.concatenate(mh_parts)
    keep = np.isfinite(X).all(axis=1) & np.isfinite(mh)
    return LabeledDataset(
        group_ids=np.array([k[0] for k in keys], dtype=str)[keep],
        rows=np.array([k[1] for k in keys], dtype=int)[keep],
        cols=np.array([k[2] for k in keys], dtype=int)[keep],
        X=X[keep], moran_high=mh[keep], labels=y[keep], n_levels=n_levels,
        n_subsectors=n_subsectors, n_dropped=int(np.sum(~keep)))


# --- file formats ---------------------------------------------------------

LABELS_HEADER = "group_id,row,col,label"


def labels_to_csv(labels: dict[tuple[str, int, int], int]) -> str:
    lines = [LABELS_HEADER]
    for (gid, r, c) in sorted(labels):
        lines.append(f"{gid},{r},{c},{labels[(gid, r, c)]}")
    return "\n".join(lines) + "\n"


def parse_pixel_flags(text: str, header: str, kind: str, flag: str,
                      check=None) -> dict[tuple[str, int, int], int]:
    """{(group_id, row, col): flag} from a CSV whose rows start with the
    pixel key and whose `flag` column holds 0 or 1; a repeated key is
    rejected, check(fields), if given, vets the other columns, and any error
    names the file kind and the line number."""
    at = header.split(",").index(flag)
    out: dict[tuple[str, int, int], int] = {}

    def add(fields: list[str]) -> None:
        key = (fields[0], int(fields[1]), int(fields[2]))
        if key in out:
            raise ValueError(f"duplicate key {','.join(fields[:3])}")
        if fields[at] not in ("0", "1"):
            raise ValueError(f"{flag} must be 0 or 1")
        if check is not None:
            check(fields)
        out[key] = int(fields[at])

    _parse_rows(text, header, kind, add)
    return out


def parse_labels_csv(text: str) -> dict[tuple[str, int, int], int]:
    return parse_pixel_flags(text, LABELS_HEADER, "labels", "label")


def dataset_header(n_levels: int = 5, n_subsectors: int = 5) -> str:
    return ",".join(["group_id", "row", "col",
                     *feature_names(n_levels, n_subsectors),
                     "moran_high", "label"])


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


_LABEL_TOKENS = {"": -1, "0": 0, "1": 1}


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
