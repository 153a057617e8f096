"""Ship selection rules and assembly of the per-pixel feature dataset.

Each sector pixel becomes one row: continuous features (Moran's I, NO2, wind
speed, wind direction as sine/cosine, ship speed, ship length) followed by
one-hot level and sub-sector indicators. The auxiliary moran_high column
carries the Moran-on-high-NO2 value used by the corresponding single-feature
benchmark; it is not part of the model feature vector.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import read_with_sidecar, sidecar
from .grid import GridImage, _parse_rows, table_to_csv
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
             labels: dict[str, np.ndarray] | None = None,
             n_levels: int = 5, n_subsectors: int = 5) -> LabeledDataset:
    """One row per sector pixel, groups ordered by group_id.

    When a label table is given, listed pixels take their label and the rest
    default to 0; a label keyed to a pixel that was never assembled raises
    "orphan label" (the smallest such key). Without a table every row is
    unlabeled (-1). Rows with any non-finite feature are dropped and counted.
    """
    n_base = len(FEATURE_BASE)
    n_feat = n_base + n_levels + n_subsectors
    images = sorted(images, key=lambda im: im.group_id)
    X_parts = [np.zeros((0, n_feat))]
    mh_parts = [np.zeros(0)]
    for im in images:
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
    keys = pixel_table(images, [im.pixels for im in images])
    y = np.full(len(keys["row"]), -1)
    if labels is not None:
        ids, at = key_join(labels, keys)
        if np.any(at < 0):
            i = np.flatnonzero(at < 0)[np.argmin(ids[at < 0])]
            raise ValueError("orphan label: " + ",".join(
                str(labels[name][i]) for name in PIXEL_KEY))
        y[:] = 0
        y[at] = labels["label"]
    X = np.concatenate(X_parts)
    mh = np.concatenate(mh_parts)
    keep = np.isfinite(X).all(axis=1) & np.isfinite(mh)
    return LabeledDataset(
        *(keys[name][keep] for name in PIXEL_KEY), X=X[keep],
        moran_high=mh[keep], labels=y[keep], n_levels=n_levels,
        n_subsectors=n_subsectors, n_dropped=int(np.sum(~keep)))


# --- pixel keys: tables {name: column} with the PIXEL_KEY columns -----------

PIXEL_KEY = ("group_id", "row", "col")


def pixel_table(images: list[ShipImage],
                pixels: list[np.ndarray]) -> dict[str, np.ndarray]:
    """The PIXEL_KEY columns of each image's (row, col) pixels, in turn."""
    rows, cols = np.concatenate([np.zeros((0, 2), dtype=int), *pixels]).T
    return {"group_id": np.array([im.group_id for im in images], dtype=str)
            .repeat([len(p) for p in pixels]), "row": rows, "col": cols}


def key_join(table: dict[str, np.ndarray],
             into: dict[str, np.ndarray] | None = None):
    """(ids, at) of a table's keys: ids ascend in Python tuple order (a str
    group_id, then row and col as ints, however wide either is) and are
    equal for equal keys; at holds each key's position in the table `into`,
    whose keys are unique, or -1 (always without into)."""
    n, ranks = len(table["row"]), []
    for name in PIXEL_KEY:   # each value's rank among the column's values
        values = np.concatenate([t[name] for t in (table, into)
                                 if t is not None]).tolist()
        rank = dict(zip(sorted(set(values)), range(len(values))))
        ranks.append(np.fromiter(map(rank.get, values), int, len(values)))
    order = np.lexsort(ranks[::-1])   # by group_id, then row, then col
    new = np.diff(np.array(ranks)[:, order], prepend=-1).any(axis=0)
    ids = np.empty(len(order), dtype=int)
    ids[order] = np.cumsum(new) - 1
    where = np.full(len(ids), -1)
    where[ids[n:]] = np.arange(len(ids) - n)
    return ids[:n], where[ids[:n]]


# --- file formats ---------------------------------------------------------

LABELS_HEADER = "group_id,row,col,label"


def labels_to_csv(labels: dict[str, np.ndarray]) -> str:
    """The CSV of a label table (the LABELS_HEADER columns) in key order."""
    order = np.argsort(key_join(labels)[0])
    return table_to_csv({name: labels[name][order]
                         for name in LABELS_HEADER.split(",")})


def parse_pixel_csv(text: str, header: str, kind: str, flag: str, check=None,
                    dataset: LabeledDataset | None = None):
    """(table, at) of a CSV whose rows start with the pixel key and end with
    a label: its key and `flag` columns, and each key's dataset row (-1
    without a dataset). Each line is checked in turn: the ints of its key,
    a key seen on a line before it, a flag other than 0 or 1, what
    check(fields) rejects, then with a dataset a key it lacks or a label it
    disagrees with; the first error names the file kind and the line."""
    at_flag = header.split(",").index(flag)
    # seen: {key: flag} in file order. Keys hold one str per group_id, not
    # one per line, which keeps the reader's peak memory near its input's.
    seen, at, row_of = {}, [], None if dataset is None else dict(zip(zip(
        map(sys.intern, dataset.group_ids.tolist()), dataset.rows.tolist(),
        dataset.cols.tolist()), range(len(dataset))))

    def add(fields: list[str]) -> None:
        key = (sys.intern(fields[0]), int(fields[1]), int(fields[2]))
        if key in seen:
            raise ValueError(f"duplicate key {','.join(fields[:3])}")
        if fields[at_flag] not in ("0", "1"):
            raise ValueError(f"{flag} must be 0 or 1")
        if check is not None:
            check(fields)
        i = -1
        if row_of is not None and (i := row_of.get(key, -1)) < 0:
            raise ValueError(f"key {','.join(fields[:3])} not in the dataset")
        if i >= 0 and dataset.labels[i] != int(fields[-1]):
            raise ValueError(f"label {fields[-1]} disagrees with the dataset")
        seen[key] = int(fields[at_flag])
        at.append(i)

    _parse_rows(text, header, kind, add)
    table = dict(zip(PIXEL_KEY, np.array(list(seen), dtype=object)
                     .reshape(-1, 3).T))
    table[flag] = np.array(list(seen.values()), dtype=int)
    return table, np.array(at, dtype=int)


def parse_labels_csv(text: str) -> dict[str, np.ndarray]:
    return parse_pixel_csv(text, LABELS_HEADER, "labels", "label")[0]


def dataset_header(n_levels: int = 5, n_subsectors: int = 5) -> str:
    return ",".join(["group_id", "row", "col",
                     *feature_names(n_levels, n_subsectors),
                     "moran_high", "label"])


def dataset_to_csv(ds: LabeledDataset) -> str:
    # the named column views, not a packed record copy of the whole table
    return table_to_csv(dict(zip(
        dataset_header(ds.n_levels, ds.n_subsectors).split(","),
        [ds.group_ids, ds.rows, ds.cols, *ds.X.T, ds.moran_high,
         np.array(["", "0", "1"])[ds.labels + 1]])))


def csv_blocks(ds: LabeledDataset) -> dict[str, bytes]:
    """{group_id: its rows' dataset_to_csv lines} of ds in group_id order:
    the header, then the blocks in group_id order, are the CSV."""
    data = dataset_to_csv(ds).encode()   # cut at line ends, not per line
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10) + 1
    gids, lo = np.unique(ds.group_ids, return_index=True)
    return {g: data[ends[i]:ends[j]] for g, i, j in
            zip(gids.tolist(), lo.tolist(), [*lo[1:].tolist(), len(ds)])}


_LABEL_TOKENS = {"": -1, "0": 0, "1": 1}
_INT64 = range(-2 ** 63, 2 ** 63)


def parse_dataset_csv(text: str) -> LabeledDataset:
    """Parse a dataset CSV; a row with a non-finite feature or moran_high
    value, ship_length <= 0, ship_speed < 0, a label other than 0, 1 or
    empty, a row or col outside int64 or a repeated key is rejected."""
    lines = text.splitlines()
    numbers = [k for k, ln in enumerate(lines, 1) if ln.strip()]
    if not numbers:
        raise ValueError("empty dataset CSV")
    names = lines[numbers[0] - 1].split(",")
    del lines   # _parse_rows splits the text again
    n_levels = sum(1 for c in names if c.startswith("level_"))
    n_subsectors = sum(1 for c in names if c.startswith("subsector_"))
    n_feat = len(FEATURE_BASE) + n_levels + n_subsectors
    values, labels = np.empty((len(numbers) - 1, n_feat + 1)), {}

    def add(p: list[str]) -> None:
        key = (p[0], int(p[1]), int(p[2]))
        if key[1] not in _INT64 or key[2] not in _INT64:
            raise ValueError("row and col must fit in int64")
        values[len(labels)] = [float(t) for t in p[3:4 + n_feat]]
        if p[-1] not in _LABEL_TOKENS:
            raise ValueError(f"bad label {p[-1]!r}")
        if key in labels:
            raise ValueError(f"duplicate key {','.join(p[:3])}")
        labels[key] = _LABEL_TOKENS[p[-1]]

    # labels then holds every line's key, in file order
    _parse_rows(text, dataset_header(n_levels, n_subsectors), "dataset", add)
    gids, rows, cols = list(zip(*labels)) or [()] * 3
    length = values[:, FEATURE_BASE.index("ship_length")]
    speed = values[:, FEATURE_BASE.index("ship_speed")]
    for bad, message in ((~np.isfinite(values).all(axis=1), "non-finite value"),
                         (length <= 0, "ship_length must be > 0"),
                         (speed < 0, "ship_speed must be >= 0")):
        if bad.any():
            k = numbers[int(np.argmax(bad)) + 1]
            raise ValueError(f"dataset CSV line {k}: {message}")
    return LabeledDataset(group_ids=np.array(gids, dtype=str),
                          rows=np.array(rows, dtype=int),
                          cols=np.array(cols, dtype=int), X=values[:, :n_feat],
                          moran_high=values[:, n_feat],
                          labels=np.array(list(labels.values()), dtype=int),
                          n_levels=n_levels, n_subsectors=n_subsectors)


def write_dataset(path: str | Path, ds: LabeledDataset, blocks: list[bytes],
                  write) -> None:
    """Write the CSV, ds's header then blocks, its rows' lines in row order
    (as csv_blocks cuts them); then its sidecar <path>.npz, each by
    write(path, data): the CSV's sha256 and the arrays it parses to (ds must
    parse back). blocks is emptied once written, before the sidecar is."""
    text = [dataset_header(ds.n_levels, ds.n_subsectors).encode() + b"\n",
            *blocks]
    arrays = sidecar(text, lambda: {
        "group_ids": np.array(ds.group_ids.tolist(), dtype=str),
        "rows": ds.rows, "cols": ds.cols, "labels": ds.labels,
        "n_levels": ds.n_levels, "n_subsectors": ds.n_subsectors,
        "values": np.column_stack([ds.X, ds.moran_high])})
    write(path, lambda fh: fh.writelines(text))
    del text
    blocks.clear()
    write(f"{path}.npz", arrays)


def read_dataset(path: str | Path) -> LabeledDataset:
    """The sidecar's arrays if they hold the digest of the CSV file and the
    dtypes and shapes parse_dataset_csv returns, else the file's parse."""
    def load(a: dict) -> LabeledDataset | None:
        n, values = len(a["rows"]), a["values"].copy()   # X.base 2-D
        n_feat = len(FEATURE_BASE) + a["n_levels"] + a["n_subsectors"]
        want = {"group_ids": (f"U{a['group_ids'].itemsize // 4}", (n,)),
                "rows": (int, (n,)), "cols": (int, (n,)), "labels": (int, (n,)),
                "values": (float, (n, n_feat + 1)), "n_levels": (int, ()),
                "n_subsectors": (int, ())}
        if all(a[k].dtype == dtype and a[k].shape == shape
               for k, (dtype, shape) in want.items()):
            return LabeledDataset(
                group_ids=a["group_ids"], rows=a["rows"], cols=a["cols"],
                X=values[:, :n_feat], moran_high=values[:, n_feat],
                labels=a["labels"], n_levels=a["n_levels"].item(),
                n_subsectors=a["n_subsectors"].item())
    return read_with_sidecar(path, load, parse_dataset_csv)
