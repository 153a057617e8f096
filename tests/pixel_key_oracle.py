"""Reference readers of the labels and out-of-fold CSVs and the label step of
assembly, keyed by (group_id, row, col) tuples in dicts and sets and checked
one line at a time.

``dataset.parse_labels_csv``, ``assemble`` and ``evaluation.oof_predictions``
join the pixel keys as columns; on every file they must give the same labels
and predictions as these, or raise the same error, the error of the first
faulty line. Test-only code.
"""

from __future__ import annotations

import numpy as np

from shipplume.dataset import LABELS_HEADER, LabeledDataset
from shipplume.evaluation import OOF_HEADER
from shipplume.grid import _finite, _parse_rows


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


def assemble_labels(keys: list[tuple[str, int, int]],
                    labels: dict[tuple[str, int, int], int] | None
                    ) -> np.ndarray:
    """The label of each assembled pixel key: -1 without a table, else the
    table's label or 0; a table key that is no pixel is an orphan."""
    if labels is None:
        return np.full(len(keys), -1)
    orphans = set(labels) - set(keys)
    if orphans:
        gid, r, c = sorted(orphans)[0]
        raise ValueError(f"orphan label: {gid},{r},{c}")
    return np.array([labels.get(k, 0) for k in keys], dtype=int)


def oof_predictions(ds: LabeledDataset, text: str) -> np.ndarray:
    """The binary predictions of an out-of-fold CSV in dataset row order;
    its rows must be exactly the dataset's, each with the dataset's label."""
    keys = list(zip(ds.group_ids.tolist(), ds.rows.tolist(), ds.cols.tolist()))
    labels = dict(zip(keys, ds.labels.tolist()))

    def check(fields: list[str]) -> None:
        _finite(fields[3])
        if fields[5] not in ("0", "1"):
            raise ValueError("label must be 0 or 1")
        key = (fields[0], int(fields[1]), int(fields[2]))
        if key not in labels:
            raise ValueError(f"key {','.join(fields[:3])} not in the dataset")
        if int(fields[5]) != labels[key]:
            raise ValueError(f"label {fields[5]} disagrees with the dataset")

    table = parse_pixel_flags(text, OOF_HEADER, "out-of-fold", "pred",
                              check=check)
    try:
        return np.array([table[key] for key in keys], dtype=int)
    except KeyError as exc:
        gid, r, c = exc.args[0]
        raise ValueError(f"missing prediction for {gid},{r},{c}") from None
