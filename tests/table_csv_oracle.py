"""Reference writers of the label, PR-curve, proxy, out-of-fold and scene
manifest CSVs: one row at a time, every float formatted with its own
``fmt_float`` call, and the PR curve as a list of (threshold, precision,
recall) tuples.

``grid.table_to_csv`` writes every one of these tables from its columns, a
float column through ``fmt_floats``, once per distinct value in each block
of rows; ``dataset.labels_to_csv``, ``evaluation.estimates_to_csv``,
``evaluation.oof_to_csv``, ``table_to_csv(evaluation.pr_curve(...))`` and
``synth.generate_corpus`` must write the same text as these. Test-only code.
"""

from __future__ import annotations

from shipplume.dataset import LABELS_HEADER, LabeledDataset
from shipplume.evaluation import OOF_HEADER, CVReport, ShipTable, _sweep
from shipplume.pipeline import MANIFEST_HEADER


def fmt_float(x: float) -> str:
    """Shortest decimal form that parses back to the same float."""
    return repr(float(x))


def labels_to_csv(labels: dict[tuple[str, int, int], int]) -> str:
    lines = [LABELS_HEADER]
    for (gid, r, c) in sorted(labels):
        lines.append(f"{gid},{r},{c},{labels[(gid, r, c)]}")
    return "\n".join(lines) + "\n"


def pr_curve(labels, scores) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) points of the PR curve."""
    thr, precision, recall = _sweep(labels, scores)
    return [(float(t), float(p), float(r))
            for t, p, r in zip(thr, precision, recall)]


def pr_points_to_csv(points: list[tuple[float, float, float]]) -> str:
    lines = ["threshold,precision,recall"]
    for t, p, r in points:
        lines.append(f"{fmt_float(t)},{fmt_float(p)},{fmt_float(r)}")
    return "\n".join([*lines, ""])


def estimates_to_csv(table: ShipTable) -> str:
    lines = ["mmsi,date,no2_sum,e_s"]
    for gid, total, e_s in zip(table.group_ids.tolist(),
                               table.no2_sum.tolist(), table.e_s.tolist()):
        mmsi, _, date = gid.partition("_")
        lines.append(f"{mmsi},{date},{fmt_float(total)},{fmt_float(e_s)}")
    return "\n".join(lines) + "\n"


def oof_to_csv(ds: LabeledDataset, report: CVReport) -> str:
    i = report.oof_index
    lines = [OOF_HEADER]
    for gid, r, c, s, p, y in zip(ds.group_ids[i].tolist(), ds.rows[i].tolist(),
                                  ds.cols[i].tolist(), report.oof_score.tolist(),
                                  report.oof_pred.tolist(),
                                  ds.labels[i].tolist()):
        lines.append(f"{gid},{r},{c},{fmt_float(s)},{p},{y}")
    return "\n".join([*lines, ""])


def manifest_to_csv(epochs: list[float]) -> str:
    """The scenes.csv of generate_corpus for scenes with these overpass
    times, scene s in directory scene_<s, 3 digits>."""
    lines = [MANIFEST_HEADER] + [f"{s},scene_{s:03d},{fmt_float(t0)}"
                                 for s, t0 in enumerate(epochs)]
    return "\n".join(lines) + "\n"
