"""Reference grid-csv codec: the writer that formats every value with its
own ``repr`` call, and the parser that converts every body line token by
token with ``float`` as it is read.

``grid.grid_to_csv`` formats the header floats and the raster in one
``fmt_floats`` call, once per distinct value; it must write the same text as
the reference writer.

``grid.parse_grid_csv`` casts the whole body in one ``np.array(..., dtype=
float)`` call and falls back to the per-line pass only to name the line of a
bad token; it must return the same raster, bit for bit, or raise the same
error as this reference, which stays the specification the tests compare
against. Test-only code.
"""

from __future__ import annotations

import numpy as np

from shipplume.grid import GridImage, GridSpec


def parse_grid_csv(text: str) -> GridImage:
    header = dict.fromkeys("lat_min lon_min cell_size n_rows n_cols".split())
    rows: list[list[float]] = []
    row_lines: list[int] = []
    for k, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if header.get(key, "") is not None:  # unknown, or read before
                raise ValueError(f"grid-csv line {k}: repeated or unknown "
                                 f"header #{key}=")
            header[key] = value
        elif line.strip():
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"grid-csv line {k}: {exc}") from None
            row_lines.append(k)
    fields = {}
    for key, value in header.items():
        if value is None:
            raise ValueError(f"grid-csv header missing #{key}=")
        try:   # the counts are ints, the rest floats
            fields[key] = (int if key.startswith("n_") else float)(value)
        except ValueError as exc:
            raise ValueError(f"grid-csv header #{key}=: {exc}") from None
    spec = GridSpec(**fields)
    if len(rows) != spec.n_rows or any(len(r) != spec.n_cols for r in rows):
        raise ValueError("grid-csv body does not match declared shape")
    values = np.array(rows, dtype=float)
    inf_rows = np.nonzero(np.isinf(values).any(axis=1))[0]
    if inf_rows.size:
        raise ValueError(f"grid-csv line {row_lines[inf_rows[0]]}: "
                         "infinite value")
    return GridImage(spec, values, ~np.isnan(values))


def grid_to_csv(image: GridImage) -> str:
    spec = image.spec
    lines = [
        f"#lat_min={repr(float(spec.lat_min))}",
        f"#lon_min={repr(float(spec.lon_min))}",
        f"#cell_size={repr(float(spec.cell_size))}",
        f"#n_rows={spec.n_rows}",
        f"#n_cols={spec.n_cols}",
    ]
    vals = np.where(image.valid, image.values, np.nan)
    for r in range(spec.n_rows):
        lines.append(",".join(repr(float(v)) for v in vals[r]))
    return "\n".join(lines) + "\n"
