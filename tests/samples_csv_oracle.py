"""Reference samples CSV writer: one row at a time, every value formatted
with its own ``fmt_float`` call.

``grid.samples_to_csv`` formats each column through ``fmt_floats``, once per
distinct value; it must write the same text as this. Test-only code.
"""

from __future__ import annotations

import numpy as np

from shipplume.grid import SAMPLES_HEADER, fmt_float


def samples_to_csv(samples: np.ndarray) -> str:
    lines = [SAMPLES_HEADER]
    lines += [",".join(map(fmt_float, s)) for s in samples.tolist()]
    return "\n".join(lines) + "\n"
