"""grid.parse_grid_csv, which casts the body in one call, against the
reference parser that converts token by token: the same raster, bit for bit,
or the same error, on generated and mutated grid-csv files; and
grid.grid_to_csv against the reference writer that formats value by value."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_csv_oracle as oracle
from shipplume.grid import GridImage, GridSpec, grid_to_csv, parse_grid_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 0.1,
           -2.5, 1e-300]
BAD_TOKENS = ["abc", "", " ", "1e", "0x1", "1d5", "nan(1)", "--1", "1.2.3"]
ODD_TOKENS = ["inf", "-inf", "Infinity", "1e500", "-nan", "NaN", " 1.5",
              "2.5 ", "1_0", "+3", ".5", "5."]


def outcome(parse, text):
    """('ok', spec, value bits, mask) of a parse, or ('error', message)."""
    try:
        image = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", image.spec, image.values.shape,
            image.values.view(np.int64).tolist(), image.valid.tolist())


@st.composite
def grid_images(draw):
    """A grid of 1-6 x 1-6 cells with nan, -0.0, subnormal and random
    values."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(
        -5, 6, size=(n_rows, n_cols))
    special = rng.random((n_rows, n_cols)) < 0.3
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    valid = rng.random((n_rows, n_cols)) >= 0.2
    spec = GridSpec(lat_min=31.5, lon_min=19.5, cell_size=0.045,
                    n_rows=n_rows, n_cols=n_cols)
    return GridImage(spec, values, valid)


def grid_texts():
    """The lines of the grid-csv file of a grid_images grid."""
    return grid_images().map(lambda image: grid_to_csv(image).splitlines())


def set_token(lines, row, col, token):
    """The lines with token in place of cell (row, col) of the body, both
    taken modulo the body's shape."""
    body = lines[5:]
    fields = body[row % len(body)].split(",")
    fields[col % len(fields)] = token
    body[row % len(body)] = ",".join(fields)
    return lines[:5] + body


POSITIONS = st.tuples(st.integers(0, 50), st.integers(0, 50))


def assert_same(lines):
    text = "\n".join(lines) + "\n"
    assert outcome(parse_grid_csv, text) == outcome(oracle.parse_grid_csv,
                                                    text)


@given(grid_images(), st.sampled_from(SPECIAL), st.sampled_from(SPECIAL),
       st.sampled_from([v for v in SPECIAL if v > 0]))
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_writer_same_text(image, lat_min, lon_min, cell_size):
    image = GridImage(replace(image.spec, lat_min=lat_min, lon_min=lon_min,
                              cell_size=cell_size), image.values, image.valid)
    assert grid_to_csv(image) == oracle.grid_to_csv(image)


@given(grid_texts())
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_valid_grid_same_raster(lines):
    assert_same(lines)


@given(grid_texts(), POSITIONS, st.sampled_from(BAD_TOKENS + ODD_TOKENS))
@settings(max_examples=200, deadline=1000, derandomize=True)
def test_bad_or_odd_token_same_outcome(lines, at, token):
    assert_same(set_token(lines, *at, token))


@given(grid_texts(), POSITIONS, POSITIONS, st.sampled_from(BAD_TOKENS),
       st.sampled_from(["inf", "-inf", "1e999"]))
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_bad_token_and_inf_first_line_wins(lines, bad_at, inf_at, bad, inf):
    assert_same(set_token(set_token(lines, *inf_at, inf), *bad_at, bad))


@given(grid_texts(), POSITIONS, st.integers(0, 50),
       st.sampled_from(["#n_rows=3", "#lat_min=1.0", "#cell_size=x",
                        "#unknown=1", "#"]), st.booleans())
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_repeated_header_key_around_a_bad_row(lines, bad_at, where, key,
                                              bad_row):
    if bad_row:
        lines = set_token(lines, *bad_at, "abc")
    at = 5 + where % (len(lines) - 4)   # before, between or after body rows
    assert_same(lines[:at] + [key] + lines[at:])


@given(grid_texts(), st.integers(0, 50), st.integers(0, 50),
       st.sampled_from(["drop", "add", "both"]))
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_ragged_rows_same_outcome(lines, row, other, change):
    body = lines[5:]
    r, o = row % len(body), other % len(body)
    if change in ("drop", "both"):
        body[r] = ",".join(body[r].split(",")[:-1])
    if change in ("add", "both"):
        body[o] += ",1.0"
    assert_same(lines[:5] + body)


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:5],                        # no body
    lambda lines: lines[:5] + lines[5:] + ["1.0"],  # a row too many
    lambda lines: lines[1:],                        # a header key missing
    lambda lines: ["#n_rows=abc"] + lines[:3] + lines[4:],
    lambda lines: lines + ["", "   "],               # blank lines
    lambda lines: lines[5:] + lines[:5],            # body before the header
], ids=["no_body", "extra_row", "missing_key", "bad_count", "blank_lines",
        "body_first"])
def test_structural_edits_same_outcome(edit):
    spec = GridSpec(lat_min=0.0, lon_min=0.0, n_rows=3, n_cols=2)
    image = GridImage(spec, np.arange(6.0).reshape(3, 2), np.ones((3, 2)))
    assert_same(edit(grid_to_csv(image).splitlines()))
