"""The dataset CSV codec against its row-at-a-time reference: the same text
out, the same arrays or the same error back, on generated and mutated files."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dataset_csv_oracle as oracle
from shipplume import dataset, grid
from shipplume.dataset import (FEATURE_BASE, LabeledDataset,
                               csv_blocks, dataset_to_csv, parse_dataset_csv,
                               read_dataset, write_dataset)
from shipplume.fileio import write_atomic
from shipplume.grid import fmt_floats

from conftest import columns_dataset

SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                    -5e-324, 1.7976931348623157e308, 1e16,
                    9.999999999999999e15, 1e-4, 1e-5, 1.0, 0.1, -2.5])


def random_floats(rng, size):
    """Random bit patterns, every other one on average replaced with one of
    SPECIAL; NaNs of every payload included."""
    bits = rng.integers(-2 ** 63, 2 ** 63, size=size, dtype=np.int64)
    return np.where(rng.random(size) < 0.5, rng.choice(SPECIAL, size),
                    bits.view(float))


SEEDS = st.integers(0, 2 ** 32 - 1)


@given(SEEDS, st.integers(0, 40), st.booleans())
@settings(max_examples=150, deadline=1000, derandomize=True)
def test_fmt_floats_equals_fmt_float(seed, n, strided):
    rng = np.random.default_rng(seed)
    a = random_floats(rng, n)
    a = np.concatenate([a, a[::3]])   # some values repeat
    if strided:   # as dataset_to_csv passes the columns of a row block
        a = np.repeat(a, 2)[::2]
    assert fmt_floats(a) == [oracle.fmt_float(x) for x in a.tolist()]


@st.composite
def datasets(draw):
    """A dataset of 1-5 ship images with 1-3 levels and sub-sectors and
    labels -1, 0 and 1: the per-ship values repeat over each ship's pixels,
    all but the bins come from random_floats, and the ships' rows are in
    order or shuffled. Every row and every column number is distinct and at
    least 100, so that no mutation below can repeat a key."""
    rng = np.random.default_rng(draw(SEEDS))
    n_levels, n_subsectors = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sizes = rng.integers(1, 13, draw(st.integers(1, 5)))
    n = int(sizes.sum())
    ship = np.repeat(random_floats(rng, (len(sizes), len(FEATURE_BASE) - 2)),
                     sizes, axis=0)
    X = np.column_stack([random_floats(rng, (n, 2)), ship,
                         np.eye(n_levels)[rng.integers(0, n_levels, n)],
                         np.eye(n_subsectors)[rng.integers(0, n_subsectors, n)]])
    group_ids = np.repeat([f"{200000000 + s}_2019-04-0{1 + s % 3}"
                           for s in range(len(sizes))], sizes)
    order = rng.permutation(n) if draw(st.booleans()) else np.arange(n)
    return LabeledDataset(group_ids=group_ids[order], rows=100 + np.arange(n),
                          cols=200 + np.arange(n), X=X[order],
                          moran_high=random_floats(rng, n),
                          labels=rng.integers(-1, 2, n), n_levels=n_levels,
                          n_subsectors=n_subsectors)


@given(datasets(), st.sampled_from([1, 2, 3, 7, grid.CSV_BLOCK_ROWS]))
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_writer_text_equals_oracle(ds, block_rows):
    with mock.patch.object(grid, "CSV_BLOCK_ROWS", block_rows):
        assert dataset_to_csv(ds) == oracle.dataset_to_csv(ds)


def test_writer_text_equals_oracle_across_a_block_boundary():
    rng = np.random.default_rng(3)
    n = grid.CSV_BLOCK_ROWS * 2 + 5
    ship = np.repeat(rng.normal(size=(n // 50 + 1, 5)), 50, axis=0)[:n]
    X = np.column_stack([rng.normal(size=(n, 2)), ship,
                         np.eye(10)[rng.integers(0, 10, n)]])
    ds = columns_dataset([f"{i // 50}_2019-04-01" for i in range(n)], X,
                         rng.normal(size=n), rng.choice([None, 0, 1], n))
    assert dataset_to_csv(ds) == oracle.dataset_to_csv(ds)


TOKENS = ["x", "", "1e", " 1.5", "1_0", "+2", "nan", "inf", "-0.0", "3"]
SHIP_DEFECTS = [(FEATURE_BASE.index("ship_length"), "0.0"),
                (FEATURE_BASE.index("ship_length"), "-0.0"),
                (FEATURE_BASE.index("ship_length"), "-7.5"),
                (FEATURE_BASE.index("ship_speed"), "-0.5")]


@st.composite
def mutations(draw, n_fields):
    """The edit of a line's fields that makes one defect: a field dropped or
    inserted, a field replaced with a bad or unusual token, a bad label, or
    a per-ship value out of range."""
    kind = draw(st.sampled_from(["drop", "insert", "token", "label", "ship"]))
    if kind == "drop":
        at = draw(st.integers(0, n_fields - 1))
        return lambda p: p[:at] + p[at + 1:]
    if kind == "insert":
        at, token = draw(st.integers(0, n_fields)), draw(st.sampled_from(TOKENS))
        return lambda p: p[:at] + [token] + p[at:]
    if kind == "token":
        at, token = draw(st.integers(0, n_fields - 1)), draw(st.sampled_from(TOKENS))
    elif kind == "label":
        at, token = n_fields - 1, draw(st.sampled_from(["2", "-1", "x", " 1", "1.0"]))
    else:
        field, token = draw(st.sampled_from(SHIP_DEFECTS))
        at = 3 + field
    return lambda p: p[:at] + [token] + p[at + 1:]


def make_parseable(ds, finite):
    """Make every ship length > 0 and speed >= 0 in place and, if finite,
    replace each non-finite value with 0.5."""
    length, speed = (FEATURE_BASE.index(name)
                     for name in ("ship_length", "ship_speed"))
    with np.errstate(invalid="ignore"):   # NaNs stay NaN
        ds.X[:, length] = np.abs(ds.X[:, length]) + 1.0
    ds.X[:, speed] = np.abs(ds.X[:, speed])
    if finite:
        ds.X[~np.isfinite(ds.X)] = 0.5
        ds.moran_high[~np.isfinite(ds.moran_high)] = 0.5


@st.composite
def mutated_files(draw):
    """The text of a generated dataset with up to two defects, the second
    on the same line as the first or further down. The first lands on the
    first row of a ship's run of per-ship values as often as on any row."""
    ds = draw(datasets())
    # finite or not: when finite, other defects get reported
    make_parseable(ds, finite=draw(st.booleans()))
    lines = oracle.dataset_to_csv(ds).splitlines()
    n_fields = lines[0].count(",") + 1
    if draw(st.booleans()):
        runs = [",".join(ln.split(",")[5:-2]) for ln in lines]
        line = draw(st.sampled_from(
            [k for k in range(1, len(lines)) if runs[k] not in runs[1:k]]))
    else:
        line = draw(st.integers(1, len(lines) - 1))
    for _ in range(draw(st.integers(0, 2))):
        lines[line] = ",".join(draw(mutations(n_fields))(lines[line].split(",")))
        line = min(line + draw(st.integers(0, 3)), len(lines) - 1)
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """The parsed arrays as bytes, or the error message."""
    try:
        ds = parse(text)
    except ValueError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.strides, a.tobytes())
            for a in (ds.group_ids, ds.rows, ds.cols, ds.X, ds.X.base,
                      ds.moran_high, ds.labels)] + [ds.n_levels,
                                                    ds.n_subsectors]


@given(mutated_files())
@settings(max_examples=300, deadline=1000, derandomize=True)
def test_parser_equals_oracle_on_mutated_files(text):
    assert outcome(parse_dataset_csv, text) == outcome(
        oracle.parse_dataset_csv, text)


@given(datasets())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sidecar_equals_parser_on_generated_datasets(ds):
    """read_dataset, from the sidecar write_dataset writes, returns what
    parse_dataset_csv returns for the CSV, without parsing, on generated
    datasets the parser accepts; group ids are held wider than they need."""
    make_parseable(ds, finite=True)
    ds.group_ids = ds.group_ids.astype("U40")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        blocks = [dataset_to_csv(ds).encode().split(b"\n", 1)[1]]
        write_dataset(path, ds, blocks, write_atomic)
        assert blocks == []   # handed over: not held while the sidecar is
        assert path.read_text() == dataset_to_csv(ds)
        parsed = parse_dataset_csv(path.read_text())
        with mock.patch.object(dataset, "parse_dataset_csv") as spy:
            loaded = read_dataset(path)
    assert spy.call_count == 0
    assert outcome(lambda _: loaded, None) == outcome(lambda _: parsed, None)


@given(datasets())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_csv_blocks_cut_the_csv_by_group_id(ds):
    """csv_blocks of a dataset in group_id order: one block per group_id,
    each its rows' lines, so the header and the blocks are dataset_to_csv."""
    order = np.argsort(ds.group_ids, kind="stable")
    ds = LabeledDataset(group_ids=ds.group_ids[order], rows=ds.rows[order],
                        cols=ds.cols[order], X=ds.X[order],
                        moran_high=ds.moran_high[order],
                        labels=ds.labels[order], n_levels=ds.n_levels,
                        n_subsectors=ds.n_subsectors)
    blocks = csv_blocks(ds)
    header, body = dataset_to_csv(ds).encode().split(b"\n", 1)
    assert sorted(blocks) == sorted(set(ds.group_ids.tolist()))
    assert b"".join(blocks[g] for g in sorted(blocks)) == body
    assert all(line.startswith(f"{g},".encode())
               for g, block in blocks.items()
               for line in block.splitlines())
