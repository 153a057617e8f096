"""The column-wise table CSV writer against its row-at-a-time references:
the same text on generated samples, AIS, wind and registry tables and on
the tables of a synthetic scene."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import samples_csv_oracle as oracle
from shipplume.grid import SAMPLE_DTYPE, table_to_csv
from shipplume.synth import (SceneConfig, generate_scene, scene_ais_records,
                             scene_samples, scene_wind_samples)
from shipplume.tracks import AIS_DTYPE, REGISTRY_DTYPE, WIND_DTYPE

from conftest import columns

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16,
           9.999999999999999e15, 1e-5, 0.1, 1.0, 511.0, float("nan"),
           float("inf"), -float("inf")]
FLOATS = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))
# 9-digit MMSIs, and the ends of the int64 column
MMSIS = st.one_of(st.integers(100_000_000, 999_999_999),
                  st.sampled_from([0, 1, -1, 2 ** 63 - 1, -2 ** 63]))


@st.composite
def tables(draw, dtype):
    """0-30 records; each column takes its values from a pool of 1-6 values,
    so that values repeat within a column as lat, lon and qa do in a scene,
    and the table may be a strided view of a longer one."""
    n = draw(st.integers(0, 30))
    out = np.zeros(2 * n, dtype=dtype)
    for name in dtype.names:
        values = MMSIS if dtype[name].kind == "i" else FLOATS
        pool = np.array(draw(st.lists(values, min_size=1, max_size=6)),
                        dtype=dtype[name])
        at = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2 * n,
                           max_size=2 * n))
        out[name] = pool[at]
    return out[::2] if draw(st.booleans()) else out[:n]


def oracle_text(table):
    """The reference writer's text for a table of any of the four dtypes."""
    rows = table.tolist()
    if table.dtype == SAMPLE_DTYPE:
        return oracle.samples_to_csv(table)
    if table.dtype == AIS_DTYPE:
        return oracle.ais_to_csv([oracle.AISRecord(*r) for r in rows])
    if table.dtype == WIND_DTYPE:
        return oracle.wind_to_csv([oracle.WindSample(*r) for r in rows])
    return oracle.registry_to_csv(rows)


@given(st.sampled_from([SAMPLE_DTYPE, AIS_DTYPE, WIND_DTYPE, REGISTRY_DTYPE])
       .flatmap(tables))
@settings(max_examples=200, deadline=1000, derandomize=True)
def test_writer_text_equals_oracle(table):
    assert table_to_csv(columns(table)) == oracle_text(table)


def test_writer_text_equals_oracle_on_a_scene():
    scene = generate_scene(SceneConfig(seed=3))
    samples = scene_samples(scene)
    assert len(samples) == 3600
    registry = np.array([(info.mmsi, info.length_m)
                         for info, _, _ in scene.ships], dtype=REGISTRY_DTYPE)
    for table in (samples, scene_ais_records(scene),
                  scene_wind_samples(scene), registry):
        assert table_to_csv(columns(table)) == oracle_text(table)
