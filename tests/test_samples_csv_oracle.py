"""The column-wise samples CSV writer against its row-at-a-time reference:
the same text on generated sample arrays and on a synthetic scene."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import samples_csv_oracle as oracle
from shipplume.grid import SAMPLE_DTYPE, samples_to_csv
from shipplume.synth import SceneConfig, generate_scene, scene_samples

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16,
           9.999999999999999e15, 1e-5, 0.1, 1.0, float("nan"),
           float("inf"), -float("inf")]
FLOATS = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))


@st.composite
def sample_arrays(draw):
    """0-30 samples; each column takes its values from a pool of 1-6 floats,
    so that values repeat within a column as lat, lon and qa do in a scene,
    and the array may be a strided view of a longer one."""
    n = draw(st.integers(0, 30))
    out = np.zeros(2 * n, dtype=SAMPLE_DTYPE)
    for name in SAMPLE_DTYPE.names:
        pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=6)))
        at = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2 * n,
                           max_size=2 * n))
        out[name] = pool[at]
    return out[::2] if draw(st.booleans()) else out[:n]


@given(sample_arrays())
@settings(max_examples=100, deadline=1000, derandomize=True)
def test_writer_text_equals_oracle(samples):
    assert samples_to_csv(samples) == oracle.samples_to_csv(samples)


def test_writer_text_equals_oracle_on_a_scene():
    samples = scene_samples(generate_scene(SceneConfig(seed=3)))
    assert len(samples) == 3600
    assert samples_to_csv(samples) == oracle.samples_to_csv(samples)
