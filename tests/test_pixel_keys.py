"""parse_labels_csv with assemble, and oof_predictions, against the reference
readers of pixel_key_oracle: the same labels, the same predictions or the
same first error, on valid files and on files with one or two faults."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pixel_key_oracle as oracle
from shipplume.dataset import LABELS_HEADER, assemble, parse_labels_csv
from shipplume.evaluation import OOF_HEADER, oof_predictions
from shipplume.pipeline import PipelineParams, scene_images
from shipplume.synth import SceneConfig, generate_scene, scene_to_inputs

from conftest import columns_dataset

# each reads as the integer v
INT_FORMS = [str, "+{}".format, "0{}".format, " {} ".format]
BAD_INTS = ["x", "1.5", "", "0x1", "1e3", "--1", "1 2"]
BAD_FLAGS = ["2", "", "-1", " 1", "1.0", "01", "x"]
BAD_SCORES = ["nan", "abc", "inf", "-inf", "", "1e500", "0,5"]
# group ids that extend, cut or sort next to one another
GROUP_IDS = ["a_1", "a_10", "a_1x", "b_2", "111_2019-04-01"]


def outcome(call):
    """('ok', the labels or predictions as a list) or ('error', message)."""
    try:
        return ("ok", call().tolist())
    except ValueError as exc:
        return ("error", str(exc))


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The two ship images of a synthetic scene, their pixel keys in
    assembly order, and its labels.csv text."""
    path = tmp_path_factory.mktemp("scene")
    config = SceneConfig(seed=1, emission_scale=2e-6)
    scene_to_inputs(generate_scene(config), path)
    images, _ = scene_images(path, config.t_overpass, PipelineParams())
    ds = assemble(images, None)
    assert len(images) == 2 and ds.n_dropped == 0
    keys = list(zip(ds.group_ids.tolist(), ds.rows.tolist(),
                    ds.cols.tolist()))
    return images, keys, (path / "labels.csv").read_text()


def key_fields(draw, key):
    gid, r, c = key
    return [gid, draw(st.sampled_from(INT_FORMS))(r),
            draw(st.sampled_from(INT_FORMS))(c)]


def fault(draw, lines, i, kinds, flag_at):
    """Put one fault of the given kinds on line i, whose 0/1 flag is field
    flag_at; the other lines give a repeated key. A missing line is None
    and takes no further fault."""
    fields = lines[i]
    if fields is None:
        return
    others = [ln for k, ln in enumerate(lines) if k != i and ln is not None]
    kind = draw(st.sampled_from([k for k in kinds
                                 if k != "repeat" or others]))
    if kind == "arity":
        fields.append("1") if draw(st.booleans()) else fields.pop()
    elif kind == "int":
        fields[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(BAD_INTS))
    elif kind == "repeat":
        fields[:3] = draw(st.sampled_from(others))[:3]
    elif kind == "flag":
        fields[flag_at] = draw(st.sampled_from(BAD_FLAGS))
    elif kind == "score":
        fields[3] = draw(st.sampled_from(BAD_SCORES))
    elif kind == "label":
        fields[5] = draw(st.sampled_from(BAD_FLAGS))
    elif kind == "disagree":
        fields[5] = "1" if fields[5] == "0" else "0"
    elif kind == "foreign":
        at = draw(st.sampled_from([0, 1, 2]))
        fields[at] = draw(st.sampled_from(
            [fields[0] + "x", fields[0][:-1], "0" + fields[0]] if at == 0 else
            ["1000", "-1", str(10 ** 20), str(-2 ** 63 - 1), str(2 ** 63)]))
    elif kind == "missing":
        lines[i] = None


@st.composite
def pixel_texts(draw, header, rows, kinds, flag_at):
    """The text of a file with the given rows (field lists), in any order,
    with a blank line here and there and 0-2 faults, on one line or two."""
    lines = [list(fields) for fields in draw(st.permutations(rows))]
    n_faults = draw(st.sampled_from([1, 2, 0]))
    at = draw(st.lists(st.integers(0, max(len(lines) - 1, 0)),
                       min_size=min(n_faults, len(lines)),
                       max_size=min(n_faults, len(lines))))
    for i in at:
        fault(draw, lines, i, kinds, flag_at)
    blank = draw(st.lists(st.booleans(), min_size=len(lines),
                          max_size=len(lines)))
    body = [x for fields, b in zip(lines, blank) if fields is not None
            for x in ([""] if b else []) + [",".join(fields)]]
    return "\n".join([header, *body, ""])


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_labels_equal_oracle(scene, data):
    images, keys, _ = scene
    draw = data.draw
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=10))
    rows = [key_fields(draw, key) + [draw(st.sampled_from("01"))]
            for key in chosen]
    text = draw(pixel_texts(LABELS_HEADER, rows, [
        "arity", "int", "repeat", "flag", "foreign", "missing"], 3))
    assert outcome(lambda: assemble(images, parse_labels_csv(text)).labels) \
        == outcome(lambda: oracle.assemble_labels(
            keys, oracle.parse_labels_csv(text)))


def test_synth_labels_equal_oracle(scene):
    images, keys, text = scene
    labels = assemble(images, parse_labels_csv(text)).labels
    assert labels.sum() > 0
    assert labels.tolist() == oracle.assemble_labels(
        keys, oracle.parse_labels_csv(text)).tolist()


@st.composite
def oof_cases(draw):
    """A dataset of 1-8 pixels of ids that extend one another, and the text
    of its out-of-fold file."""
    keys = draw(st.lists(st.tuples(st.sampled_from(GROUP_IDS),
                                   st.integers(0, 11), st.integers(0, 2)),
                         min_size=1, max_size=8, unique=True))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(keys),
                           max_size=len(keys)))
    gids, r, c = zip(*keys)
    ds = columns_dataset(gids, np.zeros((len(keys), 17)),
                         np.zeros(len(keys)), labels, r, c)
    rows = [key_fields(draw, key) + [
        draw(st.sampled_from(["0.25", "-1e-300", "3", "0.0"])),
        draw(st.sampled_from("01")), str(label)]
        for key, label in zip(keys, labels)]
    return ds, draw(pixel_texts(OOF_HEADER, rows, [
        "arity", "int", "repeat", "flag", "score", "label", "disagree",
        "foreign", "missing"], 4))


@given(oof_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_oof_predictions_equal_oracle(case):
    ds, text = case
    assert outcome(lambda: oof_predictions(ds, text)) == outcome(
        lambda: oracle.oof_predictions(ds, text))


THREE = columns_dataset(["111_2019-04-01", "111_2019-04-01", "111_2019-04-02"],
                        np.zeros((3, 17)), np.zeros(3), [1, 0, 1],
                        [0, 0, 0], [0, 1, 0])
GOOD = ["111_2019-04-01,0,0,0.9,1,1", "111_2019-04-01,0,1,0.2,0,0",
        "111_2019-04-02,0,0,0.7,1,1"]


@pytest.mark.parametrize("rows, message", [
    ([GOOD[0], GOOD[0], "111_2019-04-02,0,0,0.7,2,1"],
     "out-of-fold CSV line 3: duplicate key 111_2019-04-01,0,0"),
    (["111_2019-04-01,0,0,0.9,2,1", "111_2019-04-01,0,1,0.2,0", GOOD[2]],
     "out-of-fold CSV line 2: pred must be 0 or 1"),
    (["111_2019-04-01x,0,0,0.9,1,1", "111_2019-04-01,x,1,0.2,0,0", GOOD[2]],
     "out-of-fold CSV line 2: key 111_2019-04-01x,0,0 not in the dataset"),
    ([GOOD[0], "111_2019-04-01,00,0,0.2,0,0", GOOD[2]],
     "out-of-fold CSV line 3: duplicate key 111_2019-04-01,00,0"),
    (["111_2019-04-01,+0,0,0.9,1,1", "111_2019-04-01,00,01,0.2,0,0",
      GOOD[2]], None),
    (GOOD[:2], "missing prediction for 111_2019-04-02,0,0"),
], ids=["repeat_before_bad_pred", "bad_pred_before_field_count",
        "foreign_key_before_bad_row", "raw_repeat", "signed_and_padded",
        "missing"])
def test_first_error(rows, message):
    text = "\n".join([OOF_HEADER, *rows, ""])
    expect = ("ok", [1, 0, 1]) if message is None else ("error", message)
    assert outcome(lambda: oof_predictions(THREE, text)) == expect
    assert outcome(lambda: oracle.oof_predictions(THREE, text)) == expect


@pytest.mark.parametrize("extra, orphan", [
    (["{g}x,{r},{c},1"], "{g}x,{r},{c}"),
    (["{g},1010,0,1", "{g},1009,5,0"], "{g},1009,5"),
    (["{g},1009,10,1", "{g},1009,9,1"], "{g},1009,9"),
    (["0_x,10,0,1", "0_x,9,0,1"], "0_x,9,0"),
    (["{g},99999999999999999999,0,1", "{g},-9223372036854775809,0,1"],
     "{g},-9223372036854775809,0"),
], ids=["extended_group_id", "rows_as_numbers", "cols_as_numbers",
        "foreign_group_id", "beyond_int64"])
def test_smallest_orphan_is_reported(scene, extra, orphan):
    """An orphan is a label key that names no assembled pixel; the smallest
    in (group_id, row, col) order, rows and cols compared as numbers."""
    images, keys, text = scene
    g, r, c = keys[0]
    text += "".join(f"{line.format(g=g, r=r, c=c)}\n" for line in extra)
    message = f"orphan label: {orphan.format(g=g, r=r, c=c)}"
    with pytest.raises(ValueError) as exc:
        oracle.assemble_labels(keys, oracle.parse_labels_csv(text))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        assemble(images, parse_labels_csv(text))
    assert str(exc.value) == message
