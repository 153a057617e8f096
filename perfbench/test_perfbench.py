"""Tests of the benchmark itself: the tracing wrappers are transparent, the
workload seed is honoured, the output checks catch broken outputs, and the
metrics come out complete on a tiny corpus.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
SMALL_CORPUS = ("--n-scenes", "6", "--ships-per-scene", "2", "--grid-rows",
                "40", "--grid-cols", "40", "--emission-scale", "2e-6")


def small_variant(workload):
    """The same chain on a corpus small enough for unit tests."""
    chain = wl._gbt_chain(4) if workload.name == "evaluate_gbt" else workload.chain
    return wl.Workload(workload.name, SMALL_CORPUS, chain)


def originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in tracer.WRAPS}


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


@pytest.fixture(scope="module")
def traced_runs(work_root):
    """Each workload on the tiny corpus: one untraced, one traced iteration."""
    return {name: measure.run(name, SEED, 0.0, True, work_root,
                              workload=small_variant(w))
            for name, w in wl.WORKLOADS.items()}


def test_install_replaces_and_restores_every_name():
    before = originals()
    tr = tracer.Tracer()
    with tr.installed():
        for (m, a), fn in before.items():
            wrapped = getattr(importlib.import_module(m), a)
            assert wrapped is not fn
            assert wrapped.__wrapped__ is fn
            assert wrapped.__name__ == fn.__name__
    assert originals() == before


def test_install_restores_after_an_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            raise RuntimeError("boom")
    assert originals() == before


def test_wrapper_passes_errors_through_and_closes_its_span():
    tr = tracer.Tracer(run_id="r")

    def fails(x):
        raise ValueError(x)

    wrapped = tr.wrap(fails, "m.fails", "grid.parse_s", None)
    with pytest.raises(ValueError, match="bad"):
        wrapped("bad")
    assert len(tr.spans) == 1 and tr.spans[0].end >= tr.spans[0].start
    assert tr._stack == []


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [tracer.Span("cli.x", "cli.self_s", 0.0, 10.0, None, "r"),
                tracer.Span("a", "pipeline.self_s", 2.0, 6.0, 0, "r"),
                tracer.Span("b", "grid.parse_s", 3.0, 4.0, 1, "r"),
                tracer.Span("c", "grid.parse_s", 7.0, 8.0, 0, "r"),
                tracer.Span("cli.y", "cli.self_s", 20.0, 21.0, None, "other")]
    own = tr.self_times("r")
    assert own == {"cli.self_s": 5.0, "pipeline.self_s": 3.0,
                   "grid.parse_s": 2.0}
    assert sum(own.values()) == tr.root_time("r") == 10.0


def test_traced_outputs_hash_like_untraced(traced_runs):
    for outcome in traced_runs.values():
        assert [it.traced for it in outcome.iterations] == [False, True]
        first, second = outcome.iterations
        assert first.digests and first.digests == second.digests
        assert outcome.tally.failures == []


def test_layer_self_times_sum_to_traced_wall(traced_runs):
    for outcome in traced_runs.values():
        traced = outcome.iterations[1]
        total = sum(outcome.tracer.self_times(traced.run_id).values())
        assert total == pytest.approx(outcome.tracer.root_time(traced.run_id))
        assert total <= traced.wall_s
        assert total > 0.95 * traced.wall_s


def test_layers_entered_match_the_workload(traced_runs):
    gbt = traced_runs["evaluate_gbt"].per_layer()
    assert gbt["models.fit_s.gbt"] > 0 and gbt["models.gbt.splits"] > 0
    assert gbt["models.fit_s.logistic"] == gbt["models.fit_s.threshold"] == 0
    search = traced_runs["evaluate_search"].per_layer()
    assert search["models.fit_s.logistic"] > 0
    assert search["models.fit_s.threshold"] > 0
    assert search["models.fit_s.gbt"] == 0 and search["models.gbt.splits"] == 0
    for layers in (gbt, search):
        assert layers["pipeline.ships"] > 0 and layers["pipeline.ship_yield"] > 0
        assert layers["dataset.rows"] == layers["sector.pixels"] > 0
        assert layers["fileio.bytes"] > 0


def test_overhead_is_the_wrappers_own_time(traced_runs):
    for outcome in traced_runs.values():
        layers = outcome.per_layer()
        traced_wall = outcome.iterations[1].wall_s
        assert 0 < layers["trace.overhead_s"] < 0.1 * traced_wall


def test_every_traced_metric_is_declared(traced_runs):
    declared = measure.declared("per_layer")
    for outcome in traced_runs.values():
        for it in outcome.iterations[1:]:
            assert set(outcome.tracer.layer_metrics(it.run_id)) <= set(declared)


def test_result_shape(traced_runs):
    for outcome in traced_runs.values():
        for trace in (False, True):
            result = outcome.result(trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            json.dumps(result, allow_nan=False)
        for name, metric in outcome.result(False)["metrics"].items():
            assert metric["value"] > 0, name


def test_quality_metrics_are_read(traced_runs):
    values = traced_runs["evaluate_search"].end_to_end()
    assert 0 < values["cv_ap"] <= 1 and -1 <= values["proxy_r"] <= 1
    assert values["error_rate"] == 0


def test_seed_is_honoured(tmp_path):
    digests = []
    for seed in (SEED, SEED, SEED + 1):
        wl.setup(SMALL_CORPUS, tmp_path / "c", seed, repeats=1)
        digests.append(wl.tree_digest(tmp_path / "c"))
    assert digests[0] == digests[1] != digests[2]


def test_checks_catch_broken_outputs(tmp_path, work_root, traced_runs):
    work = tmp_path / "w"
    shutil.copytree(work_root / "evaluate_gbt", work)
    dataset, oof, proxy = work / "dataset.csv", work / "out/oof_gbt.csv", work / "out/proxy.csv"
    tally = wl.Tally()
    wl.check_oof(tally, dataset, oof)
    wl.check_proxy(tally, proxy, "proxy-report: pearson_r=0.0000")
    lines = oof.read_text().splitlines()
    oof.write_text("\n".join(lines[:-1]) + "\n")
    wl.check_oof(tally, dataset, oof)
    assert len(tally.failures) == 2 and tally.attempted == 4
    assert "pearson_r" in tally.failures[0] or "proxy.csv" in tally.failures[0]
    assert "oof_gbt.csv" in tally.failures[1]


def test_dataset_check_needs_every_label(tmp_path):
    corpus = wl.setup(SMALL_CORPUS, tmp_path / "c", SEED, repeats=1)
    tally = wl.Tally()
    assert tally.cli(wl.call(wl._features(corpus.dataset)))
    wl.check_dataset(tally, corpus.dataset)
    assert tally.failures == [] and tally.attempted == 5
    labels = sorted((tmp_path / "c/scenes").glob("scene_*/labels.csv"))[0]
    labels.write_text(labels.read_text() + "999999999_2019-04-01,0,0,1\n")
    wl.check_dataset(tally, corpus.dataset)
    assert any("labels.csv" in f for f in tally.failures)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "evaluate_gbt", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
