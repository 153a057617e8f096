"""Workloads of the shipplume benchmark and the checks on their outputs.

Every step runs the real user path, ``shipplume.cli.main([...])``, in this
process. Set-up synthesizes a seeded corpus, the ROADMAP's bench corpus
(40 scenes of 60x60 cells, 2 ships per scene); the timed chain then runs the
workload's CLI calls on the generated files only. Both chains start with
``features`` (grid, tracks, sector, enhance, dataset assembly, CSV write),
so the pipeline layers and the features throughput show on both.

Why these workloads:

- ``evaluate_gbt``: features, a 15-tree GBT cross-validation without inner
  search (tree growth, the known hot path, is most of the chain), then the
  proxy report. Changes to the candidate search have nothing to act on.
- ``evaluate_search``: features, the three threshold baselines and a
  logistic regression with a live 5-candidate inner search (30 of its 32
  fits are inner-fold fits), then the proxy report. The selection loop and
  the non-GBT families show here, and GBT code is idle.

The chains are sized at a few seconds so that one run times ten or more of
them: ``wall_s`` is their median, ``ships_per_s`` the throughput of all
their ``features`` steps together. A separate ``features`` workload on large
rasters was dropped: on a shared 2-vCPU host its pure-Python pass runs 1.7x
slower for minutes at a time, so its run-to-run spread exceeded any usable
bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from shipplume import cli
from shipplume import dataset as ds_mod

SETUP_REPEATS = 5
THRESHOLD_FAMILIES = ("no2", "moran", "moran-high")
HEADLINE_FAMILIES = ("gbt", "logistic")     # their AP is the workload's cv_ap


@dataclass(frozen=True)
class Workload:
    name: str
    synth_args: tuple[str, ...]
    chain: Callable[[Path, Path], list[list[str]]]   # (dataset, out dir) -> argv list


def _features(dataset: Path) -> list[str]:
    return ["features", "--scenes-dir", str(dataset.parent / "scenes"),
            "--dataset-file", str(dataset)]


def _evaluate(dataset: Path, out: Path, model: str, extra: list[str]) -> list[str]:
    return ["evaluate", "--dataset-file", str(dataset), "--model", model,
            "--report-file", str(out / f"report_{model}.json"),
            "--pr-file", str(out / f"pr_{model}.csv"),
            "--oof-file", str(out / f"oof_{model}.csv"), *extra]


def _proxy(dataset: Path, out: Path, model: str) -> list[str]:
    return ["proxy-report", "--dataset-file", str(dataset),
            "--predictions", str(out / f"oof_{model}.csv"),
            "--proxy-file", str(out / "proxy.csv")]


def _gbt_chain(trees: int):
    def chain(dataset: Path, out: Path) -> list[list[str]]:
        return [_features(dataset),
                _evaluate(dataset, out, "gbt", ["--n-candidates", "1",
                                                "--gbt-n-trees", str(trees)]),
                _proxy(dataset, out, "gbt")]
    return chain


SEARCH_FOLDS = ["--outer-folds", "2", "--inner-folds", "3"]


def _search_chain(dataset: Path, out: Path) -> list[list[str]]:
    steps = [_features(dataset)]
    steps += [_evaluate(dataset, out, m, ["--n-candidates", "1", *SEARCH_FOLDS])
              for m in THRESHOLD_FAMILIES]
    steps.append(_evaluate(dataset, out, "logistic",
                           ["--n-candidates", "5", *SEARCH_FOLDS]))
    steps.append(_proxy(dataset, out, "logistic"))
    return steps


BENCH_CORPUS = ("--n-scenes", "40", "--ships-per-scene", "2",
                "--emission-scale", "2e-6")

WORKLOADS = {
    "evaluate_gbt": Workload("evaluate_gbt", BENCH_CORPUS, _gbt_chain(15)),
    "evaluate_search": Workload("evaluate_search", BENCH_CORPUS, _search_chain),
}


# --- running CLI calls -------------------------------------------------------

@dataclass
class CallResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


def call(argv: list[str]) -> CallResult:
    """Run one CLI command in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CallResult(argv, code, out.getvalue(), err.getvalue())


@dataclass
class Tally:
    """Operations attempted and failed; every failure keeps a reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, result: CallResult) -> bool:
        return self.check(result.code == 0,
                          f"{result.argv[0]} exited {result.code}: "
                          f"{result.stderr.strip()}")


# --- set-up ------------------------------------------------------------------

@dataclass
class Corpus:
    dataset: Path        # where the timed chain writes the dataset CSV
    setup_s: list[float]


def setup(synth_args: tuple[str, ...], work: Path, seed: int,
          repeats: int = SETUP_REPEATS) -> Corpus:
    """Synthesize the corpus `repeats` times into an empty directory, timing
    each; the last copy stays for the timed chain."""
    times = []
    digests = set()
    for _ in range(repeats):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        argv = ["synth", "--scenes-dir", str(work / "scenes"),
                "--seed", str(seed), *synth_args]
        t0 = time.perf_counter()
        result = call(argv)
        times.append(time.perf_counter() - t0)
        if result.code != 0:
            raise RuntimeError(f"set-up synth exited {result.code}: "
                               f"{result.stderr.strip()}")
        digests.add(tree_digest(work))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic for a fixed seed")
    return Corpus(dataset=work / "dataset.csv", setup_s=times)


def setup_in_child(synth_args: tuple[str, ...], work: Path, seed: int,
                   repeats: int = SETUP_REPEATS) -> Corpus:
    """`setup` in a child process, so that the memory set-up uses does not
    count in the benchmark process's peak resident size."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, __file__, str(work), str(seed), str(repeats),
         *synth_args], env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    times = json.loads(proc.stdout.splitlines()[-1])
    return Corpus(dataset=work / "dataset.csv", setup_s=times)


# --- outputs and their checks -------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest over every file below root, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_files(corpus: Corpus, out: Path) -> list[Path]:
    """The dataset and every file the timed chain writes to `out`."""
    return [corpus.dataset, *sorted(p for p in out.iterdir() if p.is_file())]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def dataset_keys(path: Path) -> dict[tuple[str, int, int], str]:
    """(group_id, row, col) -> label token of every dataset row."""
    _, rows = read_csv(path)
    return {(r[0], int(r[1]), int(r[2])): r[-1] for r in rows}


def check_dataset(tally: Tally, dataset: Path) -> None:
    """The dataset CSV re-serializes byte-identically, and its positives
    are exactly the pixels the corpus label files list."""
    text = dataset.read_text()
    tally.check(ds_mod.dataset_to_csv(ds_mod.parse_dataset_csv(text)) == text,
                "dataset CSV does not re-serialize byte-identically")
    keys = dataset_keys(dataset)
    tally.check(len(keys) == len(text.splitlines()) - 1,
                "dataset CSV repeats a (group_id,row,col) key")
    listed: dict[tuple[str, int, int], str] = {}
    for labels in sorted((dataset.parent / "scenes").glob("scene_*/labels.csv")):
        for r in read_csv(labels)[1]:
            listed[(r[0], int(r[1]), int(r[2]))] = r[3]
    missing = [k for k, v in listed.items() if keys.get(k) != v]
    tally.check(not missing, f"{len(missing)} labels.csv keys missing from "
                "the dataset or carrying another label")
    positives = sum(1 for v in keys.values() if v == "1")
    tally.check(positives == sum(1 for v in listed.values() if v == "1"),
                "dataset positives differ from the labels.csv plume pixels")


def check_oof(tally: Tally, dataset: Path, oof: Path) -> None:
    """One out-of-fold row per dataset row, with the dataset's label."""
    keys = dataset_keys(dataset)
    _, rows = read_csv(oof)
    seen = {(r[0], int(r[1]), int(r[2])): r[5] for r in rows}
    tally.check(len(rows) == len(keys) and seen == keys,
                f"{oof.name}: rows do not match the dataset one to one")


def ship_count(dataset: Path) -> int:
    return len({key[0] for key in dataset_keys(dataset)})


def pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return sxy / (sx * sy)


def check_proxy(tally: Tally, proxy: Path, printed: str) -> float | None:
    """Recompute Pearson r from proxy.csv (ships with a plume only) and
    compare with the value proxy-report printed."""
    match = re.search(r"pearson_r=(-?[0-9.]+)", printed)
    if not tally.check(match is not None, "proxy-report printed no pearson_r"):
        return None
    _, rows = read_csv(proxy)
    used = [(float(r[2]), float(r[3])) for r in rows if float(r[2]) != 0.0]
    r = pearson([u[0] for u in used], [u[1] for u in used])
    tally.check(abs(r - float(match.group(1))) <= 5e-5,
                f"proxy.csv gives r={r:.6f}, proxy-report printed "
                f"{match.group(1)}")
    return r


def check_report(tally: Tally, report: Path, printed: str) -> float | None:
    """cv_ap is the report's mean outer-fold AP; it must equal the mean of
    the fold APs and the value evaluate printed."""
    obj = json.loads(report.read_text())
    ap = obj["summary"]["ap"]["mean"]
    folds = [f["ap"] for f in obj["folds"]]
    match = re.search(r"ap=(-?[0-9.]+)", printed)
    tally.check(match is not None and abs(float(match.group(1)) - ap) <= 5e-5
                and abs(sum(folds) / len(folds) - ap) <= 1e-12,
                f"{report.name}: mean AP disagrees with folds or printed value")
    return ap


@dataclass
class Quality:
    """Deterministic results of one chain, checked once per run."""

    ships: int
    cv_ap: float | None = None
    proxy_r: float | None = None


def check_chain(tally: Tally, corpus: Corpus, out: Path,
                results: list[CallResult]) -> Quality:
    """All checks on the dataset and on the outputs of one chain iteration."""
    dataset = corpus.dataset
    check_dataset(tally, dataset)
    quality = Quality(ships=ship_count(dataset))
    for result in results:
        if result.argv[0] == "evaluate":
            model = result.argv[result.argv.index("--model") + 1]
            check_oof(tally, dataset, out / f"oof_{model}.csv")
            ap = check_report(tally, out / f"report_{model}.json", result.stdout)
            if model in HEADLINE_FAMILIES:
                quality.cv_ap = ap
        elif result.argv[0] == "proxy-report":
            quality.proxy_r = check_proxy(tally, out / "proxy.csv", result.stdout)
    return quality


if __name__ == "__main__":
    # Child side of setup_in_child: work seed repeats synth-args...
    print(json.dumps(setup(tuple(sys.argv[4:]), Path(sys.argv[1]),
                           int(sys.argv[2]), int(sys.argv[3])).setup_s))
