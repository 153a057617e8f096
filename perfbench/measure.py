"""One benchmark run: set up a workload, time its CLI chain for a given
number of seconds, check every output, and collect the metrics.

End-to-end metrics come from untraced iterations. With tracing on, the
run alternates untraced and traced iterations of the same chain: the
traced ones give the per-layer metrics, and their outputs must hash
identically to the untraced ones. Metric names and units are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracer_mod
import workloads as wl

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Printed with every run but left out of the JSON result: they are
# deterministic or 0, and the result carries only timed metrics.
QUALITY_METRICS = ("cv_ap", "proxy_r", "error_rate")


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class Iteration:
    traced: bool
    run_id: str
    wall_s: float
    features_s: float
    digests: dict[str, str]


@dataclass
class RunOutcome:
    workload: str
    seed: int
    tally: wl.Tally
    setup_s: list[float]
    iterations: list[Iteration] = field(default_factory=list)
    quality: wl.Quality | None = None
    tracer: tracer_mod.Tracer | None = None
    peak_rss_mb: float = 0.0

    def untraced(self, attr: str) -> list[float]:
        return [getattr(it, attr) for it in self.iterations if not it.traced]

    def end_to_end(self) -> dict[str, float | None]:
        q = self.quality
        features = self.untraced("features_s")
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(self.untraced("wall_s")),
            # Throughput of the `features` steps over the whole run: ships
            # written per second they took.
            "ships_per_s": q.ships * len(features) / sum(features) if q else None,
            "peak_rss_mb": self.peak_rss_mb,
            "cv_ap": q.cv_ap if q else None,
            "proxy_r": q.proxy_r if q else None,
            "error_rate": len(self.tally.failures) / self.tally.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        """Median over the traced iterations of every declared per-layer
        metric; a layer the workload never enters reads 0."""
        runs = [self.tracer.layer_metrics(it.run_id)
                for it in self.iterations if it.traced]
        return {name: statistics.median(r.get(name, 0.0) for r in runs)
                for name in declared("per_layer")}

    def result(self, trace: bool) -> dict:
        """The benchmark's result object (the last line it prints)."""
        kind, values = (("per_layer", self.per_layer()) if trace
                        else ("end_to_end", self.end_to_end()))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared(kind).items()}
        return {"correct": not self.tally.failures,
                "attempted": self.tally.attempted,
                "failed": len(self.tally.failures), "metrics": metrics}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_chain(steps: list[list[str]], tally: wl.Tally,
               tracer: tracer_mod.Tracer | None
               ) -> tuple[list[float], list[wl.CallResult]]:
    """Run each step, timing it; the first step is `features`."""
    times, results = [], []
    for argv in steps:
        t0 = time.perf_counter()
        if tracer is None:
            results.append(wl.call(argv))
        else:
            with tracer.span(f"cli.{argv[0]}", tracer_mod.ROOT_METRIC):
                results.append(wl.call(argv))
        times.append(time.perf_counter() - t0)
    for result in results:
        tally.cli(result)
    return times, results


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work_root: Path, workload: wl.Workload | None = None) -> RunOutcome:
    """Set up, then repeat the timed chain for about `seconds` (and, when
    tracing, until both an untraced and a traced iteration ran)."""
    workload = workload or wl.WORKLOADS[workload_name]
    work = work_root / workload.name
    corpus = wl.setup_in_child(workload.synth_args, work, seed)
    outcome = RunOutcome(workload.name, seed, wl.Tally(), corpus.setup_s)
    tracer = tracer_mod.Tracer() if trace else None
    outcome.tracer = tracer
    out = work / "out"
    reference: dict[str, str] | None = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        corpus.dataset.unlink(missing_ok=True)
        run_id = f"{workload.name}-{seed}-{i}"
        gc.collect()
        if traced:
            tracer.run_id = run_id
            with tracer.installed():
                times, results = _run_chain(workload.chain(corpus.dataset, out),
                                            outcome.tally, tracer)
        else:
            times, results = _run_chain(workload.chain(corpus.dataset, out),
                                        outcome.tally, None)
        wall = sum(times)
        files = [p for p in wl.output_files(corpus, out) if p.exists()]
        digests = {p.name: wl.sha256(p) for p in files}
        outcome.iterations.append(Iteration(traced, run_id, wall, times[0],
                                            digests))
        if reference is None:
            reference = digests
        else:
            outcome.tally.check(digests == reference,
                                f"iteration {i} ({'traced' if traced else 'untraced'}) "
                                "wrote other outputs than iteration 0")
        i += 1
        # Start another iteration only if it should end within half an
        # iteration of the deadline, so a run's length varies little.
        if (time.perf_counter() - start + wall / 2 >= seconds
                and (not trace or i >= 2)):
            break
    # Read before the checks, which parse the outputs again.
    outcome.peak_rss_mb = _peak_rss_mb()
    try:
        outcome.quality = wl.check_chain(outcome.tally, corpus, out, results)
    except (OSError, ValueError, KeyError, IndexError,
            ZeroDivisionError) as exc:
        outcome.tally.check(False, f"output check raised {exc!r}")
    if tracer is not None:
        tracer.write_jsonl(work / "spans.jsonl")
    shutil.rmtree(work / "scenes", ignore_errors=True)
    return outcome


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (quartiles {q1:.4f} {q3:.4f} over {len(values)})"


def report_lines(outcome: RunOutcome, trace: bool) -> list[str]:
    """Human-readable summary printed before the result line."""
    lines = [f"workload {outcome.workload} seed {outcome.seed}: "
             f"{len(outcome.iterations)} iterations, setup runs "
             + ", ".join(f"{s:.3f}" for s in outcome.setup_s) + " s"]
    for it in outcome.iterations:
        lines.append(f"  iteration {it.run_id} "
                     f"{'traced' if it.traced else 'untraced'} "
                     f"wall_s={it.wall_s:.4f} features_s={it.features_s:.4f}")
    for name, digest in sorted(outcome.iterations[0].digests.items()):
        lines.append(f"  sha256 {name} {digest}")
    values = outcome.end_to_end()
    spread = {"wall_s": _quartiles(outcome.untraced("wall_s")),
              "setup_s": _quartiles(outcome.setup_s)}
    units = {**declared("end_to_end"), **dict.fromkeys(QUALITY_METRICS, "")}
    for name, unit in units.items():
        value = values[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  metric {name} {shown} {unit}{spread.get(name, '')}")
    for failure in outcome.tally.failures:
        lines.append(f"  FAILED {failure}")
    if trace:
        for it in outcome.iterations:
            if it.traced:
                total = sum(outcome.tracer.self_times(it.run_id).values())
                lines.append(f"  trace {it.run_id}: layer self times sum to "
                             f"{total:.4f} s of wall_s {it.wall_s:.4f} s")
        traced_wall = statistics.median(it.wall_s for it in outcome.iterations
                                        if it.traced)
        layers = outcome.per_layer()
        for name, unit in declared("per_layer").items():
            value = layers[name]
            share = (f" {100 * value / traced_wall:5.1f}%" if unit == "s"
                     else "")
            lines.append(f"    {name:<24} {value:10.4f} {unit}{share}")
    return lines
