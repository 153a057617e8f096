"""Outside-in tracing of a shipplume run.

The tracer replaces public functions of the program at the names their
callers look them up under (for example ``shipplume.pipeline.crop``, which
``build_ship_images`` resolves as a module global, or
``shipplume.dataset.parse_dataset_csv``, which the CLI resolves as
``ds_mod.parse_dataset_csv``). Each wrapper records a span (name, start,
end, parent, run id) in memory and bumps the layer counters; nothing under
``src/`` changes and the originals are restored when tracing stops.

A layer's self time is the time of its spans minus the time of their
direct child spans, so the self times of all layers sum to the duration of
the root spans, which the benchmark opens around each ``cli.main`` call.
Each wrapper also adds the time it spends outside its own span (recording
the span, running its counter hook) to ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

_THRESHOLD_FAMILIES = ("no2", "moran", "moran-high")


def _fit_metric(args, kwargs) -> str:
    family = kwargs.get("family", args[0] if args else "")
    kind = "threshold" if family in _THRESHOLD_FAMILIES else family
    return f"models.fit_s.{kind}"


def _count_ships(tr, args, kwargs, result) -> None:
    records = kwargs.get("records", args[1] if len(args) > 1 else [])
    tr.count("pipeline.ships", len(result[0]))
    tr.count("pipeline.ais_ships", len({rec.mmsi for rec in records}))


def _count_splits(tr, args, kwargs, result) -> None:
    tr.count("models.fits", 1)
    trees = getattr(result, "trees", None)
    if trees is None:
        return
    stack = list(trees)
    splits = 0
    while stack:
        node = stack.pop()
        if "leaf" not in node:
            splits += 1
            stack.append(node["left"])
            stack.append(node["right"])
    tr.count("models.gbt.splits", splits)


def _count_bytes(tr, args, kwargs, result) -> None:
    path = kwargs.get("path", args[0] if args else None)
    tr.count("fileio.bytes", Path(path).stat().st_size)


def _calls(counter: str):
    def bump(tr, args, kwargs, result) -> None:
        tr.count(counter, 1)
    return bump


def _count_pixels(tr, args, kwargs, result) -> None:
    tr.count("sector.pixels", len(result))


def _count_rows(tr, args, kwargs, result) -> None:
    tr.count("dataset.rows", len(result.rows))


# (module, attribute, self-time metric, counter hook). The module is the one
# whose namespace the caller resolves the name in.
WRAPS: tuple[tuple[str, str, object, object], ...] = (
    ("shipplume.cli", "build_dataset_from_scenes", "pipeline.self_s", None),
    ("shipplume.cli", "write_atomic", "fileio.write_s", _count_bytes),
    ("shipplume.pipeline", "read_manifest", "pipeline.self_s", None),
    ("shipplume.pipeline", "read_scene_dir", "pipeline.self_s", None),
    ("shipplume.pipeline", "build_ship_images", "pipeline.self_s",
     _count_ships),
    ("shipplume.pipeline", "parse_grid_csv", "grid.parse_s", None),
    ("shipplume.pipeline", "crop", "grid.crop_s", None),
    ("shipplume.pipeline", "parse_ais_csv", "tracks.parse_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "parse_wind_csv", "tracks.parse_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "parse_registry_csv", "tracks.parse_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "interpolate_track", "tracks.geom_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "overpass_speed_ms", "tracks.geom_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "lookup_wind", "tracks.geom_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "wind_shift", "tracks.geom_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "extreme_tracks", "tracks.geom_s",
     _calls("tracks.calls")),
    ("shipplume.pipeline", "moran_enhance", "enhance.moran_s",
     _calls("enhance.calls")),
    ("shipplume.pipeline", "moran_on_high", "enhance.moran_s",
     _calls("enhance.calls")),
    ("shipplume.pipeline", "build_sector", "sector.build_s", None),
    ("shipplume.pipeline", "pixels_in_sector", "sector.pixels_s",
     _count_pixels),
    ("shipplume.pipeline", "normalize", "sector.normalize_s", None),
    ("shipplume.pipeline", "select_ships", "dataset.select_s", None),
    ("shipplume.pipeline", "assemble", "dataset.assemble_s",
     _count_rows),
    ("shipplume.pipeline", "parse_labels_csv", "dataset.labels_parse_s", None),
    ("shipplume.dataset", "dataset_to_csv", "dataset.csv_write_s", None),
    ("shipplume.dataset", "parse_dataset_csv", "dataset.csv_parse_s", None),
    ("shipplume.evaluation", "nested_cv", "evaluation.self_s", None),
    ("shipplume.evaluation", "pr_metrics", "evaluation.metric_s", None),
    ("shipplume.evaluation", "average_precision", "evaluation.metric_s", None),
    ("shipplume.evaluation", "pr_curve", "evaluation.metric_s", None),
    ("shipplume.evaluation", "ship_estimates", "evaluation.proxy_s", None),
    ("shipplume.evaluation", "proxy_correlation", "evaluation.proxy_s", None),
    ("shipplume.evaluation", "fit_family", _fit_metric, _count_splits),
    ("shipplume.evaluation", "predict_scores", "models.predict_s", None),
    ("shipplume.evaluation", "predict_labels", "models.predict_s", None),
)

ROOT_METRIC = "cli.self_s"
OVERHEAD_METRIC = "trace.overhead_s"


@dataclass
class Span:
    name: str
    metric: str
    start: float
    end: float
    parent: int | None
    run_id: str


@dataclass
class Tracer:
    """In-memory span and counter store for one benchmark run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    run_id: str = ""
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, n: float) -> None:
        run = self.counters.setdefault(self.run_id, {})
        run[name] = run.get(name, 0) + n

    @contextmanager
    def span(self, name: str, metric: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, metric, 0.0, 0.0, parent, self.run_id)
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, metric, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            label = metric(args, kwargs) if callable(metric) else metric
            with self.span(name, label) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            # The wrapper's own time outside the span it records.
            self.count(OVERHEAD_METRIC, time.perf_counter() - entered
                       - (span.end - span.start))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every function in WRAPS by its traced wrapper; restore
        the originals on exit, also when the body raises."""
        saved = []
        try:
            for module_name, attr, metric, hook in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                short = module_name.rsplit(".", 1)[-1]
                setattr(module, attr,
                        self.wrap(original, f"{short}.{attr}", metric, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, run_id: str) -> dict[str, float]:
        """Self time per metric over the spans of one run."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.run_id == run_id and span.parent is not None:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.end - span.start)
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.run_id != run_id:
                continue
            own = span.end - span.start - child_time.get(i, 0.0)
            out[span.metric] = out.get(span.metric, 0.0) + own
        return out

    def root_time(self, run_id: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.run_id == run_id and s.parent is None)

    def layer_metrics(self, run_id: str) -> dict[str, float]:
        """The self times and counters one run produced; a layer the run
        never entered is absent."""
        out = {**self.self_times(run_id), **self.counters.get(run_id, {})}
        ais = out.pop("pipeline.ais_ships", 0)
        if ais:
            out["pipeline.ship_yield"] = out["pipeline.ships"] / ais
        return out

    def write_jsonl(self, path: Path) -> None:
        lines = [json.dumps({"name": s.name, "metric": s.metric,
                             "start": s.start, "end": s.end,
                             "parent": s.parent, "run_id": s.run_id})
                 for s in self.spans]
        path.write_text("\n".join(lines) + "\n" if lines else "")
