"""End-to-end per-ship processing: from scene files (raster, AIS, wind,
registry) to sector geometry, enhanced crops, and normalized pixel features.

The feature-extraction CLI, the sector writer and the synthetic-scene label
writer all run read_scene_dir, then build_ship_images, so each sees the same
ships, sectors and pixels; only feature extraction reads labels.csv.
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (LABELS_HEADER, LabeledDataset, ShipImage, assemble,
                      csv_blocks, parse_labels_csv, select_ships)
from .enhance import moran_enhance, moran_on_high
from .grid import (_COUNT, _NON_NEGATIVE, _POSITIVE, GridImage, _check_rules,
                   _finite, _finite_number, _parse_rows, crop, parse_grid_csv,
                   read_grid)
from .parallel import fork_map
from .sector import build_sector, normalize, pixels_in_sector
from .tracks import (ShipInfo, extreme_tracks, interpolate_track,
                     lookup_wind, mean_position, overpass_speed_ms,
                     parse_ais_csv, parse_registry_csv, parse_wind_csv,
                     wind_shift)


@dataclass(frozen=True)
class PipelineParams:
    half_extent: float = 0.4
    window_s: float = 7200.0
    step_s: float = 300.0
    dspeed: float = 5.0
    dangle: float = 40.0
    n_levels: int = 5
    n_subsectors: int = 5
    min_speed_kt: float = 14.0
    dedup_radius_deg: float = 0.4

    def __post_init__(self) -> None:
        window = ("finite and >= step_s",
                  lambda v: _finite_number(v) and v >= self.step_s)
        angle = ("in (0, 180)", lambda v: _finite_number(v) and 0 < v < 180)
        _check_rules("pipeline", vars(self), {
            "half_extent": _POSITIVE, "step_s": _POSITIVE, "window_s": window,
            "dspeed": _NON_NEGATIVE, "dangle": angle, "n_levels": _COUNT,
            "n_subsectors": _COUNT, "min_speed_kt": _NON_NEGATIVE,
            "dedup_radius_deg": _NON_NEGATIVE})


def group_id_for(mmsi: int, t_overpass: float) -> str:
    date = datetime.datetime.fromtimestamp(t_overpass,
                                           tz=datetime.timezone.utc).date()
    return f"{mmsi}_{date.isoformat()}"


# The ValueError messages that skip a ship; any other ValueError propagates.
SKIP_REASONS = frozenset({
    "no registry entry", "insufficient AIS coverage",
    "speed/duplicate selection", "center out of bounds", "empty crop",
    "insufficient pixels", "constant image", "degenerate sector",
    "empty sector"})


def build_ship_images(image: GridImage, records: np.ndarray,
                      wind_samples: np.ndarray, registry: dict[int, float],
                      t_overpass: float, params: PipelineParams,
                      ) -> tuple[list[ShipImage], dict[str, int]]:
    """Run the sector pipeline for every ship, in MMSI order, that passes the
    selection rules; this is the one loop over a scene's ships, whose records
    and wind_samples are tracks.AIS_DTYPE and tracks.WIND_DTYPE tables.

    A ship that fails a step with a message in SKIP_REASONS is skipped and
    tallied by that message.
    """
    skipped: dict[str, int] = {}

    def skip(exc: ValueError) -> None:
        reason = str(exc)
        if reason not in SKIP_REASONS:
            raise exc
        skipped[reason] = skipped.get(reason, 0) + 1

    # the ships in MMSI order, each with its records in file order
    order = np.argsort(records["mmsi"], kind="stable")
    mmsis, starts = np.unique(records["mmsi"][order], return_index=True)
    prepared = []
    for mmsi, ship_records in zip(mmsis.tolist(),
                                  np.split(records[order], starts[1:])):
        try:
            if mmsi not in registry:
                raise ValueError("no registry entry")
            track = interpolate_track(ship_records, t_overpass,
                                      window_s=params.window_s,
                                      step_s=params.step_s)
        except ValueError as exc:
            skip(exc)
            continue
        wind = lookup_wind(wind_samples, t_overpass, *mean_position(track))
        info = ShipInfo(mmsi=mmsi, length_m=registry[mmsi],
                        speed_ms=overpass_speed_ms(ship_records, t_overpass))
        prepared.append((info, track, wind, wind_shift(track, wind, t_overpass)))

    selected = select_ships([(info, shifted) for info, _, _, shifted in prepared],
                            min_speed_kt=params.min_speed_kt,
                            dedup_radius_deg=params.dedup_radius_deg)
    keep = {info.mmsi for info, _ in selected}
    images: list[ShipImage] = []
    for info, track, wind, shifted in prepared:
        try:
            if info.mmsi not in keep:
                raise ValueError("speed/duplicate selection")
            cimg = crop(image, *mean_position(shifted), params.half_extent)
            enhanced = moran_enhance(cimg)
            enhanced_high = moran_on_high(cimg)
            ext_left, ext_right = extreme_tracks(track, wind, t_overpass,
                                                 dspeed=params.dspeed,
                                                 dangle=params.dangle)
            sec = build_sector(track, ext_left, ext_right,
                               angle_half_width=params.dangle)
            pixels = pixels_in_sector(sec, cimg)
            if len(pixels) == 0:
                raise ValueError("empty sector")
            level, sub_sector = normalize(sec, pixels, cimg,
                                          n_levels=params.n_levels,
                                          n_subsectors=params.n_subsectors)
        except ValueError as exc:
            skip(exc)
            continue
        images.append(ShipImage(group_id=group_id_for(info.mmsi, t_overpass),
                                info=info, wind=wind, crop=cimg,
                                moran=enhanced, moran_high=enhanced_high,
                                sector=sec, pixels=pixels, level=level,
                                sub_sector=sub_sector))
    return images, skipped


# --- scene directories -------------------------------------------------------

MANIFEST_NAME = "scenes.csv"
MANIFEST_HEADER = "scene,dir,t_overpass"


@dataclass(frozen=True)
class SceneRef:
    index: int
    path: Path
    t_overpass: float


def read_manifest(manifest_path: str | Path) -> list[SceneRef]:
    manifest_path = Path(manifest_path)
    return _parse_rows(manifest_path.read_text(), MANIFEST_HEADER,
                       "scenes manifest",
                       lambda f: SceneRef(index=int(f[0]),
                                          path=manifest_path.parent / f[1],
                                          t_overpass=_finite(f[2])))


def read_scene_dir(path: Path):
    """One scene directory's raster (read_grid), AIS, wind and registry."""
    return (read_grid(path / "grid.csv", parse_grid_csv),
            parse_ais_csv((path / "ais.csv").read_text()),
            parse_wind_csv((path / "wind.csv").read_text()),
            parse_registry_csv((path / "ships.csv").read_text()))


def scene_images(path: Path, t_overpass: float, params: PipelineParams):
    """(images, skipped) of the one pass from a scene directory through
    build_ship_images."""
    return build_ship_images(*read_scene_dir(path), t_overpass, params)


def map_scenes(refs: list[SceneRef], run):
    """(ref, run(ref)) of each scene in manifest order, by one fork_map job
    each; a scene's error, a ValueError naming the scene, is raised when the
    iteration gets to it."""
    def job(k: int):
        try:
            return run(refs[k])
        except ValueError as exc:
            return ValueError(f"scene {refs[k].path}: {exc}")
        except Exception as exc:  # raised below, in manifest order
            return exc
    for ref, part in zip(refs, fork_map(job, len(refs))):
        if isinstance(part, Exception):
            raise part
        yield ref, part


def build_dataset_from_scenes(manifest_path: str | Path, params: PipelineParams,
                              csv: bool = False) -> tuple:
    """(dataset, counts) of every scene in a manifest, each scene assembled
    with its own labels.csv (which may label only its pixels), then stably
    sorted by group_id: one ship on one UTC day, so a ship imaged in two
    scenes of a day is rejected, naming both. A scene without labels.csv
    reads as all 0 if another scene has one, else as all unlabeled. With
    csv, the scene jobs also format the rows: a third item, the blocks of
    dataset.write_dataset."""
    shape = {"n_levels": params.n_levels, "n_subsectors": params.n_subsectors}
    refs = read_manifest(manifest_path)
    labelled = {ref.path for ref in refs if (ref.path / "labels.csv").exists()}
    no_labels = parse_labels_csv(LABELS_HEADER) if labelled else None

    def rows(ref: SceneRef):
        tables = read_scene_dir(ref.path)
        labels = (parse_labels_csv((ref.path / "labels.csv").read_text())
                  if ref.path in labelled else no_labels)
        images, skipped = build_ship_images(*tables, ref.t_overpass, params)
        part = assemble(images, labels, **shape)
        return (part, [im.group_id for im in images], skipped,
                csv_blocks(part) if csv else None)

    parts, counts, scene_of = [assemble([], **shape)], Counter(), {}
    blocks = [{}]
    for ref, (part, group_ids, skipped, part_blocks) in map_scenes(refs, rows):
        for gid in group_ids:
            if gid in scene_of:
                raise ValueError(f"group_id {gid} occurs in scenes "
                                 f"{scene_of[gid]} and {ref.path}")
            scene_of[gid] = ref.path
        counts.update(skipped)
        parts.append(part)
        blocks.append(part_blocks)
    # parts are in group_id order, no group_id in two: join their runs in order
    runs = sorted((gid, k, lo, lo + n) for k, p in enumerate(parts)
                  for gid, lo, n in zip(*np.unique(
                      p.group_ids, return_index=True, return_counts=True)))
    ds = LabeledDataset(n_dropped=sum(p.n_dropped for p in parts), **shape, **{
        name: np.concatenate([getattr(parts[0], name)] + [
            getattr(parts[k], name)[lo:hi] for _, k, lo, hi in runs])
        for name in ("group_ids", "rows", "cols", "X", "moran_high", "labels")})
    result = ds, {**counts, "ships": len(scene_of)}
    return (*result, [blocks[k][g] for g, k, _, _ in runs]) if csv else result
