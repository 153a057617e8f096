"""End-to-end per-ship processing: from scene files (raster, AIS, wind,
registry) to sector geometry, enhanced crops, and normalized pixel features.

The feature-extraction CLI, the sector writer and the synthetic-scene label
writer all run through build_ship_images, so each sees the same ships,
sectors and pixels.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

from .dataset import (LabeledDataset, ShipImage, assemble, parse_labels_csv,
                      select_ships)
from .enhance import moran_enhance, moran_on_high
from .grid import (_COUNT, _NON_NEGATIVE, _POSITIVE, GridImage, _check_rules,
                   _finite, _finite_number, _parse_rows, crop, parse_grid_csv)
from .sector import build_sector, normalize, pixels_in_sector
from .tracks import (AISRecord, ShipInfo, WindSample, extreme_tracks,
                     interpolate_track, lookup_wind, mean_position,
                     overpass_speed_ms, parse_ais_csv, parse_registry_csv,
                     parse_wind_csv, wind_shift)


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


def build_ship_images(image: GridImage, records: list[AISRecord],
                      wind_samples: list[WindSample], registry: dict[int, float],
                      t_overpass: float, params: PipelineParams,
                      ) -> tuple[list[ShipImage], dict[str, int]]:
    """Run the sector pipeline for every ship, in MMSI order, that passes the
    selection rules; this is the one loop over a scene's ships.

    A ship that fails a step with a message in SKIP_REASONS is skipped and
    tallied by that message.
    """
    skipped: dict[str, int] = {}

    def skip(exc: ValueError) -> None:
        reason = str(exc)
        if reason not in SKIP_REASONS:
            raise exc
        skipped[reason] = skipped.get(reason, 0) + 1

    by_mmsi: dict[int, list[AISRecord]] = {}
    for rec in records:
        by_mmsi.setdefault(rec.mmsi, []).append(rec)
    prepared = []
    for mmsi in sorted(by_mmsi):
        try:
            if mmsi not in registry:
                raise ValueError("no registry entry")
            track = interpolate_track(by_mmsi[mmsi], t_overpass,
                                      window_s=params.window_s,
                                      step_s=params.step_s)
        except ValueError as exc:
            skip(exc)
            continue
        wind = lookup_wind(wind_samples, t_overpass, *mean_position(track))
        info = ShipInfo(mmsi=mmsi, length_m=registry[mmsi],
                        speed_ms=overpass_speed_ms(by_mmsi[mmsi], t_overpass))
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


def read_scene_dir(path: str | Path):
    """Parse one scene directory: raster, AIS, wind, registry, optional labels."""
    path = Path(path)
    image = parse_grid_csv((path / "grid.csv").read_text())
    records = parse_ais_csv((path / "ais.csv").read_text())
    wind = parse_wind_csv((path / "wind.csv").read_text())
    registry = parse_registry_csv((path / "ships.csv").read_text())
    labels = None
    labels_path = path / "labels.csv"
    if labels_path.exists():
        labels = parse_labels_csv(labels_path.read_text())
    return image, records, wind, registry, labels


def build_dataset_from_scenes(manifest_path: str | Path, params: PipelineParams,
                              ) -> tuple[LabeledDataset, dict[str, int]]:
    """Assemble the feature dataset for every scene listed in a manifest.

    A group_id is one ship on one UTC day, so a ship imaged in two scenes of
    the same day is rejected, naming both scene directories."""
    refs = read_manifest(manifest_path)
    all_images: list[ShipImage] = []
    all_labels: dict[tuple[str, int, int], int] = {}
    have_labels = False
    counts: dict[str, int] = {}
    scene_of: dict[str, Path] = {}
    for ref in refs:
        image, records, wind, registry, labels = read_scene_dir(ref.path)
        images, skipped = build_ship_images(image, records, wind, registry,
                                            ref.t_overpass, params)
        for img in images:
            if img.group_id in scene_of:
                raise ValueError(f"group_id {img.group_id} occurs in scenes "
                                 f"{scene_of[img.group_id]} and {ref.path}")
            scene_of[img.group_id] = ref.path
        all_images.extend(images)
        for reason, n in skipped.items():
            counts[reason] = counts.get(reason, 0) + n
        if labels is not None:
            have_labels = True
            all_labels.update(labels)
    ds = assemble(all_images, all_labels if have_labels else None,
                  n_levels=params.n_levels, n_subsectors=params.n_subsectors)
    counts["ships"] = len(all_images)
    return ds, counts
