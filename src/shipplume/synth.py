"""Synthetic plume scenes with exact ground truth.

A scene is a nonnegative background field (optionally spatially correlated
noise) plus one advected Gaussian-puff plume per ship. Puffs are released
along the ship track, drift with the wind, decay exponentially with age, and
are deposited as cell-integrated 2-D Gaussians, so the per-ship deposited
mass has a closed form. Each ship's true emission is emission_scale * L^2 * U^3,
and the ground-truth mask marks cells where the ship's own plume contribution
exceeds mask_tau * noise_std.

The pipeline under test never sees these internals, only the serialized files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import labels_to_csv, pixel_table
from .fileio import write_atomic
from .grid import (_COUNT, _NON_NEGATIVE, _POSITIVE, M_PER_DEG_LAT,
                   SAMPLE_DTYPE, GridImage, GridSpec, _check_rules,
                   _finite_number, table_to_csv, write_grid)
from .parallel import fork_map
from .pipeline import (MANIFEST_HEADER, MANIFEST_NAME, PipelineParams,
                       scene_images)
from .tracks import (AIS_DTYPE, KNOT_MS, REGISTRY_DTYPE, WIND_DTYPE, ShipInfo,
                     Track, WindVector, mean_position, wind_shift)

DEFAULT_GRID = GridSpec(lat_min=31.5, lon_min=19.5, cell_size=0.045,
                        n_rows=60, n_cols=60)


@dataclass(frozen=True)
class SceneConfig:
    grid: GridSpec = DEFAULT_GRID
    n_ships: int = 2
    seed: int = 0
    t_overpass: float = 1554120000.0  # 2019-04-01 12:00:00 UTC
    wind: WindVector | None = None    # fixed wind; None samples from the range
    wind_speed_range: tuple[float, float] = (2.0, 7.0)
    noise_std: float = 1.0
    noise_corr_cells: float = 0.0
    emission_scale: float = 3e-6      # mass units per (m^2 m^3 s^-3)
    puff_sigma_m: float = 3000.0
    decay_halflife_s: float = 3600.0
    mask_tau: float = 1.0
    speed_range_kt: tuple[float, float] = (14.5, 25.0)
    length_range_m: tuple[float, float] = (80.0, 350.0)
    window_s: float = 7200.0
    step_s: float = 300.0
    margin_deg: float = 0.5
    min_separation_deg: float = 0.5
    mmsi_base: int = 200000001

    def __post_init__(self) -> None:
        speeds = ("finite with 0 <= min <= max",
                  lambda v: len(v) == 2 and all(map(_finite_number, v))
                  and 0 <= v[0] <= v[1])
        _check_rules("scene", vars(self), {
            "n_ships": _COUNT, "t_overpass": ("finite", _finite_number),
            "wind_speed_range": speeds, "noise_std": _NON_NEGATIVE,
            "noise_corr_cells": _NON_NEGATIVE, "emission_scale": _NON_NEGATIVE,
            "puff_sigma_m": _POSITIVE, "decay_halflife_s": _POSITIVE,
            "mask_tau": _POSITIVE})


@dataclass
class GroundTruth:
    plumes: list[np.ndarray]    # per-ship plume-only rasters (full grid)
    masks: list[np.ndarray]     # per-ship boolean masks
    emissions: list[float]      # per-ship true emission, emission_scale * E_s


@dataclass
class Scene:
    config: SceneConfig
    image: GridImage
    ships: list[tuple[ShipInfo, Track, WindVector]]
    truth: GroundTruth
    wind: WindVector
    t_overpass: float
    headings: list[float]


def _straight_track(mmsi: int, lat0: float, lon0: float, heading: float,
                    speed_ms: float, t_overpass: float, window_s: float,
                    step_s: float) -> Track:
    north = speed_ms * math.cos(math.radians(heading))
    east = speed_ms * math.sin(math.radians(heading))
    coslat = math.cos(math.radians(lat0))
    n_steps = int(math.floor(window_s / step_s + 1e-9))
    dt = np.arange(n_steps, -1, -1) * step_s
    return Track(mmsi, t_overpass - dt, lat0 - north * dt / M_PER_DEG_LAT,
                 lon0 - east * dt / (M_PER_DEG_LAT * coslat))


def _deposit_puff(out: np.ndarray, spec: GridSpec, lat_ref: float,
                  lon_ref: float, plat: float, plon: float, sigma_m: float,
                  mass: float) -> None:
    """Add a cell-integrated 2-D Gaussian to the raster (separable erf form)."""
    from scipy.special import erf  # imported here: only synth needs it
    coslat = math.cos(math.radians(lat_ref))
    px = (plon - lon_ref) * M_PER_DEG_LAT * coslat
    py = (plat - lat_ref) * M_PER_DEG_LAT
    wy = spec.cell_size * M_PER_DEG_LAT
    wx = spec.cell_size * M_PER_DEG_LAT * coslat
    half_r = int(math.ceil(6.0 * sigma_m / wy)) + 1
    half_c = int(math.ceil(6.0 * sigma_m / wx)) + 1
    rc = int(math.floor((plat - spec.lat_min) / spec.cell_size))
    cc = int(math.floor((plon - spec.lon_min) / spec.cell_size))
    r0 = max(0, rc - half_r)
    r1 = min(spec.n_rows, rc + half_r + 1)
    c0 = max(0, cc - half_c)
    c1 = min(spec.n_cols, cc + half_c + 1)
    if r0 >= r1 or c0 >= c1:
        return
    sq2 = sigma_m * math.sqrt(2.0)
    y_edges = (spec.lat_min + np.arange(r0, r1 + 1) * spec.cell_size
               - lat_ref) * M_PER_DEG_LAT
    x_edges = (spec.lon_min + np.arange(c0, c1 + 1) * spec.cell_size
               - lon_ref) * M_PER_DEG_LAT * coslat
    fy = 0.5 * np.diff(erf((y_edges - py) / sq2))
    fx = 0.5 * np.diff(erf((x_edges - px) / sq2))
    out[r0:r1, c0:c1] += mass * np.outer(fy, fx)


def generate_scene(config: SceneConfig) -> Scene:
    """Build one scene: background, ships with straight pre-overpass tracks,
    per-ship plume rasters, and exact masks. Deterministic for a fixed seed."""
    rng = np.random.default_rng(config.seed)
    spec = config.grid

    if config.wind is not None:
        wind = config.wind
    else:
        speed = float(rng.uniform(*config.wind_speed_range))
        direction = float(rng.uniform(0.0, 360.0))
        wind = WindVector(speed * math.cos(math.radians(direction)),
                          speed * math.sin(math.radians(direction)))

    m = config.margin_deg
    lat_lo, lat_hi = spec.lat_min + m, spec.lat_max - m
    lon_lo, lon_hi = spec.lon_min + m, spec.lon_max - m
    if lat_lo >= lat_hi or lon_lo >= lon_hi:
        raise ValueError("ships placed outside grid")

    ships: list[tuple[ShipInfo, Track, WindVector]] = []
    headings: list[float] = []
    centers: list[tuple[float, float]] = []
    for i in range(config.n_ships):
        placed = False
        for _ in range(500):
            lat0 = float(rng.uniform(lat_lo, lat_hi))
            lon0 = float(rng.uniform(lon_lo, lon_hi))
            heading = float(rng.uniform(0.0, 360.0))
            speed_kt = float(rng.uniform(*config.speed_range_kt))
            length = float(rng.uniform(*config.length_range_m))
            track = _straight_track(config.mmsi_base + i, lat0, lon0, heading,
                                    speed_kt * KNOT_MS, config.t_overpass,
                                    config.window_s, config.step_s)
            center = mean_position(wind_shift(track, wind, config.t_overpass))
            if not (lat_lo <= center[0] <= lat_hi and lon_lo <= center[1] <= lon_hi):
                continue
            if any(math.hypot(center[0] - c[0], center[1] - c[1])
                   <= config.min_separation_deg for c in centers):
                continue
            info = ShipInfo(mmsi=config.mmsi_base + i, length_m=length,
                            speed_ms=speed_kt * KNOT_MS)
            ships.append((info, track, wind))
            headings.append(heading)
            centers.append(center)
            placed = True
            break
        if not placed:
            raise ValueError("ships placed outside grid")

    shape = (spec.n_rows, spec.n_cols)
    if config.noise_std > 0:
        noise = rng.standard_normal(shape)
        if config.noise_corr_cells > 0:
            from scipy.ndimage import gaussian_filter
            noise = gaussian_filter(noise, config.noise_corr_cells)
        sd = float(noise.std())
        if sd > 0:
            noise = (noise - noise.mean()) / sd * config.noise_std
        background = noise - noise.min()
    else:
        background = np.zeros(shape)

    lat_ref = (spec.lat_min + spec.lat_max) / 2.0
    lon_ref = (spec.lon_min + spec.lon_max) / 2.0
    ln2 = math.log(2.0)
    plumes: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    emissions: list[float] = []
    for info, track, _ in ships:
        e_s = info.length_m ** 2 * info.speed_ms ** 3
        total = config.emission_scale * e_s
        plume = np.zeros(shape)
        # each puff drifts with the wind for its age, like the shifted track
        puffs = wind_shift(track, wind, config.t_overpass)
        ages = config.t_overpass - track.t
        for plat, plon, age in zip(puffs.lat.tolist(), puffs.lon.tolist(),
                                   ages.tolist()):
            mass = (total * (config.step_s / config.window_s)
                    * math.exp(-ln2 * age / config.decay_halflife_s))
            _deposit_puff(plume, spec, lat_ref, lon_ref, plat, plon,
                          config.puff_sigma_m, mass)
        if config.noise_std > 0:
            threshold = config.mask_tau * config.noise_std
        else:
            threshold = 1e-9 * float(plume.max())
        plumes.append(plume)
        masks.append(plume > threshold)
        emissions.append(total)

    values = background + sum(plumes)
    image = GridImage(spec, values, np.ones(shape, dtype=bool))
    truth = GroundTruth(plumes=plumes, masks=masks, emissions=emissions)
    return Scene(config=config, image=image, ships=ships, truth=truth,
                 wind=wind, t_overpass=config.t_overpass, headings=headings)


# --- serialization into the pipeline's external formats -----------------------

def scene_samples(scene: Scene) -> np.ndarray:
    """One clean point sample at every cell center of the scene raster, in
    row-major cell order."""
    spec = scene.image.spec
    lat, lon = np.meshgrid(spec.lat_centers(), spec.lon_centers(),
                           indexing="ij")
    out = np.zeros(spec.n_rows * spec.n_cols, dtype=SAMPLE_DTYPE)
    out["lat"] = lat.ravel()
    out["lon"] = lon.ravel()
    out["value"] = scene.image.values.ravel()
    out["qa"] = 1.0
    return out


def scene_ais_records(scene: Scene) -> np.ndarray:
    """The AIS_DTYPE table of every ship's track points, ship by ship."""
    parts = []
    for (info, track, _), heading in zip(scene.ships, scene.headings):
        part = np.zeros(len(track.t), dtype=AIS_DTYPE)
        part["mmsi"] = info.mmsi
        part["timestamp"], part["lat"], part["lon"] = track.t, track.lat, track.lon
        part["speed_kt"] = info.speed_ms / KNOT_MS
        part["heading_deg"] = heading
        parts.append(part)
    return np.concatenate(parts)


def scene_wind_samples(scene: Scene) -> np.ndarray:
    """The WIND_DTYPE table of the scene wind at the four grid corners."""
    spec = scene.image.spec
    return np.array([(scene.t_overpass, lat, lon, scene.wind.u, scene.wind.v)
                     for lat in (spec.lat_min, spec.lat_max)
                     for lon in (spec.lon_min, spec.lon_max)], dtype=WIND_DTYPE)


def scene_to_inputs(scene: Scene, out_dir: str | Path,
                    params: PipelineParams | None = None) -> dict[str, Path]:
    """Write a scene as the pipeline's file formats: raster, point samples,
    AIS, wind, ship registry, and a label file.

    Labels are derived by running the written files through the sector
    pipeline itself, so the label keys always match the pixels a later
    feature-extraction pass will produce. Only plume pixels (ground-truth
    mask within the ship sector) are listed; unlisted sector pixels read
    as label 0.
    """
    params = params or PipelineParams()
    out_dir = Path(out_dir)
    paths = {
        "grid": out_dir / "grid.csv",
        "samples": out_dir / "samples.csv",
        "ais": out_dir / "ais.csv",
        "wind": out_dir / "wind.csv",
        "ships": out_dir / "ships.csv",
        "labels": out_dir / "labels.csv",
    }
    write_grid(paths["grid"], scene.image)
    tables = {"samples": scene_samples(scene), "ais": scene_ais_records(scene),
              "wind": scene_wind_samples(scene), "ships": np.array(
                  [(info.mmsi, info.length_m) for info, _, _ in scene.ships],
                  dtype=REGISTRY_DTYPE)}
    for name, table in tables.items():
        write_atomic(paths[name], table_to_csv(
            {field: table[field] for field in table.dtype.names}))

    ship_images, _ = scene_images(out_dir, scene.t_overpass, params)
    mask_by_mmsi = {info.mmsi: scene.truth.masks[i]
                    for i, (info, _, _) in enumerate(scene.ships)}
    spec = scene.image.spec
    plumes = []
    for im in ship_images:
        mask = mask_by_mmsi[im.info.mmsi]
        off_r = round((im.crop.spec.lat_min - spec.lat_min) / spec.cell_size)
        off_c = round((im.crop.spec.lon_min - spec.lon_min) / spec.cell_size)
        plume = mask[off_r + im.pixels[:, 0], off_c + im.pixels[:, 1]]
        plumes.append(im.pixels[plume])
    labels = pixel_table(ship_images, plumes)
    labels["label"] = np.ones(len(labels["row"]), dtype=int)
    write_atomic(paths["labels"], labels_to_csv(labels))
    return paths


def generate_corpus(out_dir: str | Path, n_scenes: int,
                    params: PipelineParams | None = None,
                    scene_kwargs: dict | None = None, seed: int = 0,
                    start_epoch: float = 1554120000.0) -> tuple[Path, int]:
    """Write a batch of scenes plus a manifest; returns (manifest path,
    total ships). Scene s gets seed seed*100000 + s and its own date. The
    scenes are written through parallel.fork_map, the manifest last."""
    _check_rules("corpus", {"n_scenes": n_scenes}, {"n_scenes": _COUNT})
    out_dir = Path(out_dir)
    epochs = [start_epoch + s * 86400.0 for s in range(n_scenes)]
    dirs = [f"scene_{s:03d}" for s in range(n_scenes)]
    import scipy.special  # generate_scene's erf, imported once before the fork

    def write_scene(s: int) -> int:
        scene = generate_scene(SceneConfig(
            seed=seed * 100000 + s, t_overpass=epochs[s],
            mmsi_base=200000001 + 100 * s, **(scene_kwargs or {})))
        scene_to_inputs(scene, out_dir / dirs[s], params)
        return len(scene.ships)

    total_ships = sum(fork_map(write_scene, n_scenes))
    write_atomic(out_dir / MANIFEST_NAME, table_to_csv(dict(zip(
        MANIFEST_HEADER.split(","),
        [np.arange(n_scenes), np.array(dirs), np.array(epochs)]))))
    return out_dir / MANIFEST_NAME, total_ships
