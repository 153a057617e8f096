import math

import numpy as np
import pytest

from shipplume.dataset import parse_labels_csv
from shipplume.evaluation import pearson
from shipplume.grid import GridSpec, grid_to_csv, parse_samples_csv, quality_filter, regrid
from shipplume.pipeline import PipelineParams, build_ship_images, read_scene_dir
from shipplume.synth import (SceneConfig, generate_corpus, generate_scene,
                             scene_to_inputs)
from shipplume.tracks import WindVector

import geometry_oracle as geo
from conftest import label_dict
from test_sector import lonlat

BIG_GRID = GridSpec(lat_min=31.0, lon_min=19.0, cell_size=0.045,
                    n_rows=80, n_cols=80)


def quiet_config(**kw):
    base = dict(grid=BIG_GRID, n_ships=1, seed=4, margin_deg=1.2,
                puff_sigma_m=1500.0, decay_halflife_s=2400.0,
                speed_range_kt=(14.5, 20.0))
    base.update(kw)
    return SceneConfig(**base)


def expected_deposit_fraction(config: SceneConfig) -> float:
    """Decay-weighted fraction of emission_scale * E_s that the puff train
    deposits (exact, before any loss at the grid border)."""
    n_steps = int(math.floor(config.window_s / config.step_s + 1e-9))
    ln2 = math.log(2.0)
    return sum((config.step_s / config.window_s)
               * math.exp(-ln2 * (k * config.step_s) / config.decay_halflife_s)
               for k in range(n_steps + 1))


class TestGenerateScene:
    def test_no_noise_raster_equals_plume(self):
        scene = generate_scene(quiet_config(noise_std=0.0))
        np.testing.assert_array_equal(scene.image.values,
                                      sum(scene.truth.plumes))
        mask = scene.truth.masks[0]
        plume = scene.truth.plumes[0]
        floor = 1e-9 * plume.max()
        np.testing.assert_array_equal(mask, plume > floor)

    def test_zero_wind_mass_hugs_track(self):
        scene = generate_scene(quiet_config(noise_std=0.0,
                                            wind=WindVector(0.0, 0.0)))
        info, track, _ = scene.ships[0]
        plume = scene.truth.plumes[0]
        spec = scene.image.spec
        rows, cols = np.nonzero(plume > plume.max() * 1e-6)
        cell_m = spec.cell_size * 111320.0
        for r, c in zip(rows, cols):
            lat, lon = spec.lat_centers()[r], spec.lon_centers()[c]
            d = min(math.hypot((lat - p_lat) * 111320.0,
                               (lon - p_lon) * 111320.0
                               * math.cos(math.radians(lat)))
                    for p_lat, p_lon in zip(track.lat, track.lon))
            assert d <= 6 * 1500.0 + cell_m

    def test_mass_budget_oracle(self):
        config = quiet_config(noise_std=0.0)
        scene = generate_scene(config)
        frac = expected_deposit_fraction(config)
        for (info, _, _), plume, emission in zip(scene.ships,
                                                 scene.truth.plumes,
                                                 scene.truth.emissions):
            e_s = info.length_m ** 2 * info.speed_ms ** 3
            assert emission == pytest.approx(config.emission_scale * e_s)
            expect = config.emission_scale * e_s * frac
            assert plume.sum() == pytest.approx(expect, rel=1e-6)

    def test_seed_determinism(self):
        a = generate_scene(quiet_config(n_ships=3, noise_std=1.0))
        b = generate_scene(quiet_config(n_ships=3, noise_std=1.0))
        np.testing.assert_array_equal(a.image.values, b.image.values)
        for ma, mb in zip(a.truth.masks, b.truth.masks):
            np.testing.assert_array_equal(ma, mb)
        assert [s[0] for s in a.ships] == [s[0] for s in b.ships]

    def test_true_emission_proportional_to_proxy(self):
        scene = generate_scene(quiet_config(n_ships=6, margin_deg=0.8))
        e_s = np.array([info.length_m ** 2 * info.speed_ms ** 3
                        for info, _, _ in scene.ships])
        emissions = np.array(scene.truth.emissions)
        assert pearson(e_s, emissions) == pytest.approx(1.0, abs=1e-12)

    def test_mask_subset_of_nonzero_plume(self):
        scene = generate_scene(quiet_config(n_ships=2, margin_deg=0.8))
        for mask, plume in zip(scene.truth.masks, scene.truth.plumes):
            assert not (mask & (plume == 0.0)).any()

    def test_grid_too_small_error(self):
        tiny = GridSpec(31.0, 19.0, 0.045, 10, 10)
        with pytest.raises(ValueError, match="ships placed outside grid"):
            generate_scene(quiet_config(grid=tiny, margin_deg=1.0))

    def test_mask_inside_default_sector_with_dilation(self, tmp_path):
        config = quiet_config(n_ships=2, margin_deg=0.8, noise_std=1.0,
                              emission_scale=2e-6)
        scene = generate_scene(config)
        paths = scene_to_inputs(scene, tmp_path / "scene")
        image, records, wind, registry = read_scene_dir(tmp_path / "scene")
        images, _ = build_ship_images(image, records, wind, registry,
                                      scene.t_overpass, PipelineParams())
        spec = scene.image.spec
        cell_deg = spec.cell_size
        by_mmsi = {info.mmsi: i for i, (info, _, _) in enumerate(scene.ships)}
        for im in images:
            mask = scene.truth.masks[by_mmsi[im.info.mmsi]]
            poly = lonlat(im.sector.polygon)
            rows, cols = np.nonzero(mask)
            for r, c in zip(rows, cols):
                lat, lon = spec.lat_centers()[r], spec.lon_centers()[c]
                assert geo.distance(poly, lon, lat) <= cell_deg


class TestSceneToInputs:
    def test_round_trip_through_ingestion(self, tmp_path):
        scene = generate_scene(quiet_config(n_ships=2, margin_deg=0.8))
        paths = scene_to_inputs(scene, tmp_path / "scene")
        grid_text = paths["grid"].read_text()
        samples = parse_samples_csv(paths["samples"].read_text())
        good = quality_filter(samples)
        assert len(good) == len(samples)  # synthetic samples are all clean
        again = grid_to_csv(regrid(good, scene.image.spec))
        assert again == grid_text

    def test_labels_match_mask_sector_oracle(self, tmp_path):
        scene = generate_scene(quiet_config(n_ships=2, margin_deg=0.8,
                                            emission_scale=2e-6))
        paths = scene_to_inputs(scene, tmp_path / "scene")
        labels = label_dict(parse_labels_csv(paths["labels"].read_text()))
        assert labels and all(v == 1 for v in labels.values())

        image, records, wind, registry = read_scene_dir(tmp_path / "scene")
        images, _ = build_ship_images(image, records, wind, registry,
                                      scene.t_overpass, PipelineParams())
        spec = scene.image.spec
        by_mmsi = {info.mmsi: i for i, (info, _, _) in enumerate(scene.ships)}
        expect = set()
        for im in images:
            mask = scene.truth.masks[by_mmsi[im.info.mmsi]]
            poly = lonlat(im.sector.polygon)
            off_r = round((im.crop.spec.lat_min - spec.lat_min) / spec.cell_size)
            off_c = round((im.crop.spec.lon_min - spec.lon_min) / spec.cell_size)
            for r in range(im.crop.spec.n_rows):
                for c in range(im.crop.spec.n_cols):
                    lat = im.crop.spec.lat_centers()[r]
                    lon = im.crop.spec.lon_centers()[c]
                    if mask[off_r + r, off_c + c] and \
                            geo.covers(poly, lon, lat):
                        expect.add((im.group_id, r, c))
        assert set(labels) == expect

    def test_all_ships_pass_selection(self, tmp_path):
        scene = generate_scene(quiet_config(n_ships=3, margin_deg=0.8))
        scene_to_inputs(scene, tmp_path / "scene")
        image, records, wind, registry = read_scene_dir(tmp_path / "scene")
        images, skipped = build_ship_images(image, records, wind, registry,
                                            scene.t_overpass, PipelineParams())
        assert len(images) == 3
        assert skipped == {}
        # every synthetic ship is faster than the selection threshold
        assert all(info.speed_ms / (1852.0 / 3600.0) > 14.0
                   for info, _, _ in scene.ships)

    def test_corpus_manifest(self, tmp_path):
        manifest, n_ships = generate_corpus(
            tmp_path, 3, scene_kwargs=dict(grid=BIG_GRID, n_ships=2,
                                           margin_deg=0.8), seed=9)
        lines = manifest.read_text().splitlines()
        assert lines[0] == "scene,dir,t_overpass"
        assert len(lines) == 4
        assert n_ships == 6
        for s in range(3):
            assert (tmp_path / f"scene_{s:03d}" / "labels.csv").exists()
