"""Segmentation of NO2 emission plumes of individual ships from low-resolution
gridded rasters, with a built-in synthetic-scene generator for verification."""

from .dataset import LabeledDataset, assemble, select_ships
from .enhance import QUEEN, MoranStats, moran_enhance, moran_on_high
from .evaluation import (CVReport, Metrics, ShipTable, average_precision,
                         nested_cv, pr_metrics, proxy_correlation,
                         ship_estimates)
from .grid import (SAMPLE_DTYPE, GridImage, GridSpec, crop, quality_filter,
                   regrid)
from .models import (GBTModel, LogisticModel, ThresholdModel, fit_family,
                     predict_labels, predict_scores)
from .pipeline import PipelineParams, build_dataset_from_scenes, build_ship_images
from .sector import ShipSector, build_sector, normalize, pixels_in_sector
from .synth import GroundTruth, Scene, SceneConfig, generate_corpus, generate_scene, scene_to_inputs
from .tracks import (AIS_DTYPE, ShipInfo, Track, WindVector, extreme_tracks,
                     interpolate_track, mean_position, wind_shift)

__version__ = "0.1.0"
