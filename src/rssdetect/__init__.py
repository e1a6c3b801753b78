"""Spoofing detection from short-term RSS vector estimates.

The package decides whether two noisy RSS vector estimates were
transmitted from the same spatial location (H0) or from different
locations (H1).  It provides a commutative neural detector, distance and
K-means baselines, a synthetic measurement-campaign generator, and a
Monte Carlo evaluation harness with a CLI.
"""

from .benchmarks import (
    DbcModel,
    KmcModel,
    decide_dbc,
    decide_kmc,
    lloyd_kmeans,
    train_dbc,
    train_kmc,
    tune_threshold,
)
from .dataset import (
    LocationSplit,
    MeasurementSet,
    PairSet,
    build_pair_set,
    load_measurements,
    save_measurements,
    select_features,
    split_locations,
)
from .detector import (
    Decision,
    DetectorModel,
    Hypothesis,
    decide,
    fixed_first_layer,
    pair_loss,
    train_detector,
)
from .errors import ConfigError, DataFormatError, DegeneratePowerError, NonFiniteLossError
from .modelio import load_model, save_model
from .neural import MlpParams, TrainConfig, init_params, forward, sgd_step, train_loop
from .seeding import derive_seed
from .signal_model import (
    SampleWindow,
    Scenario,
    ScenarioConfig,
    draw_sample_window,
    estimate_rss,
    estimate_rss_vector,
    generate_scenario,
    simulate_measurement_set,
    true_rss,
)

__version__ = "0.1.0"
