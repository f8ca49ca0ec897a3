"""vical: variational (IVON) vs AdamW training for small classifiers,
with calibration and selective-prediction evaluation."""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, load_config  # noqa: F401
from .data import Batch, DataError, DatasetSpec, generate_dataset  # noqa: F401
from .experiment import (  # noqa: F401
    ExperimentResult,
    ReportRow,
    TrainedArtifact,
    TrainingDiverged,
    evaluate_one,
    run_experiment,
    sweep,
    train_one,
)
from .model import LoraAdapter, MlpParams  # noqa: F401
from .optim import (  # noqa: F401
    AdamwConfig,
    AdamwState,
    IvonConfig,
    PosteriorState,
    adamw_step,
    cosine_lr,
    init_posterior,
    ivon_sample,
    ivon_step,
)
from .predict import PredictionBatch, predict_mc, predict_mean  # noqa: F401
from .rng import RngState, child, sample_standard_normal, seed_rng  # noqa: F401
