"""Joint species range estimation from presence-only observations.

A small library for fitting coordinate-network range models with
single-positive multi-label losses, plus grid and linear baselines and the
evaluation protocols used to compare them.

Set ``SINR_THREADS`` to cap the BLAS thread pools, exported here before numpy
is first imported, and the workers that run a step's elementwise work (by
default one per CPU the process may use). Results do not depend on the worker
count.
"""

import os

#: The BLAS thread-count variables that ``SINR_THREADS`` sets.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = os.environ.get("SINR_THREADS")
if _threads:
    for _var in _THREAD_VARS:
        os.environ.setdefault(_var, _threads)

from .data import (
    EnvRasterStack,
    ObservationSet,
    RowRejection,
    assemble_inputs,
    filter_min_count,
    load_env_rasters,
    load_observations,
    sample_batch,
    sample_uniform_locations,
    save_observations,
    select_species,
    subsample_cap,
    write_env_raster,
)
from .evaluate import (
    DEFAULT_ALPHAS,
    ClassifierRecord,
    ClassifierScoreSet,
    EvalGrid,
    GeoFeatureResult,
    GeoPriorResult,
    GridBaselineModel,
    GridBaselinePredictor,
    MapResult,
    RidgeCvResult,
    average_precision,
    f1_at_threshold,
    f1_max_threshold,
    geo_feature_task,
    geo_prior_delta,
    grid_baseline_fit,
    grid_baseline_scores,
    load_classifier_scores,
    load_eval_grid,
    map_task,
    r2_score,
    ridge_cv,
    ridge_fit,
    save_eval_grid,
)
from .geo import (
    GridSpec,
    InputLayout,
    cell_centroids,
    cell_indices,
    encode_locations,
    input_dim,
)
from .losses import (
    BatchTargets,
    LossConfig,
    LossResult,
    LossVariant,
    bernoulli_entropy,
    compute_loss,
    draw_j_prime,
)
from .net import (
    AdamState,
    BadMagicError,
    ModelFile,
    ModelFormatError,
    NetConfig,
    NetParams,
    NonFiniteGradientError,
    TruncatedFileError,
    UnsupportedVersionError,
    adam_step,
    backward,
    forward,
    init_adam,
    init_params,
    read_model_file,
    save_model,
)
from .train import (
    LR_DECAY,
    CheckpointFormatError,
    TrainConfig,
    TrainingDivergedError,
    TrainingLog,
    TrainResult,
    load_checkpoint,
    lr_at_epoch,
    resume,
    save_checkpoint,
    steps_per_epoch,
    train,
)

__version__ = "0.1.0"
