"""Joint species range estimation from presence-only observations.

A small library for fitting coordinate-network range models with
single-positive multi-label losses, plus grid and linear baselines and the
evaluation protocols used to compare them.

Importing ``sinr`` holds numpy's BLAS at one thread: it sets the BLAS
thread-count variables to 1 unless they are set, before numpy is first
imported, then pins numpy's bundled OpenBLAS to one thread at run time
(``sinr.parallel.BLAS_PINNED``). The package's own workers run a step's
elementwise work and its species-head products, by default one per CPU the
process may use; ``SINR_THREADS`` sets their number. With BLAS pinned,
results depend neither on the worker count nor on the BLAS thread count
asked for.
"""

import os

#: The BLAS thread-count variables that importing ``sinr`` sets to 1 unless set.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

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
