"""Knowledge distillation from logits with per-sample normalized temperatures.

The library softens each sample's logits by a temperature tied to that
sample's own logit spread (its standard deviation, maximum, or range)
instead of one global constant, and trains small teacher/student MLPs
against the resulting objectives.  A float64 tape differentiates the
losses with respect to the logits; training tapes nothing, and replays
the loss's and the MLP's backward on plain arrays, bit for bit.  See the
README for the file formats and the CLI.
"""

from .datasets import Dataset, make_blobs, read_dataset, write_dataset
from .distill import (
    LossReport,
    combine,
    cross_entropy,
    distill_loss,
    gradient_check_suite,
    kd_loss,
    kl_divergence,
    multi_temp_kld,
    multi_temp_prediction,
    norm_soften,
    normkd_loss,
    soften,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FileFormatError,
    NormKDError,
    NumericError,
)
from .experiment import (
    ExperimentConfig,
    analyze,
    load_experiment_config,
    run_experiment,
    run_teacher_training,
    write_analysis,
)
from .logitcache import read_logit_cache, write_logit_cache
from .logitstats import (
    Fixed,
    LogitCache,
    LogitSummary,
    MaxVal,
    MultiSet,
    NormStd,
    Range,
    TemperatureRule,
    parse_rule,
    rule_label,
    sample_std,
    summarize,
    temperature_for,
)
from .numcore import Tape, Tensor, grad_check
from .trainer import (
    EpochRecord,
    MlpSpec,
    TrainConfig,
    cache_teacher_logits,
    evaluate,
    init_mlp,
    train,
)

__version__ = "0.1.0"
