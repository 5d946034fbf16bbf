"""losscast: configuration-aware pretraining-loss prediction and hyperparameter selection."""

from .errors import (
    LosscastError,
    SchemaError,
    FormatError,
    SplitError,
    FitError,
    ScopeError,
    TrainingError,
    SweepError,
)
from .schema import (
    SCHEMA_VERSION,
    FieldSpec,
    FeatureVector,
    RunConfig,
    Schema,
    canonicalize,
    decanonicalize,
)
from .ingest import (
    DatasetSplits,
    ParseResult,
    RunRecord,
    config_from_obj,
    config_to_obj,
    filter_runs,
    group_key,
    parse_runs,
    record_from_obj,
    record_to_obj,
    smooth_curve,
    split_dataset,
    write_split_manifest,
)
from .lawfit import (
    ChinchillaFit,
    ChinchillaPredictor,
    PowerLawFit,
    Scope,
    fit_baselines,
    fit_chinchilla,
    fit_power_law,
    predict_chinchilla,
    residual_target,
    save_fits,
    select_best_per_group,
)
from .regressor import (
    Arch,
    StagePlan,
    TrainPlan,
    TrainReport,
    TrainedPredictor,
    train,
)
from .gbt import (
    BoostedForest,
    GBTParams,
    GBTPredictor,
    fit_gbt,
)
from .select import (
    Recommendation,
    SweepGrid,
    SweepResult,
    recommend,
    refine_optimum,
    sweep,
)
from .metrics import (
    ContourGrid,
    Metrics,
    compute_metrics,
    evaluate_split,
    export_contour_data,
    spearman_rho,
)
from .synth import (
    OracleParams,
    OraclePredictor,
    SynthDesign,
    generate_synthetic_runs,
    oracle_curve,
    oracle_loss,
    write_synthetic_dataset,
)

__version__ = "0.1.0"
