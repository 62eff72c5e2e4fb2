"""Sequential feature explanations for density-based anomaly detection.

Fit an ensemble Gaussian mixture detector, rank outliers, explain each one
as an ordered list of features, and measure how quickly those orderings let
a simulated analyst confirm the anomaly.
"""

from .analyst import (
    AnalystModel,
    ThresholdDistribution,
    certainty_curve,
    expected_mfp,
)
from .dataset import (
    BenchmarkSpec,
    Dataset,
    MotherSet,
    load_csv,
    load_mother_csv,
    sample_benchmark_split,
    save_csv,
)
from .density import (
    EgmmConfig,
    EgmmModel,
    GmmModel,
    egmm_fit,
    egmm_log_marginal,
    fit_gmm,
    load_egmm,
    rank_points,
    save_egmm,
)
from .errors import SfexplainError
from .evaluate import (
    DetectorMode,
    EvalConfig,
    EvaluationReport,
    explain_opt_oracle,
    run_evaluation,
    select_evaluation_anomalies,
)
from .explain import (
    DensityOracle,
    Method,
    Sfe,
    explain_ind_do,
    explain_ind_marg,
    explain_random,
    explain_seq_do,
    explain_seq_marg,
)
from .forest import BaggedForest, ForestConfig, SingleClassTrainingData

__version__ = "0.1.0"
