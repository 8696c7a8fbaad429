"""Decision-aware training of a shared forecaster across heterogeneous agents.

The package trains one "public" forecasting model whose outputs feed many
downstream decision makers, minimizing a q-parameterized aggregate of their
decision regrets instead of (or blended with) plain prediction error.
"""

from .agents import (
    AgentSpec,
    ChargingContext,
    DataCenterContext,
    RegretRecord,
    dc_act,
    dc_cost,
    dc_optimal,
    ev_act,
    ev_cost,
    ev_optimal,
    regret,
)
from .metrics import MetricReport, mse, norm_entropy, percentile_gap, variance
from .objective import (
    BatchLoss,
    chain_grad,
    combined_loss,
    dual_norm_value,
    equitable_loss,
    holder_max_value,
    pg_batch_grad,
)
from .predictor import (
    FeatureWindow,
    ParamVector,
    PolicySample,
    forward,
    init_params,
    sample_prediction,
    score_grad,
    vjp,
)
from .training import (
    QuadraticToy,
    RunSummary,
    TrainConfig,
    TrainResult,
    evaluate,
    theorem_check_entropy,
    theorem_check_variance,
    train,
)

__version__ = "0.1.0"
