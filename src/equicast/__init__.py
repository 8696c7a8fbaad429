"""Decision-aware training of a shared forecaster across heterogeneous agents.

The package trains one "public" forecasting model whose outputs feed many
downstream decision makers, minimizing a q-parameterized aggregate of their
decision regrets instead of (or blended with) plain prediction error.
"""

from .agents import (
    AgentSpec,
    ChargingContext,
    DataCenterContext,
    dc_act,
    dc_cost,
    dc_optimal,
    ev_act,
    ev_cost,
    ev_optimal,
    regret,
)
from .metrics import mse, norm_entropy, percentile_gap, variance
from .objective import chain_grad, equitable_loss, holder_max_value
from .predictor import ParamVector, init_params
from .training import RunSummary, TrainConfig, TrainResult, evaluate, train
from .verify import QuadraticToy

__version__ = "0.1.0"
