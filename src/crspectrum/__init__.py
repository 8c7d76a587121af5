"""Seed-reproducible cognitive-radio spectrum decision simulator.

Components: licensed-channel ON/OFF traffic traces, single-channel
occupancy predictors (ELM, BP, HMM), cooperative fusion of noisy local
predictions, access-experience channel recommendation, and learning
agents (tabular Q, empirical MDP) for slotted opportunistic access.
"""

from .channel import (
    ChannelParams,
    generate_multi,
    generate_trace,
    links,
    place_users,
)
from .config import (
    SCENARIOS,
    ConfigError,
    SimConfig,
    default_config,
    validate_config,
)
from .decision import (
    DecisionQTable,
    MdpModel,
    arbitrate,
    new_decision_table,
    q_update,
    random_access,
    reward,
    select_action,
    value_iteration,
)
from .fusion import (
    decode_state,
    encode_state,
    greedy_actions,
    m_out_of_n,
    noisy_local_predictions,
    soft_fuse,
    train_fusion,
)
from .harness import (
    RunSummary,
    emit_outputs,
    run_scenario,
    summary_to_csv,
    summary_to_json,
)
from .predictors import (
    BpModel,
    ElmModel,
    HmmModel,
    TrainingSet,
    bp_gradients,
    bp_loss,
    bp_predict_many,
    bp_train,
    elm_predict,
    elm_predict_many,
    elm_train,
    eval_prediction,
    hmm_fit,
    hmm_predict,
    make_training_set,
    threshold,
    transition_error_fraction,
)
from .recommender import (
    ScoreMatrix,
    default_threshold,
    final_score,
    final_score_located,
    recommend,
    score_access,
)
from .seeding import derive_seed, make_rng
from .svg import line_chart

__all__ = [
    "BpModel",
    "ChannelParams",
    "ConfigError",
    "DecisionQTable",
    "ElmModel",
    "HmmModel",
    "MdpModel",
    "RunSummary",
    "SCENARIOS",
    "ScoreMatrix",
    "SimConfig",
    "TrainingSet",
    "arbitrate",
    "bp_gradients",
    "bp_loss",
    "bp_predict_many",
    "bp_train",
    "decode_state",
    "default_config",
    "default_threshold",
    "derive_seed",
    "elm_predict",
    "elm_predict_many",
    "elm_train",
    "emit_outputs",
    "encode_state",
    "eval_prediction",
    "final_score",
    "final_score_located",
    "generate_multi",
    "generate_trace",
    "greedy_actions",
    "hmm_fit",
    "hmm_predict",
    "line_chart",
    "links",
    "m_out_of_n",
    "make_rng",
    "make_training_set",
    "new_decision_table",
    "noisy_local_predictions",
    "place_users",
    "q_update",
    "random_access",
    "recommend",
    "reward",
    "run_scenario",
    "score_access",
    "select_action",
    "soft_fuse",
    "summary_to_csv",
    "summary_to_json",
    "threshold",
    "train_fusion",
    "transition_error_fraction",
    "validate_config",
    "value_iteration",
]
