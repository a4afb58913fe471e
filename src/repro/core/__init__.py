"""``repro.core`` — the paper's contribution: the MTMLF-QO model.

Featurization (F), per-table encoders Enc_i, tree serialization with
decoding embeddings (Figures 3-4), the shared representation Trans_Share
(S), task heads and the Trans_JO join-order decoder (T), legality-aware
beam search, JOEU, the Equation 1/3 loss criteria, the joint trainer and
the MLA cross-DB meta-learner (Algorithm 1).
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from .beam import (
    BeamCandidate,
    BeamSearchState,
    beam_search_join_order,
    drive_beam_states,
    is_legal_order,
    require_connected,
)
from .config import ModelConfig
from .encoders import DatabaseFeaturizer, EncoderBudget, FeatureCache, TableEncoder
from .featurize import PredicateFeaturizer
from .heads import EstimationHead
from .joeu import joeu, shared_prefix_length
from .losses import (
    joint_loss,
    node_qerror_loss,
    sequence_level_loss,
    sequence_log_probs,
)
from .federated import (
    AggregationError,
    SHARED_MODULE_PREFIXES,
    aggregate_shared_states,
    shared_state_dict,
)
from .meta import MetaLearner, MLAConfig, transfer
from .model import EncodedQuery, InferenceSession, MTMLFQO
from .serializer import (
    JoinTree,
    decoding_embeddings,
    join_tree_from_order,
    join_tree_from_plan,
    plan_signature,
    query_signature,
    serialize_plan,
    tree_from_embeddings,
)
from .shared import SharedRepresentation
from .trainer import JointTrainer, TrainingExample, TrainResult, order_positions
from .trans_jo import TransJO

__all__ = [
    "ModelConfig",
    "CheckpointError",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "PredicateFeaturizer",
    "TableEncoder",
    "DatabaseFeaturizer",
    "EncoderBudget",
    "SharedRepresentation",
    "EstimationHead",
    "TransJO",
    "MTMLFQO",
    "EncodedQuery",
    "FeatureCache",
    "InferenceSession",
    "BeamCandidate",
    "BeamSearchState",
    "beam_search_join_order",
    "require_connected",
    "drive_beam_states",
    "is_legal_order",
    "joeu",
    "shared_prefix_length",
    "node_qerror_loss",
    "joint_loss",
    "sequence_level_loss",
    "sequence_log_probs",
    "JointTrainer",
    "TrainResult",
    "TrainingExample",
    "order_positions",
    "MetaLearner",
    "MLAConfig",
    "transfer",
    "AggregationError",
    "SHARED_MODULE_PREFIXES",
    "aggregate_shared_states",
    "shared_state_dict",
    "JoinTree",
    "join_tree_from_order",
    "join_tree_from_plan",
    "serialize_plan",
    "plan_signature",
    "query_signature",
    "decoding_embeddings",
    "tree_from_embeddings",
]
