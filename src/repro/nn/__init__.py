"""``repro.nn`` — a small numpy autograd + neural network framework.

Substitutes for PyTorch in this reproduction (no deep-learning framework
is available offline).  Provides reverse-mode autodiff tensors, standard
layers, multi-head attention, transformer encoder/decoder stacks, the
child-sum Tree-LSTM, the one-vector parameter packing, the Adam
optimizer and the q-error metric.
"""

from . import functional, kernels
from .attention import MultiHeadAttention, causal_mask
from .kernels import ScratchArena
from .layers import MLP, Embedding, LayerNorm, Linear, Module, ModuleList, Parameter, parameter_vector
from .losses import cross_entropy, q_error
from .lstm import ChildSumTreeLSTM
from .optim import Adam, clip_grad_norm
from .positional import TreePosition, tree_layout_encoding, tree_path_encoding
from .spec import shape_spec
from .tensor import Tensor, is_grad_enabled, no_grad, no_tape_active
from .transformer import TransformerDecoder, TransformerDecoderLayer, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "no_tape_active",
    "functional",
    "kernels",
    "ScratchArena",
    "Module",
    "ModuleList",
    "Parameter",
    "parameter_vector",
    "Linear",
    "LayerNorm",
    "Embedding",
    "MLP",
    "MultiHeadAttention",
    "causal_mask",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "TransformerDecoder",
    "TransformerDecoderLayer",
    "ChildSumTreeLSTM",
    "Adam",
    "clip_grad_norm",
    "q_error",
    "cross_entropy",
    "tree_layout_encoding",
    "tree_path_encoding",
    "TreePosition",
    "shape_spec",
]
