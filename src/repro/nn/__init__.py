"""``repro.nn`` — a compact reverse-mode autodiff deep-learning framework.

Built from scratch on vectorized numpy because the evaluation environment
ships no deep-learning framework; every other subsystem (models, QAT,
pruning, the attack family) composes these primitives.
"""

from . import functional
from .activations import (ELU, GELU, HardSwish, LeakyReLU, Swish, elu, gelu,
                          hard_sigmoid, hard_swish, leaky_relu, softplus,
                          swish)
from .graph import (CompiledForward, GraphUnsupported, compile_forward,
                    compile_forward_or_none)
from .train_graph import (CompiledTrainStep, compile_train_step,
                          compile_train_step_or_none)
from .init import kaiming_normal, kaiming_uniform, xavier_uniform
from .layers import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Dropout,
                     Flatten, GlobalAvgPool2d, Identity, Linear, MaxPool2d,
                     ReLU)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam, CosineLR, LRScheduler, SGD, StepLR
from .serialization import load_state, save_state
from .tensor import (Tensor, concat, enable_grad, get_default_dtype,
                     is_grad_enabled, no_grad, set_default_dtype, stack, where)

__all__ = [
    "Tensor", "concat", "stack", "where",
    "no_grad", "enable_grad", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype",
    "CompiledForward", "GraphUnsupported", "compile_forward",
    "compile_forward_or_none",
    "CompiledTrainStep", "compile_train_step", "compile_train_step_or_none",
    "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "Conv2d", "BatchNorm1d", "BatchNorm2d", "ReLU", "Flatten",
    "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Dropout", "Identity",
    "LeakyReLU", "ELU", "GELU", "Swish", "HardSwish",
    "leaky_relu", "elu", "gelu", "swish", "softplus", "hard_sigmoid",
    "hard_swish",
    "SGD", "Adam", "LRScheduler", "StepLR", "CosineLR",
    "save_state", "load_state",
    "kaiming_normal", "kaiming_uniform", "xavier_uniform",
    "functional",
]
