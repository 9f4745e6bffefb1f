"""``repro.models`` — the architectures evaluated in the paper, scaled to
this reproduction's CPU substrate (the scale substitutions are listed in
the :mod:`repro.experiments.config` docstring)."""

from .densenet import DenseBlock, DenseLayer, DenseNet, Transition
from .lenet import LeNet
from .mobilenet import DepthwiseSeparable, MobileNet
from .registry import available_models, build_model, register_model
from .resnet import BasicBlock, ResNet
from .vggface import VGGFaceNet

__all__ = [
    "ResNet", "BasicBlock",
    "MobileNet", "DepthwiseSeparable",
    "DenseNet", "DenseBlock", "DenseLayer", "Transition",
    "LeNet", "VGGFaceNet",
    "build_model", "register_model", "available_models",
]
