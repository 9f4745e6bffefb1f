"""``repro.training`` — supervised training loop and batched evaluation."""

from .evaluate import (evaluate_accuracy, evaluate_loss,
                       evaluate_topk_accuracy, predict_labels, predict_logits,
                       predict_probs)
from .loop import FitResult, fit

__all__ = [
    "fit", "FitResult",
    "predict_logits", "predict_probs", "predict_labels",
    "evaluate_accuracy", "evaluate_topk_accuracy", "evaluate_loss",
]
