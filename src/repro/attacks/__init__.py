"""``repro.attacks`` — DIVA and the baseline attack family.

Whitebox DIVA (§4.2), targeted DIVA (§6), surrogate pipelines for the
semi-blackbox (§4.3) and blackbox (§4.4) threat models, plus baselines:
FGSM, R+FGSM, PGD, Momentum PGD, CW-Linf.
"""

from .base import (Attack, AttackTrace, DEFAULT_ALPHA, DEFAULT_EPS,
                   DEFAULT_STEPS, input_gradient,
                   linf_distance, project_linf, softmax_np, softmax_vjp)
from .cw import CWLinf, cw_margin_loss
from .engine import (PairedExecutor, generate_grid, run_scheduled,
                     run_scheduled_steps)
from .diva import DIVA, TargetedDIVA, diva_loss
from .fgsm import fgsm, r_fgsm
from .nes import NESDiva
from .pgd import MomentumPGD, PGD
from .surrogate import (SurrogateBundle, blackbox_diva,
                        build_surrogate_original, semi_blackbox_diva)

__all__ = [
    "Attack", "AttackTrace", "project_linf", "linf_distance", "input_gradient",
    "softmax_np", "softmax_vjp",
    "DEFAULT_EPS", "DEFAULT_ALPHA", "DEFAULT_STEPS",
    "fgsm", "r_fgsm", "PGD", "MomentumPGD", "CWLinf", "cw_margin_loss",
    "DIVA", "TargetedDIVA", "diva_loss", "NESDiva",
    "PairedExecutor", "generate_grid", "run_scheduled", "run_scheduled_steps",
    "SurrogateBundle", "build_surrogate_original", "semi_blackbox_diva",
    "blackbox_diva",
]
