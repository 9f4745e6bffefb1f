"""Post-training quantization (PTQ): calibrate, no finetuning.

PTQ is the cheaper alternative to QAT — instrument, run calibration data
through the observers, freeze.  The paper's main pipeline is QAT, but PTQ
is included because production edge fleets mix both, and DIVA applies to
either (the divergence mechanism is identical).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.module import Module
from .qat import QATModel, calibrate, prepare_qat


def post_training_quantize(model: Module, calib_inputs: np.ndarray,
                           weight_bits: int = 8, act_bits: int = 8,
                           batch_size: int = 64,
                           per_channel: bool = True,
                           freeze: bool = True) -> QATModel:
    """Quantize ``model`` using only a calibration set.

    Returns a :class:`QATModel` whose grids are frozen — functionally the
    deployed int8 artifact, still differentiable through the STE.
    """
    q = prepare_qat(model, weight_bits=weight_bits, act_bits=act_bits,
                    per_channel=per_channel)
    calibrate(q, calib_inputs, batch_size=batch_size)
    if freeze:
        q.freeze()
    return q
