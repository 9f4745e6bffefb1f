"""``repro.data`` — datasets and attack-set selection.

Synthetic substitutes for the paper's ImageNet / MNIST / PubFig (the
scale rationale is in the :mod:`repro.experiments.config` docstring) plus
batching, transforms and the §5.1 validation protocol.
"""

from .datasets import ArrayDataset, iterate_batches, stratified_sample
from .synth_digits import generate_synth_digits, render_digit
from .synth_faces import SynthFacesConfig, generate_synth_faces, render_face
from .synth_imagenet import (SynthImageNetConfig, generate_synth_imagenet,
                             standard_splits)
from .transforms import (additive_noise, augment_batch, channel_stats,
                         denormalize, normalize, random_horizontal_flip,
                         random_shift)
from .validation import correctly_classified_mask, select_attack_set

__all__ = [
    "ArrayDataset", "iterate_batches", "stratified_sample",
    "SynthImageNetConfig", "generate_synth_imagenet", "standard_splits",
    "generate_synth_digits", "render_digit",
    "SynthFacesConfig", "generate_synth_faces", "render_face",
    "normalize", "denormalize", "channel_stats", "random_horizontal_flip",
    "random_shift", "additive_noise", "augment_batch",
    "correctly_classified_mask", "select_attack_set",
]
