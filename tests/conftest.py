"""Shared fixtures: dtype isolation, tiny datasets, tiny trained models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import get_default_dtype, set_default_dtype
from repro.nn.tensor import Tensor


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    """Keep the global dtype policy from leaking between tests."""
    before = get_default_dtype()
    yield
    set_default_dtype(before)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x (mutated
    in place around each probe)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        x[i] += eps
        fp = f()
        x[i] -= 2 * eps
        fm = f()
        x[i] += eps
        g[i] = (fp - fm) / (2 * eps)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small synthetic image dataset shared across tests (6 classes)."""
    from repro.data import SynthImageNetConfig, generate_synth_imagenet
    cfg = SynthImageNetConfig(num_classes=6, image_size=12, noise=0.25,
                              jitter=0.15, seed=3)
    train = generate_synth_imagenet(40, cfg, split_seed=1)
    val = generate_synth_imagenet(15, cfg, split_seed=2)
    return train, val


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset):
    """A small trained ResNet used by attack/quantization tests."""
    from repro.models import build_model
    from repro.training import fit
    train, val = tiny_dataset
    model = build_model("resnet", num_classes=6, width=4, seed=0)
    fit(model, train.x, train.y, epochs=5, batch_size=32, lr=0.03, seed=1)
    model.eval()
    return model


@pytest.fixture(scope="session")
def tiny_quantized(tiny_model, tiny_dataset):
    """4-bit adapted version of tiny_model (frozen)."""
    from repro.quantization import prepare_qat, qat_finetune
    train, _ = tiny_dataset
    q = prepare_qat(tiny_model, weight_bits=4, act_bits=8, per_channel=False)
    qat_finetune(q, train.x, train.y, epochs=1, batch_size=32, lr=0.002)
    q.freeze()
    return q


# -- mixed job-set generator (dispatch property tests) ---------------- #
#
# A job "menu" is a list of (kind, rows) tuples — the minimal shape the
# serving layer's grouping decision can see.  ``submit_job_menu`` turns a
# menu into real submissions against a shared (orig, quant, edge) model
# triple, so a property test can serve any menu through one session and
# check how the scheduler partitions it and what each job returns.

def mixed_job_menus(max_jobs: int = 6, max_rows: int = 3):
    """Hypothesis strategy: small mixed attack/predict/predict_float
    job sets (imported lazily so non-property runs never need
    hypothesis)."""
    from hypothesis import strategies as st
    job = st.tuples(st.sampled_from(("attack", "predict", "predict_float")),
                    st.integers(1, max_rows))
    return st.lists(job, min_size=1, max_size=max_jobs)


def submit_job_menu(session, menu, pair, edge, x_edge, steps: int = 2):
    """Submit one (kind, rows) menu; returns the futures in menu order.

    Attack jobs get a fresh PGD per submission (distinct requests,
    shared victim models — the coalescible case); predict jobs run the
    compiled edge model; predict_float jobs the float original.
    """
    from repro.attacks import PGD
    orig, quant, x, y = pair
    futs = []
    for kind, rows in menu:
        if kind == "attack":
            futs.append(session.submit_attack(
                PGD(quant, steps=steps), x[:rows], y[:rows]))
        elif kind == "predict":
            futs.append(session.submit_predict(edge, x_edge[:rows]))
        else:
            futs.append(session.submit_predict(orig, x[:rows]))
    return futs


class FixedLogitModel:
    """Test double: a 'model' that returns preset logits row-by-row."""

    def __init__(self, logits: np.ndarray):
        self.logits = np.asarray(logits, dtype=np.float64)
        self._cursor = 0
        self.training = False

    def eval(self):
        self._cursor = 0
        return self

    def __call__(self, x):
        data = x.data if hasattr(x, "data") else np.asarray(x)
        n = len(data)
        out = self.logits[self._cursor:self._cursor + n]
        self._cursor += n
        if self._cursor >= len(self.logits):
            self._cursor = 0
        return Tensor(out)


@pytest.fixture
def fixed_logit_model():
    return FixedLogitModel
