"""A compile holds one tape at a time.

Both float compilers trace the module, build the program, check it
against one eager step and replay it once.  The trace tape is dropped
once the program is built, the eager reference keeps only the arrays it
is compared on, and the program's arena is allocated by that first
replay, so a compile's traced peak is about one eager step's at the
same rows.  The figures below are ``tracemalloc`` bytes on a width-8
resnet at 64 rows.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Tensor, set_default_dtype
from repro.nn import functional as F
from repro.nn.graph import CompiledForward, _Program, compile_forward
from repro.nn.optim import SGD
from repro.nn.train_graph import CompiledTrainStep, compile_train_step

MiB = 1 << 20
ROWS = 64


def _setup(train: bool):
    set_default_dtype("float32")
    model = build_model("resnet", num_classes=10, width=8, seed=3)
    if not train:
        model.eval()
    rng = np.random.default_rng(5)
    x = rng.random((ROWS, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=ROWS)
    return model, x, y


def _loss(logits, y):
    return F.cross_entropy(logits, y)


def _eager(model, x, y, train: bool) -> None:
    """One eager step: a train-mode loss backward, or an eval forward
    and its input gradient."""
    if train:
        _loss(model(Tensor(x)), y).backward()
    else:
        xt = Tensor(x, requires_grad=True)
        out = model(xt)
        out.backward(np.ones_like(out.data))
    model.zero_grad()


def _compile(model, x, y, train: bool):
    if train:
        return compile_train_step(model, _loss, x, y,
                                  SGD(model.parameters(), lr=0.0))
    return compile_forward(model, x)


def _traced_peak(fn) -> int:
    """Bytes ``fn`` raised tracemalloc's peak above what was live
    before it; whatever ``fn`` returns is kept until after the read."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    kept = fn()
    peak = tracemalloc.get_traced_memory()[1] - base
    del kept
    return peak


@pytest.fixture
def traced():
    """tracemalloc on, and the cycle collector off: what a compile frees,
    it must free by reference count, the moment it lets go."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("train", [True, False], ids=["train", "forward"])
def test_compile_peaks_at_about_one_eager_step(traced, train):
    model, x, y = _setup(train)
    _eager(model, x, y, train)          # warm the kernels' one-off state
    eager = _traced_peak(lambda: _eager(model, x, y, train))
    compiled = _traced_peak(lambda: _compile(model, x, y, train))
    assert compiled <= 1.1 * eager, (compiled / MiB, eager / MiB)


@pytest.mark.parametrize("train", [True, False], ids=["train", "forward"])
def test_validation_starts_with_trace_freed_and_replays_with_reference_freed(
        traced, train, monkeypatch):
    model, x, y = _setup(train)
    live = {}
    cls = CompiledTrainStep if train else CompiledForward

    def at(name, fn):
        def wrapped(*a, **kw):
            live.setdefault(name, tracemalloc.get_traced_memory()[0] - base)
            return fn(*a, **kw)
        return wrapped

    monkeypatch.setattr(cls, "_validate", at("validate", cls._validate))
    monkeypatch.setattr(_Program, "_forward",
                        at("replay", _Program._forward))
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    _compile(model, x, y, train)
    # only the program's bookkeeping and the compared copies may be live:
    # a trace tape still held at validation would add ~60 MiB, and the
    # reference tape plus an arena already allocated ~110 MiB at replay
    assert live["validate"] < 1 * MiB, live["validate"] / MiB
    assert live["replay"] < 2 * MiB, live["replay"] / MiB


@pytest.mark.parametrize("train", [True, False], ids=["train", "forward"])
def test_unvalidated_program_allocates_at_first_replay(train, monkeypatch):
    model, x, y = _setup(train)
    ref = _compile(model, x, y, train)
    cls = CompiledTrainStep if train else CompiledForward
    monkeypatch.setattr(cls, "_validate", lambda *args: None)
    prog = _compile(model, x, y, train)
    assert prog.alloc_rows == 0
    assert prog.arena_bytes() == (0, 0)
    assert prog.fill_bytes() == 0
    if train:
        prog.step(x, y)
    else:
        prog.replay(x)
    assert prog.alloc_rows == ref.alloc_rows == ROWS
    assert prog.arena_bytes() == ref.arena_bytes()
    assert prog.arena_bytes()[0] > 0
    assert prog.fill_bytes() == ref.fill_bytes() > 0
