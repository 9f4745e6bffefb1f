"""Substrate micro-benchmarks (not a paper table; engineering numbers).

Times the hot kernels everything else is built on — conv forward/backward,
fake-quant, compiled replay vs. the eager tape, the integer edge engine
vs float inference, and end-to-end attack stepping.  The paper's §5.2
'Attack speed' reports PGD and DIVA running at the same per-step speed
because their GPUs batch both models together; this reproduction gets
its per-step parity budget from the compiled executor
(:mod:`repro.nn.graph`) plus shared-forward success checks in
``Attack.generate`` — one fused pass per model per step, so DIVA costs
two model passes per step (down from four in the naive loop) and PGD
costs one.  ``repro.benchrunner`` (``make bench``) runs this suite and
records a ``BENCH_<sha>.json`` perf trajectory; attack workloads are
benchmarked in float32, the deployment dtype.

The attack-step and replay benches build registry models directly
(speed does not depend on trained weights), so they run without the
session ``pipeline`` fixture's training cost.
"""

import time

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


@pytest.fixture(scope="module")
def conv_inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 8, 16, 16)).astype(np.float32)
    w = rng.normal(size=(16, 8, 3, 3)).astype(np.float32)
    return x, w


@pytest.fixture(scope="module")
def attack_models():
    """Untrained resnet + its frozen 8-bit adaptation, bench-sized.

    Labels are the original model's own predictions: every sample starts
    un-succeeded (the original is "correct" by construction and the 8-bit
    twin mostly agrees), so the keep-best loop's early-success dropout
    reflects genuine attack progress instead of random-label degeneracy
    inflating steps/sec.
    """
    from repro.models import build_model
    from repro.quantization import calibrate, prepare_qat
    from repro.training import predict_labels
    rng = np.random.default_rng(0)
    x = rng.random((16, 3, 16, 16)).astype(np.float32)
    orig = build_model("resnet", num_classes=10, width=8, seed=0)
    orig.eval()
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    y = predict_labels(orig, x)
    return orig, quant, x, y


def test_conv2d_forward(benchmark, conv_inputs):
    x, w = conv_inputs
    xt, wt = Tensor(x), Tensor(w)
    benchmark(lambda: F.conv2d(xt, wt, None, padding=1))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_depthwise_backward(benchmark, stride):
    """MobileNet's hot kernel: depthwise conv forward+backward on the
    tap-major X-padded flat-col2im path, with the legacy strided-col2im
    formulation timed inline for the trajectory (``legacy_ns``)."""
    from repro.nn.functional import _col2im
    rng = np.random.default_rng(0)
    C, H = 16, 16
    x = rng.normal(size=(64, C, H, H)).astype(np.float32)
    w = rng.normal(size=(C, 1, 3, 3)).astype(np.float32)

    def step():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        F.conv2d(xt, wt, None, stride=stride, padding=1,
                 groups=C).sum().backward()
        return xt.grad

    def legacy_dx():
        # the pre-rewrite input-gradient path: einsum to window-major,
        # transpose-materialize, per-tap strided col2im scatter
        kh = kw = 3
        oh = ow = (H + 2 - kh) // stride + 1
        g = np.ones((64, C, oh, ow), dtype=np.float32)
        gg = g.reshape(64, C, 1, oh, ow)
        wmat = w.reshape(C, 1, kh * kw)
        dcols2 = np.einsum("ngfxy,gfk->ngxyk", gg, wmat, optimize=True)
        dcols = dcols2.reshape(64, C, oh, ow, 1, kh, kw)
        dcols = dcols.transpose(0, 1, 4, 5, 6, 2, 3).reshape(
            64, C, kh, kw, oh, ow)
        return _col2im(dcols, x.shape, kh, kw, stride, stride, 1, 1)

    step()
    reps = 5
    t0 = time.perf_counter()
    for _ in range(reps):
        legacy_dx()
    legacy_s = (time.perf_counter() - t0) / reps

    benchmark(step)
    benchmark.extra_info["legacy_col2im_dx_ns"] = legacy_s * 1e9
    benchmark.extra_info["stride"] = stride


@pytest.fixture(scope="module")
def train_batch():
    rng = np.random.default_rng(0)
    x = rng.random((64, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=64)
    return x, y


_TRAIN_ARM = """
import sys, time, statistics
import numpy as np
from repro.nn import set_default_dtype
set_default_dtype(np.float32)
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.nn.train_graph import compile_train_step
mode, name = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(0)
x = rng.random((64, 3, 16, 16)).astype(np.float32)
y = rng.integers(0, 10, size=64)
model = build_model(name, num_classes=10, width=8, seed=0)
model.train()
opt = SGD(model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-4)
if mode == "compiled":
    prog = compile_train_step(model, F.cross_entropy, x, y, opt)
    step = lambda: prog.step(x, y)
else:
    def step():
        loss = F.cross_entropy(model(Tensor(x)), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
for _ in range(10):
    step()
chunks = []
for _ in range(8):
    t0 = time.perf_counter()
    for _ in range(5):
        step()
    chunks.append((time.perf_counter() - t0) / 5)
print(statistics.median(chunks))
"""


def _train_arm_seconds(mode, name):
    """Warm per-step seconds for one training arm, measured in its own
    process: a training job owns its process in practice, and in-process
    A/B timing lets the two arms share allocator state (the arm that
    runs second inherits the other's warm heap, skewing the ratio either
    way)."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", _TRAIN_ARM, mode, name],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _bench_train_step(benchmark, name, x, y):
    """Compiled-vs-eager training step (float32, batch 64); both arms
    run process-isolated, and the compiled step additionally runs under
    pytest-benchmark in this process for the kernel table."""
    from repro.models import build_model
    from repro.nn.optim import SGD
    from repro.nn.train_graph import compile_train_step

    eager_s = _train_arm_seconds("eager", name)
    compiled_s = _train_arm_seconds("compiled", name)

    model = build_model(name, num_classes=10, width=8, seed=0)
    model.train()
    opt = SGD(model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-4)
    prog = compile_train_step(model, F.cross_entropy, x, y, opt)
    for _ in range(3):
        prog.step(x, y)
    benchmark(lambda: prog.step(x, y))
    benchmark.extra_info["model"] = name
    benchmark.extra_info["eager_step_ms"] = eager_s * 1e3
    benchmark.extra_info["compiled_step_ms"] = compiled_s * 1e3
    benchmark.extra_info["train_step_speedup"] = eager_s / compiled_s
    benchmark.extra_info["batch"] = len(x)


def test_train_step_resnet(benchmark, train_batch):
    x, y = train_batch
    _bench_train_step(benchmark, "resnet", x, y)


def test_train_step_mobilenet(benchmark, train_batch):
    x, y = train_batch
    _bench_train_step(benchmark, "mobilenet", x, y)


def test_distill_epoch(benchmark, train_batch):
    """One *marginal* distillation inner epoch (the §4.3 surrogate loop)
    through the compiled train step, against the same epoch on the eager
    tape.  The one-off compile + parity validation (~3 batch passes) is
    excluded — it amortizes over a real 8-epoch ``distill`` run — so this
    measures the steady-state inner-loop cost the surrogate pipelines
    actually pay."""
    from repro.distillation.losses import distillation_loss
    from repro.models import build_model
    from repro.nn.optim import Adam
    from repro.nn.train_graph import compile_train_step
    from repro.training import predict_logits

    rng = np.random.default_rng(1)
    images = rng.random((512, 3, 16, 16)).astype(np.float32)
    teacher = build_model("resnet", num_classes=10, width=8, seed=0)
    teacher.eval()
    teacher_logits = predict_logits(teacher, images)
    order = np.random.default_rng(2).permutation(len(images))

    def kd_loss(logits, t_logits):
        return distillation_loss(logits, t_logits, temperature=4.0,
                                 alpha=0.7)

    student_e = build_model("mobilenet", num_classes=10, width=8, seed=1)
    student_e.train()
    opt_e = Adam(student_e.parameters(), lr=1e-3)

    def eager_epoch():
        for start in range(0, len(images), 64):
            idx = order[start:start + 64]
            logits = student_e(Tensor(images[idx]))
            loss = kd_loss(logits, teacher_logits[idx])
            opt_e.zero_grad()
            loss.backward()
            opt_e.step()

    eager_epoch()
    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        eager_epoch()
    eager_s = (time.perf_counter() - t0) / reps

    student_c = build_model("mobilenet", num_classes=10, width=8, seed=1)
    student_c.train()
    opt_c = Adam(student_c.parameters(), lr=1e-3)
    prog = compile_train_step(student_c, kd_loss, images[:64],
                              teacher_logits[:64], opt_c)

    def compiled_epoch():
        for start in range(0, len(images), 64):
            idx = order[start:start + 64]
            prog.step(images[idx], teacher_logits[idx])

    compiled_epoch()
    benchmark(compiled_epoch)
    compiled_s = benchmark.stats.stats.median
    benchmark.extra_info["eager_epoch_ms"] = eager_s * 1e3
    benchmark.extra_info["compiled_epoch_ms"] = compiled_s * 1e3
    benchmark.extra_info["distill_epoch_speedup"] = eager_s / compiled_s
    benchmark.extra_info["images"] = len(images)
    # unlike the train_step entries, both arms share this process's
    # heap, so the ratio is conservative (cross-arm allocator warmth
    # favors whichever arm runs second — here, the compiled one is
    # benchmarked after the eager timing, but on buffers it owns anyway)
    benchmark.extra_info["protocol"] = "in-process"


_EDGE_ARM = """
import sys, time, statistics
import numpy as np
from repro.models import build_model
from repro.quantization import prepare_qat, calibrate
from repro.edge import compile_edge
mode = sys.argv[1]
rng = np.random.default_rng(0)
x = rng.random((256, 3, 32, 32)).astype(np.float32)
model = build_model("vggface", num_identities=50, image_size=32, width=8,
                    seed=0)
model.eval()
q = prepare_qat(model, weight_bits=8, act_bits=8, per_channel=True)
calibrate(q, x[:64])
q.freeze()
edge = compile_edge(q, 50)
compiled = mode == "compiled"
edge.predict(x, compiled=compiled)            # warm (and compile) the path
chunks = []
for _ in range(7):
    t0 = time.perf_counter()
    edge.predict(x, compiled=compiled)
    chunks.append(time.perf_counter() - t0)
print(statistics.median(chunks))
"""


def _edge_arm_seconds(mode):
    """Warm int8 predict seconds for one engine arm in its own process
    (same isolation rationale as the train-step arms)."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", _EDGE_ARM, mode],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def test_edge_infer(benchmark):
    """Compiled vs eager integer edge inference (VGGFaceNet int8,
    batch 256, float32 pixels): the §6 deployed-artifact scoring cost
    every face experiment and semi-blackbox query pays.  Both arms run
    process-isolated; the compiled program additionally runs under
    pytest-benchmark in this process for the kernel table."""
    from repro.edge import compile_edge
    from repro.models import build_model
    from repro.quantization import calibrate, prepare_qat

    eager_s = _edge_arm_seconds("eager")
    compiled_s = _edge_arm_seconds("compiled")

    rng = np.random.default_rng(0)
    x = rng.random((256, 3, 32, 32)).astype(np.float32)
    model = build_model("vggface", num_identities=50, image_size=32,
                        width=8, seed=0)
    model.eval()
    q = prepare_qat(model, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(q, x[:64])
    q.freeze()
    edge = compile_edge(q, 50)
    np.testing.assert_array_equal(edge.predict(x),
                                  edge.predict(x, compiled=False))
    benchmark(lambda: edge.predict(x))
    benchmark.extra_info["model"] = "vggface"
    benchmark.extra_info["edge_eager_ms"] = eager_s * 1e3
    benchmark.extra_info["edge_compiled_ms"] = compiled_s * 1e3
    benchmark.extra_info["edge_infer_speedup"] = eager_s / compiled_s
    benchmark.extra_info["batch"] = len(x)


_SERVE_ARM = """
import sys, time, statistics
from repro.serve import (ServeSession, build_workload, mixed_workload_spec,
                         replay_sequential, replay_serve)
mode = sys.argv[1]
w = build_workload(mixed_workload_spec(scale=3))
# Long-lived state is symmetric: the EdgeModel (and its program cache)
# persists across bursts in both arms, and per-request attack instances
# are rebuilt every burst in both arms.  What differs is exactly what
# the layers differ in: the sequential arm's per-request handlers each
# compile privately (the pre-serve reality), while the served arm holds
# ONE session whose shared PlanCache persists across bursts (the
# serving reality).
if mode == "serve":
    session = ServeSession(capacity=64)
    fn = lambda: replay_serve(w, session=session)
else:
    fn = lambda: replay_sequential(w)
fn()    # warm BLAS/page caches
chunks = []
for _ in range(7):
    t0 = time.perf_counter()
    fn()
    chunks.append(time.perf_counter() - t0)
print(statistics.median(chunks))
"""


def _serve_arm_seconds(mode):
    """Median seconds to serve one recorded mixed-workload burst in its
    own process (same isolation rationale as the train-step arms)."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", _SERVE_ARM, mode],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def test_serve_throughput(benchmark):
    """Recorded mixed workload (attack jobs + edge inference, interleaved
    arrival, small per-request batches) served through ``ServeSession``
    vs each job run alone in arrival order — the pre-serve baseline.

    Both arms run process-isolated with symmetric long-lived state
    (models persist, per-request attack instances are rebuilt every
    burst in both).  The regimes differ where the layers differ: the
    sequential arm's per-request handlers compile privately every burst
    (the pre-serve reality), the served arm's one long-lived session
    amortizes its shared ``PlanCache`` across bursts and coalesces
    compatible jobs into shared passes.  Per-job results are
    bit-identical between the arms (asserted in-process below).
    """
    from repro.serve import (build_workload, mixed_workload_spec,
                             replay_serve, verify_parity)

    seq_s = _serve_arm_seconds("sequential")
    serve_s = _serve_arm_seconds("serve")

    w = build_workload(mixed_workload_spec(scale=3))
    parity = verify_parity(w)           # hard bit-parity gate
    benchmark(lambda: replay_serve(w))
    benchmark.extra_info["serve_jobs"] = len(w.jobs)
    benchmark.extra_info["serve_rows"] = w.rows
    benchmark.extra_info["serve_sequential_ms"] = seq_s * 1e3
    benchmark.extra_info["serve_ms"] = serve_s * 1e3
    benchmark.extra_info["serve_throughput_speedup"] = seq_s / serve_s
    benchmark.extra_info["serve_dispatches"] = parity["dispatches"]
    benchmark.extra_info["serve_coalesced"] = parity["coalesced_dispatches"]


def test_conv2d_forward_backward(benchmark, conv_inputs):
    x, w = conv_inputs

    def step():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        F.conv2d(xt, wt, None, padding=1).sum().backward()
    benchmark(step)


def test_fake_quant_overhead(benchmark):
    from repro.quantization import FakeQuantize
    rng = np.random.default_rng(0)
    fq = FakeQuantize.for_activations()
    x = Tensor(rng.normal(size=(64, 8, 16, 16)).astype(np.float32))
    fq.train()
    fq(x)
    fq.freeze()
    benchmark(lambda: fq(x))


def test_eager_forward_reference(benchmark, attack_models):
    """Eager-tape resnet forward on the bench batch — the baseline the
    compiled replay is compared against (ratio computed by
    ``repro.benchrunner`` from the two medians)."""
    orig, _, x, _ = attack_models
    xt = Tensor(x)
    benchmark(lambda: orig(xt))


def test_compiled_replay_vs_eager_forward(benchmark, attack_models):
    """Compiled resnet replay of the same forward."""
    from repro.nn.graph import compile_forward
    orig, _, x, _ = attack_models
    ex = compile_forward(orig, x)
    benchmark(lambda: ex.replay(x, copy=False))


def test_attack_step_cost_pgd_vs_diva(benchmark, attack_models):
    """End-to-end ``generate`` stepping cost.

    One DIVA step is one *fused* forward+input-gradient through two
    models (the §5.2 budget); PGD is the same through one.  The
    benchmark callable runs DIVA; PGD steps/sec is measured inline and
    both are recorded in extra_info for the BENCH trajectory.
    """
    from repro.attacks import DIVA, PGD
    orig, quant, x, y = attack_models
    steps = 10
    diva = DIVA(orig, quant, steps=steps)
    pgd = PGD(quant, steps=steps)
    diva.generate(x[:4], y[:4])     # compile + warm buffers
    pgd.generate(x[:4], y[:4])

    t0 = time.perf_counter()
    reps = 3
    for _ in range(reps):
        pgd.generate(x, y)
    pgd_steps_per_sec = steps * reps / (time.perf_counter() - t0)

    benchmark(lambda: diva.generate(x, y))
    median = benchmark.stats.stats.median
    benchmark.extra_info["diva_steps_per_sec"] = steps / median
    benchmark.extra_info["pgd_steps_per_sec"] = pgd_steps_per_sec
    benchmark.extra_info["diva_step_ns"] = median / steps * 1e9
    benchmark.extra_info["keep_best"] = True
    benchmark.extra_info["batch"] = len(x)
    # steps whose (original, adapted) programs ran on two lanes; 0 means
    # the paired step silently ran on one thread (or fell back to eager)
    pair = diva._paired(x)
    benchmark.extra_info["lane_steps"] = pair.lane_steps
    # the pair's lifetime-planned arenas against the bytes their buffers
    # would take one allocation each; planned >= unplanned means the
    # planner packed nothing
    planned, unplanned = map(sum, zip(*(prog.arena_bytes()
                                        for prog in pair.programs)))
    benchmark.extra_info["planned_mib"] = planned / 2 ** 20
    benchmark.extra_info["unplanned_mib"] = unplanned / 2 ** 20


def test_attack_sweep_vs_sequential(benchmark, attack_models):
    """A 4-point (eps, c) grid: one ``generate_sweep`` against the
    pre-engine per-configuration pattern (a fresh DIVA instance per grid
    point, each compiling and stepping its own programs — the loop that
    exp_fig7 / exp_sec55 / exp_table2 ran before the paired engine).
    Both arms include program compilation, and the sweep's per-variant
    outputs are asserted identical to the sequential ones.
    """
    from repro.attacks import DIVA
    orig, quant, x, y = attack_models
    steps = 10
    grid = [{"c": 0.1}, {"c": 1.0}, {"eps": 16 / 255, "alpha": 2 / 255},
            {"c": 5.0}]

    def sequential():
        outs = []
        for v in grid:
            atk = DIVA(orig, quant, c=v.get("c", 1.0),
                       eps=v.get("eps", 8 / 255),
                       alpha=v.get("alpha", 1 / 255), steps=steps)
            outs.append(atk.generate(x, y))
        return outs

    def sweep():
        return DIVA(orig, quant, c=1.0, eps=8 / 255, alpha=1 / 255,
                    steps=steps).generate_sweep(x, y, grid)

    ref = sequential()          # also warms BLAS/page caches
    got = sweep()
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)

    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        sequential()
    seq_s = (time.perf_counter() - t0) / reps

    benchmark(sweep)
    sweep_s = benchmark.stats.stats.median
    benchmark.extra_info["sweep_ms"] = sweep_s * 1e3
    benchmark.extra_info["sequential_ms"] = seq_s * 1e3
    benchmark.extra_info["sweep_speedup"] = seq_s / sweep_s
    benchmark.extra_info["grid_points"] = len(grid)


def test_edge_engine_inference(benchmark, cfg, pipeline):
    """Integer-path inference cost on the deployed face model."""
    edge = pipeline.face_edge()
    _, val = pipeline.face_datasets()
    x = val.x[:64]
    benchmark(lambda: edge.predict(x))


def test_float_inference_reference(benchmark, cfg, pipeline):
    """Float-path inference on the same face model, for comparison."""
    orig = pipeline.face_original()
    _, val = pipeline.face_datasets()
    x = val.x[:64]
    orig.eval()
    benchmark(lambda: orig(Tensor(x)))


_FLOAT_COALESCE_ARM = """
import sys, time, statistics
import numpy as np
from repro.nn import rowrep, set_default_dtype
set_default_dtype(np.float32)
from repro.models import build_model
from repro.serve import ServeSession
from repro.training import predict_logits
mode = sys.argv[1]
rng = np.random.default_rng(0)
model = build_model("resnet", num_classes=10, width=8, seed=0)
model.eval()
# many small per-tenant scoring requests against one served float model
# (the request mix the coalescer exists for)
sizes = [5, 16, 9, 24, 7, 12, 18, 6, 21, 10, 8, 14] * 2
batches = [rng.random((n, 3, 16, 16)).astype(np.float32) for n in sizes]
if mode == "integer":
    # the integer reference: the same request mix against an int8 edge
    # artifact (feed-forward lenet; resnets are not edge-compilable),
    # whose exact arithmetic always coalesced freely
    from repro.edge import compile_edge
    from repro.quantization import calibrate, prepare_qat
    lenet = build_model("lenet", num_classes=10, in_channels=3,
                        image_size=16, width=8, seed=1)
    lenet.eval()
    q = prepare_qat(lenet, weight_bits=8, act_bits=8, per_channel=True)
    calibrate(q, np.concatenate(batches[:3], axis=0))
    q.freeze()
    target = compile_edge(q, 10)
else:
    target = model
if mode == "sequential":
    # per-request handling, pre-coalescing: each job scores its own rows
    # under the row-reproducible mode (the solo float reference)
    def fn():
        out = []
        for x in batches:
            with rowrep.row_reproducible():
                out.append(predict_logits(model, x))
        return out
else:
    session = ServeSession(capacity=64)
    def fn():
        futs = [session.submit_predict(target, x) for x in batches]
        return [f.result() for f in futs]
fn()    # warm plans and BLAS caches
times = []
for _ in range(7):
    t0 = time.perf_counter()
    fn()
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""


def _float_coalesce_arm_seconds(mode):
    """Median seconds to serve one float-predict burst in its own
    process (same isolation rationale as the train-step arms)."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", _FLOAT_COALESCE_ARM, mode],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def test_float_coalesce(benchmark):
    """Float-predict burst (24 small jobs, one resnet) served coalesced
    vs each job alone — the float analogue of ``test_serve_throughput``.

    Float coalescing was impossible before the row-reproducible GEMM
    mode: BLAS per-row bits change with batch composition, so merging
    tenants' rows changed results.  With the mode on, the coalesced arm
    merges every compatible job into shared compiled passes; the
    sequential arm runs each job's rows alone under the same mode (the
    bit-reference).  The ``integer`` arm serves the identical request
    mix against an int8 edge artifact (feed-forward lenet) — the
    exact-arithmetic path whose coalescing freedom the float path now
    matches.  Per-job bytes are asserted identical across
    coalesced/solo/sequential in-process below.
    """
    from repro.models import build_model
    from repro.nn import rowrep
    from repro.serve import ServeSession
    from repro.training import predict_logits

    seq_s = _float_coalesce_arm_seconds("sequential")
    co_s = _float_coalesce_arm_seconds("coalesced")
    int_s = _float_coalesce_arm_seconds("integer")

    # in-process hard parity gate: coalesced == solo == sequential rr
    rng = np.random.default_rng(0)
    model = build_model("resnet", num_classes=10, width=8, seed=0)
    model.eval()
    batches = [rng.random((n, 3, 16, 16)).astype(np.float32)
               for n in (5, 16, 9, 24)]
    refs = []
    for x in batches:
        with rowrep.row_reproducible():
            refs.append(predict_logits(model, x))
    for coalesce in (True, False):
        session = ServeSession(capacity=64, float_coalesce=coalesce)
        futs = [session.submit_predict(model, x) for x in batches]
        for ref, fut in zip(refs, futs):
            np.testing.assert_array_equal(fut.result(), ref)

    session = ServeSession(capacity=64)

    def burst():
        futs = [session.submit_predict(model, x) for x in batches]
        return [f.result() for f in futs]

    burst()
    benchmark(burst)
    benchmark.extra_info["float_jobs"] = 24
    benchmark.extra_info["float_rows"] = sum(
        [5, 16, 9, 24, 7, 12, 18, 6, 21, 10, 8, 14] * 2)
    benchmark.extra_info["float_sequential_ms"] = seq_s * 1e3
    benchmark.extra_info["float_coalesced_ms"] = co_s * 1e3
    benchmark.extra_info["float_integer_ms"] = int_s * 1e3
    benchmark.extra_info["float_coalesce_speedup"] = seq_s / co_s


def test_rowrep_gemm_overhead(benchmark):
    """Fixed-order blocked accumulation vs raw BLAS at the serving
    GEMM shape (full 256-row blocks, classifier-head fan-out).

    The row-reproducible mode buys composition-independent bits by
    pinning the accumulation order; this measures what that costs when
    the blocking is respected (coalesced dispatches always are — the
    scheduler merges small jobs into full blocks).  Ragged sub-block
    batches pay more (tail padding), which is exactly the cost
    coalescing amortizes away.
    """
    from repro.nn import rowrep
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2 * rowrep.ROW_BLOCK, 512)).astype(np.float32)
    b = rng.standard_normal((512, 10)).astype(np.float32)
    out = np.empty((len(a), 10), dtype=np.float32)

    def raw():
        np.matmul(a, b, out=out)

    def rr():
        rowrep.rr_matmul(a, b, out=out)

    raw(), rr()                              # warm scratch + BLAS caches
    reps, chunk = 30, 20

    def median_s(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(chunk):
                fn()
            times.append((time.perf_counter() - t0) / chunk)
        times.sort()
        return times[len(times) // 2]

    raw_s = median_s(raw)
    rr_s = median_s(rr)
    benchmark(rr)
    benchmark.extra_info["rowrep_rows"] = len(a)
    benchmark.extra_info["rowrep_raw_ns"] = raw_s * 1e9
    benchmark.extra_info["rowrep_rr_ns"] = rr_s * 1e9
    benchmark.extra_info["rowrep_overhead_pct"] = (rr_s / raw_s - 1) * 100


_NET_SERVING_ARM = """
import sys, time, statistics
from repro.serve import (ManualClock, ServeSession, assign_arrivals,
                         build_workload, mixed_workload_spec, replay_serve)
from repro.serve.net import ServeClient, ServeServer, replay_net
mode = sys.argv[1]
spec = assign_arrivals(mixed_workload_spec(scale=2), rate_hz=500.0)
w = build_workload(spec)
# Long-lived state is symmetric: ONE session (and its shared PlanCache)
# persists across bursts in both arms.  The arms differ only at the
# boundary: in-process submit/drain calls vs the full frame protocol
# over a loopback socket with the retrying idempotent client (pump
# mode, shared manual clock, so no real waits enter the measurement).
if mode == "net":
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    server = ServeServer(session, spec=w.spec,
                         models=(w.original, w.adapted, w.edge))
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=5.0, pump=server.poll)
    fn = lambda: replay_net(w, client, rate=100.0)
else:
    session = ServeSession(capacity=64)
    fn = lambda: replay_serve(w, session=session)
fn()    # warm BLAS/page caches and the plan cache
chunks = []
for _ in range(5):
    t0 = time.perf_counter()
    fn()
    chunks.append(time.perf_counter() - t0)
print(statistics.median(chunks))
"""


def _net_serving_arm_seconds(mode):
    """Median seconds per mixed burst, in its own process (same
    isolation rationale as the other end-to-end arms)."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", _NET_SERVING_ARM, mode],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def test_net_serving(benchmark):
    """The socket boundary's toll: the recorded mixed workload served
    through the networked front end (frame protocol, loopback TCP,
    idempotency bookkeeping, journal-free) vs the same session driven
    in-process — the cost of moving from a library to a service.

    Both arms are process-isolated with one long-lived session each;
    the net arm adds encode/CRC/socket/decode per request and response
    plus the client's retry machinery (which never fires here — the
    clean-path overhead is the point).  The hard gates run in-process:
    every ok result bit-identical to the solo run over the wire, clean
    and under seeded drop/duplicate/delay/truncate frame chaos; the
    chaos arm's retry/dedup counts land in the trajectory so retries
    silently turning into re-executions would show as a perf cliff.
    """
    from repro.serve import (ManualClock, ServeSession, assign_arrivals,
                             build_workload, default_net_chaos_specs,
                             mixed_workload_spec)
    from repro.serve.net import (ServeClient, ServeServer, replay_net,
                                 verify_net_parity)
    from repro.serve.workload import replay_sequential

    inproc_s = _net_serving_arm_seconds("inproc")
    net_s = _net_serving_arm_seconds("net")

    spec = assign_arrivals(mixed_workload_spec(scale=2), rate_hz=500.0)
    w = build_workload(spec)
    reference = replay_sequential(w)["results"]
    verify_net_parity(w, rate=100.0, reference=reference)   # clean gate
    chaos = verify_net_parity(w, fault_specs=default_net_chaos_specs(),
                              seed=0, rate=100.0, reference=reference)

    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    server = ServeServer(session, spec=w.spec,
                         models=(w.original, w.adapted, w.edge))
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=5.0, pump=server.poll)
    try:
        benchmark(lambda: replay_net(w, client, rate=100.0))
    finally:
        client.close()
        server.shutdown()
    benchmark.extra_info["net_jobs"] = len(w.jobs)
    benchmark.extra_info["net_rows"] = w.rows
    benchmark.extra_info["net_inproc_ms"] = inproc_s * 1e3
    benchmark.extra_info["net_loopback_ms"] = net_s * 1e3
    benchmark.extra_info["net_boundary_overhead_pct"] = \
        (net_s / inproc_s - 1) * 100
    benchmark.extra_info["net_chaos_retried"] = chaos["retried"]
    benchmark.extra_info["net_chaos_deduped"] = chaos["deduped"]
    benchmark.extra_info["net_chaos_ok"] = \
        chaos["outcome_counts"].get("ok", 0)
