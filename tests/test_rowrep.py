"""Row-reproducible float GEMMs: per-row bits vs batch composition.

The contract under test (repro.nn.rowrep): every row of a float
matmul/conv/linear result — forward and input-gradient, eager and
compiled — is bit-identical whether the row runs alone, in a
shuffled batch, in a ragged batch, or coalesced with strangers' rows.
That bit-independence is what licenses the serving layer to merge float
inference jobs (and mix them into attack dispatch rounds) without
changing a single byte of any tenant's result.
"""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import rowrep, set_default_dtype
from repro.nn.graph import compile_forward
from repro.nn.tensor import Tensor
from repro.serve import ServeSession
from repro.serve.workload import (build_workload, mixed_workload_spec,
                                  replay_sequential, replay_serve,
                                  verify_parity)
from repro.training import predict_logits


def _rows_match(run, x, rng):
    """Full-batch vs solo-row vs shuffled vs ragged-prefix, bitwise."""
    full = np.asarray(run(x))
    for i in (0, len(x) // 2, len(x) - 1):
        if not np.array_equal(full[i], np.asarray(run(x[i:i + 1]))[0]):
            return False
    perm = rng.permutation(len(x))
    if not np.array_equal(np.asarray(run(x[perm])), full[perm]):
        return False
    cut = max(1, len(x) - 3)
    return np.array_equal(np.asarray(run(x[:cut])), full[:cut])


# --------------------------------------------------------------------- #
# the kernel itself
# --------------------------------------------------------------------- #

class TestRRMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_composition_independent(self, dtype, rng):
        # rows span several full blocks plus a ragged tail
        a = rng.standard_normal((rowrep.ROW_BLOCK + 67, 37)).astype(dtype)
        b = rng.standard_normal((37, 11)).astype(dtype)
        full = rowrep.rr_matmul(a, b)
        for i in (0, 1, rowrep.ROW_BLOCK - 1, rowrep.ROW_BLOCK, len(a) - 1):
            assert np.array_equal(full[i], rowrep.rr_matmul(a[i:i + 1], b)[0])
        perm = rng.permutation(len(a))
        assert np.array_equal(rowrep.rr_matmul(a[perm], b), full[perm])
        for cut in (1, 96, rowrep.ROW_BLOCK, len(a) - 1):
            assert np.array_equal(rowrep.rr_matmul(a[:cut], b), full[:cut])

    def test_value_close_to_blas_and_out_param(self, rng):
        a = rng.standard_normal((300, 48)).astype(np.float32)
        b = rng.standard_normal((48, 10)).astype(np.float32)
        got = rowrep.rr_matmul(a, b)
        np.testing.assert_allclose(got, a @ b, rtol=1e-5, atol=1e-5)
        out = np.empty((300, 10), dtype=np.float32)
        assert rowrep.rr_matmul(a, b, out=out) is out
        assert np.array_equal(out, got)

    def test_integer_and_nd_inputs_stay_raw(self, rng):
        # the seam only rewrites 2D float GEMMs; exact integer matmuls
        # and batched 3D matmuls keep BLAS verbatim
        ai = rng.integers(-50, 50, (8, 6)).astype(np.int64)
        bi = rng.integers(-50, 50, (6, 3)).astype(np.int64)
        a3 = rng.standard_normal((2, 5, 4)).astype(np.float32)
        b3 = rng.standard_normal((2, 4, 3)).astype(np.float32)
        assert np.array_equal(rowrep.matmul(ai, bi), np.matmul(ai, bi))
        assert np.array_equal(rowrep.matmul(a3, b3), np.matmul(a3, b3))


# --------------------------------------------------------------------- #
# eager + compiled model passes (conv2d, linear, matmul in one net)
# --------------------------------------------------------------------- #

class TestModelRowParity:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ["resnet", "lenet"])
    def test_forward_eager_and_compiled(self, arch, dtype, rng):
        set_default_dtype(dtype)
        kw = ({"in_channels": 1, "image_size": 12} if arch == "lenet"
              else {})
        m = build_model(arch, num_classes=6, width=4, seed=0, **kw)
        m.eval()
        ch = kw.get("in_channels", 3)
        x = rng.random((13, ch, 12, 12)).astype(dtype)

        def eager(xb):
            return m(Tensor(xb)).data.copy()
        assert _rows_match(eager, x, rng)
        prog = compile_forward(m, x[:8])
        assert _rows_match(prog.replay, x, rng)
        # the degradation ladder's byte-neutrality in one line:
        # compiled == eager bitwise
        assert np.array_equal(prog.replay(x), eager(x))

    def test_input_gradient_eager_and_compiled(self, rng):
        set_default_dtype("float32")
        m = build_model("resnet", num_classes=6, width=4, seed=0)
        m.eval()
        x = rng.random((12, 3, 12, 12)).astype(np.float32)
        prog = compile_forward(m, x[:8])

        def cgrad(xb):
            _, g = prog.value_and_input_grad(
                xb, lambda o: np.ones_like(o))
            return g

        def egrad(xb):
            xt = Tensor(xb, requires_grad=True)
            m(xt).backward(np.ones((len(xb), 6), dtype=xb.dtype))
            return xt.grad.copy()

        assert _rows_match(cgrad, x, rng)
        assert _rows_match(egrad, x, rng)
        assert np.array_equal(cgrad(x), egrad(x))


#: every registered architecture, small enough to compile in a second
ARCHS = {
    "resnet": dict(num_classes=6, width=4),
    "mobilenet": dict(num_classes=6, width=4),
    "densenet": dict(num_classes=6, growth=3, width=4),
    "lenet": dict(num_classes=6, in_channels=1, image_size=16),
    "vggface": dict(num_identities=6, image_size=16, width=4, embed_dim=8),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_compiled_ragged_prefixes_match_full_batch(arch, dtype, rng):
    """One compiled program replays ragged prefixes of a batch: every
    row's logits and input gradient are byte-equal to its full-batch
    bits, whatever number of rows shares its replay."""
    set_default_dtype(dtype)
    m = build_model(arch, seed=0, **ARCHS[arch])
    m.eval()
    ch = ARCHS[arch].get("in_channels", 3)
    n = 40
    x = rng.random((n, ch, 16, 16)).astype(dtype)
    prog = compile_forward(m, x[:8])
    seed = rng.standard_normal((n, 6)).astype(dtype)
    full_z, full_g = (a.copy() for a in prog.value_and_input_grad(
        x, lambda z: seed[:len(z)]))
    for k in (1, 5, 17, n - 1):
        z, g = prog.value_and_input_grad(x[:k], lambda z: seed[:len(z)])
        assert np.array_equal(z, full_z[:k]), (k, "logits")
        assert np.array_equal(g, full_g[:k]), (k, "input gradient")


# --------------------------------------------------------------------- #
# serving: coalesced float dispatches are byte-neutral, solo is loud
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def float_model():
    # module-scoped fixtures run before the function-scoped autouse
    # dtype guard, so restore the policy here rather than leak float32
    from repro.nn import get_default_dtype
    before = get_default_dtype()
    set_default_dtype("float32")
    try:
        m = build_model("resnet", num_classes=6, width=4, seed=0)
        m.eval()
    finally:
        set_default_dtype(before)
    return m


class TestServeFloatCoalescing:
    def _reference(self, model, batches):
        out = []
        for x in batches:
            out.append(predict_logits(model, x))
        return out

    def test_coalesced_matches_solo_and_sequential(self, float_model, rng):
        set_default_dtype("float32")
        batches = [rng.random((n, 3, 12, 12)).astype(np.float32)
                   for n in (7, 33, 16)]
        ref = self._reference(float_model, batches)
        on = ServeSession(capacity=32)
        got_on = [f.result() for f in
                  [on.submit_predict(float_model, x) for x in batches]]
        for r, a in zip(ref, got_on):
            assert np.array_equal(r, a)
        [rec] = on.dispatch_log
        assert rec.key[0] == "predict_float" and rec.coalesced

    def test_uncoalesced_float_jobs_are_attributed(self, float_model, rng):
        set_default_dtype("float32")
        x = (rng.random((5, 3, 12, 12)) * 255).astype(np.uint8)
        session = ServeSession(capacity=32)
        futures = [session.submit_predict(float_model, x) for _ in range(2)]
        ref = predict_logits(float_model, x)
        for f in futures:
            assert np.array_equal(f.result(), ref)
        recs = session.dispatch_log
        assert len(recs) == 2
        for rec in recs:
            # solo is explicit, never silent: key says solo, record says why
            assert rec.key[0] == "solo" and not rec.coalesced
            assert rec.reason == "non-float input on float-predict path"

    def test_mixed_attack_and_float_share_a_round(self, rng):
        set_default_dtype("float32")
        from repro.attacks import DIVA
        from repro.quantization import calibrate, prepare_qat
        orig = build_model("resnet", num_classes=6, width=4, seed=0)
        orig.eval()
        calib = rng.random((16, 3, 12, 12)).astype(np.float32)
        adapted = prepare_qat(orig, weight_bits=8)
        calibrate(adapted, calib)
        adapted.freeze()
        adapted.eval()
        xa = rng.random((6, 3, 12, 12)).astype(np.float32)
        from repro.training import predict_labels
        ya = predict_labels(orig, xa)
        xf = rng.random((10, 3, 12, 12)).astype(np.float32)
        make = lambda: DIVA(orig, adapted, c=1.0, eps=8 / 255, steps=4)
        ref_adv = make().generate(xa, ya)
        ref_logits = predict_logits(adapted, xf)

        session = ServeSession(capacity=32)
        fa = session.submit_attack(make(), xa, ya)
        ff = session.submit_predict(adapted, xf)
        adv, logits = fa.result(), ff.result()
        assert np.array_equal(adv, ref_adv)
        assert np.array_equal(logits, ref_logits)
        # one mixed round: the float rider joined the attack head's group
        [rec] = session.dispatch_log
        assert rec.key[0] == "attack" and rec.coalesced
        assert len(rec.seqs) == 2


def test_workload_parity_covers_float_jobs(rng):
    set_default_dtype("float32")
    spec = mixed_workload_spec(scale=1)
    assert any(j["kind"] == "predict_float" for j in spec["jobs"])
    wl = build_workload(spec)
    rep = verify_parity(wl, capacity=32)
    assert rep["outcome_counts"] == {"ok": len(wl.jobs)}


def test_serve_results_do_not_depend_on_coalescing(rng):
    # the coalesced replay and the solo sequential run: identical bytes
    set_default_dtype("float32")
    wl = build_workload(mixed_workload_spec(scale=1))
    a = replay_serve(wl, capacity=32)
    seq = replay_sequential(wl)
    for ra, rs in zip(a["results"], seq["results"]):
        assert np.array_equal(ra, rs)
