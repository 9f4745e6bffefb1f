"""The attack family: budgets respected, objectives achieved, DIVA's
evasive property."""

import numpy as np
import pytest

from repro.attacks import (CWLinf, DIVA, MomentumPGD, NESDiva, PGD,
                           AttackTrace, TargetedDIVA, cw_margin_loss,
                           diva_loss, fgsm, input_gradient, linf_distance,
                           project_linf, r_fgsm)
from repro.metrics import evaluate_attack
from repro.nn import Tensor
from repro.training import evaluate_accuracy, predict_labels


EPS = 32.0 / 255.0
ALPHA = 4.0 / 255.0


@pytest.fixture(scope="module")
def attack_setup(request):
    """(original, adapted, attack set) for a tiny trained pair."""
    tiny_model = request.getfixturevalue("tiny_model")
    tiny_quantized = request.getfixturevalue("tiny_quantized")
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    from repro.data import select_attack_set
    _, val = tiny_dataset
    atk = select_attack_set(val, [tiny_model, tiny_quantized], per_class=4)
    return tiny_model, tiny_quantized, atk


class TestProjection:
    def test_within_eps_ball(self, rng):
        x = rng.random((4, 3, 8, 8))
        adv = x + rng.normal(0, 1.0, size=x.shape)
        proj = project_linf(adv, x, 0.1)
        assert linf_distance(proj, x).max() <= 0.1 + 1e-9

    def test_pixel_range_clamped(self, rng):
        x = np.zeros((1, 1, 2, 2))
        proj = project_linf(x - 1.0, x, 5.0)
        assert proj.min() >= 0.0
        proj = project_linf(x + 9.0, x, 5.0)
        assert proj.max() <= 1.0

    def test_identity_inside_ball(self, rng):
        x = rng.random((2, 1, 3, 3)) * 0.5 + 0.25
        adv = x + 0.01
        assert np.allclose(project_linf(adv, x, 0.1), adv)


class TestInputGradient:
    def test_matches_manual(self, tiny_model, tiny_dataset):
        from repro.nn import functional as F
        _, val = tiny_dataset
        x = val.x[:2]
        y = val.y[:2]
        g = input_gradient(
            lambda xt: F.cross_entropy(tiny_model(xt), y, reduction="sum"), x)
        assert g.shape == x.shape
        assert np.abs(g).max() > 0


class TestBaselineAttacks:
    def test_fgsm_damages_accuracy(self, attack_setup):
        orig, quant, atk = attack_setup
        x_adv = fgsm(quant, atk.x, atk.y, eps=EPS)
        assert evaluate_accuracy(quant, x_adv, atk.y) < 1.0
        assert linf_distance(x_adv, atk.x).max() <= EPS + 1e-6

    def test_r_fgsm_budget(self, attack_setup):
        orig, quant, atk = attack_setup
        x_adv = r_fgsm(quant, atk.x, atk.y, eps=EPS)
        assert linf_distance(x_adv, atk.x).max() <= EPS + 1e-6

    def test_r_fgsm_alpha_validation(self, attack_setup):
        orig, quant, atk = attack_setup
        with pytest.raises(ValueError):
            r_fgsm(quant, atk.x, atk.y, eps=EPS, alpha=EPS * 2)

    def test_pgd_beats_fgsm(self, attack_setup):
        orig, quant, atk = attack_setup
        x_f = fgsm(quant, atk.x, atk.y, eps=EPS)
        x_p = PGD(quant, eps=EPS, alpha=ALPHA, steps=10).generate(atk.x, atk.y)
        acc_f = evaluate_accuracy(quant, x_f, atk.y)
        acc_p = evaluate_accuracy(quant, x_p, atk.y)
        assert acc_p <= acc_f + 0.05

    def test_pgd_respects_budget(self, attack_setup):
        orig, quant, atk = attack_setup
        x_p = PGD(quant, eps=EPS, alpha=ALPHA, steps=10).generate(atk.x, atk.y)
        assert linf_distance(x_p, atk.x).max() <= EPS + 1e-6
        assert x_p.min() >= 0 and x_p.max() <= 1

    def test_pgd_flips_most(self, attack_setup):
        orig, quant, atk = attack_setup
        x_p = PGD(quant, eps=EPS, alpha=ALPHA, steps=15).generate(atk.x, atk.y)
        flipped = (predict_labels(quant, x_p) != atk.y).mean()
        assert flipped > 0.5

    def test_momentum_pgd_runs(self, attack_setup):
        orig, quant, atk = attack_setup
        x_m = MomentumPGD(quant, eps=EPS, alpha=ALPHA, steps=10,
                          mu=0.5).generate(atk.x, atk.y)
        assert linf_distance(x_m, atk.x).max() <= EPS + 1e-6
        assert (predict_labels(quant, x_m) != atk.y).any()

    def test_cw_margin_loss_sign(self, fixed_logit_model):
        logits = Tensor(np.array([[5.0, 1.0, 0.0], [0.0, 6.0, 7.0]]))
        loss = cw_margin_loss(logits, np.array([0, 1]))
        # first sample margin +4; second margin -1 floored at -kappa=0
        assert np.isclose(float(loss.data), 4.0)
        loss_k = cw_margin_loss(logits, np.array([0, 1]), kappa=5.0)
        assert np.isclose(float(loss_k.data), 4.0 - 1.0)

    def test_cw_kappa_floor(self):
        logits = Tensor(np.array([[0.0, 10.0]]))
        loss = cw_margin_loss(logits, np.array([0]), kappa=3.0)
        assert np.isclose(float(loss.data), -3.0)

    def test_cw_attack_flips(self, attack_setup):
        orig, quant, atk = attack_setup
        x_c = CWLinf(quant, eps=EPS, alpha=ALPHA, steps=10).generate(atk.x, atk.y)
        assert (predict_labels(quant, x_c) != atk.y).any()
        assert linf_distance(x_c, atk.x).max() <= EPS + 1e-6

    def test_random_start_stays_in_ball(self, attack_setup):
        orig, quant, atk = attack_setup
        x_p = PGD(quant, eps=EPS, alpha=ALPHA, steps=3,
                  random_start=True).generate(atk.x, atk.y)
        assert linf_distance(x_p, atk.x).max() <= EPS + 1e-6

    def test_invalid_budget_rejected(self, attack_setup):
        orig, quant, _ = attack_setup
        with pytest.raises(ValueError):
            PGD(quant, eps=-1.0)
        with pytest.raises(ValueError):
            PGD(quant, steps=0)


class TestDIVA:
    def test_diva_loss_value(self):
        po = Tensor(np.array([[0.8, 0.2], [0.6, 0.4]]))
        pa = Tensor(np.array([[0.5, 0.5], [0.1, 0.9]]))
        y = np.array([0, 1])
        val = float(diva_loss(po, pa, y, c=1.0).data)
        assert np.isclose(val, (0.8 - 0.5) + (0.4 - 0.9))

    def test_diva_budget_and_range(self, attack_setup):
        orig, quant, atk = attack_setup
        x_d = DIVA(orig, quant, eps=EPS, alpha=ALPHA, steps=10).generate(
            atk.x, atk.y)
        assert linf_distance(x_d, atk.x).max() <= EPS + 1e-6
        assert x_d.min() >= 0 and x_d.max() <= 1

    def test_diva_more_evasive_than_pgd(self, attack_setup):
        """The paper's core claim at miniature scale."""
        orig, quant, atk = attack_setup
        x_d = DIVA(orig, quant, c=1.0, eps=EPS, alpha=ALPHA,
                   steps=15).generate(atk.x, atk.y)
        x_p = PGD(quant, eps=EPS, alpha=ALPHA, steps=15).generate(atk.x, atk.y)
        rd = evaluate_attack(orig, quant, x_d, atk.y)
        rp = evaluate_attack(orig, quant, x_p, atk.y)
        assert rd.top1_success_rate >= rp.top1_success_rate
        # DIVA must keep the original model mostly correct
        assert rd.quadrant_both_incorrect <= rp.quadrant_both_incorrect

    def test_diva_keeps_original_correct(self, attack_setup):
        orig, quant, atk = attack_setup
        x_d = DIVA(orig, quant, c=1.0, eps=EPS, alpha=ALPHA,
                   steps=15).generate(atk.x, atk.y)
        orig_acc = evaluate_accuracy(orig, x_d, atk.y)
        assert orig_acc >= 0.6

    def test_c_zero_never_attacks(self, attack_setup):
        orig, quant, atk = attack_setup
        x_d = DIVA(orig, quant, c=0.0, eps=EPS, alpha=ALPHA,
                   steps=5).generate(atk.x, atk.y)
        rep = evaluate_attack(orig, quant, x_d, atk.y)
        # pure-evasion objective barely flips the adapted model
        assert rep.attack_only_success_rate <= 0.3

    def test_large_c_attacks_harder(self, attack_setup):
        orig, quant, atk = attack_setup
        r = {}
        for c in (0.5, 5.0):
            x = DIVA(orig, quant, c=c, eps=EPS, alpha=ALPHA,
                     steps=10, keep_best=False).generate(atk.x, atk.y)
            r[c] = evaluate_attack(orig, quant, x, atk.y).attack_only_success_rate
        assert r[5.0] >= r[0.5]

    def test_trace_has_step_snapshots(self, attack_setup):
        orig, quant, atk = attack_setup
        trace = AttackTrace()
        DIVA(orig, quant, eps=EPS, alpha=ALPHA, steps=4).generate(
            atk.x[:6], atk.y[:6], trace=trace)
        assert len(trace.snapshots) == 4
        for snap in trace.snapshots:
            assert snap.shape == atk.x[:6].shape
            assert linf_distance(snap, atk.x[:6]).max() <= EPS + 1e-6

    def test_keep_best_monotone_success(self, attack_setup):
        """With keep_best, success-vs-steps must be non-decreasing
        (the Fig 6d shape)."""
        orig, quant, atk = attack_setup
        trace = AttackTrace()
        DIVA(orig, quant, eps=EPS, alpha=ALPHA, steps=8).generate(
            atk.x, atk.y, trace=trace)
        rates = [evaluate_attack(orig, quant, s, atk.y).top1_success_rate
                 for s in trace.snapshots]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_keep_best_at_least_as_good(self, attack_setup):
        orig, quant, atk = attack_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=10)
        x_kb = DIVA(orig, quant, keep_best=True, **kw).generate(atk.x, atk.y)
        x_nk = DIVA(orig, quant, keep_best=False, **kw).generate(atk.x, atk.y)
        r_kb = evaluate_attack(orig, quant, x_kb, atk.y).top1_success_rate
        r_nk = evaluate_attack(orig, quant, x_nk, atk.y).top1_success_rate
        assert r_kb >= r_nk - 1e-9


class TestTargetedDIVA:
    def test_targeted_hits_target_sometimes(self, attack_setup):
        orig, quant, atk = attack_setup
        target = int((atk.y[0] + 1) % 6)
        keep = atk.y != target
        x, y = atk.x[keep], atk.y[keep]
        attack = TargetedDIVA(orig, quant, target_class=target, c=1.0,
                              eps=EPS, alpha=ALPHA, steps=15)
        x_adv = attack.generate(x, y)
        pred = predict_labels(quant, x_adv)
        assert linf_distance(x_adv, x).max() <= EPS + 1e-6
        # shape check only: at least runs and produces some movement
        assert (pred != y).any()

    def test_success_mask_semantics(self, attack_setup):
        orig, quant, atk = attack_setup
        target = 0
        attack = TargetedDIVA(orig, quant, target_class=target,
                              eps=EPS, alpha=ALPHA, steps=2)
        mask = attack.is_success(atk.x, atk.y)
        # on clean inputs both models are correct, so no sample can
        # already satisfy "adapted says target but label differs"
        assert not mask[atk.y != target].any()


ATTACKS = ["pgd", "momentum", "cw", "diva", "targeted", "nes"]


def _attack(name, orig, quant, **kw):
    """One of the six attack classes over the tiny pair."""
    if name == "pgd":
        return PGD(quant, **kw)
    if name == "momentum":
        return MomentumPGD(quant, **kw)
    if name == "cw":
        return CWLinf(quant, **kw)
    if name == "diva":
        return DIVA(orig, quant, **kw)
    if name == "targeted":
        return TargetedDIVA(orig, quant, target_class=1, **kw)
    return NESDiva(orig, quant, n_samples=4, **kw)


class TestAttackContract:
    """Every attack class answers the same base-class contract: compiled
    and eager passes agree byte for byte, the pixel-level success check
    agrees with the loop's, and empty input gives empty output."""

    @pytest.mark.parametrize("name", ATTACKS)
    def test_compiled_generate_equals_eager(self, attack_setup, name):
        orig, quant, atk = attack_setup
        x, y = atk.x.astype(np.float64), atk.y
        kw = dict(eps=EPS, alpha=ALPHA, steps=6)
        fast = _attack(name, orig, quant, **kw)
        slow = _attack(name, orig, quant, **kw)
        slow.use_compiled = False
        adv = fast.generate(x, y)
        ref = slow.generate(x, y)
        assert adv.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(adv, ref)
        mask = fast.is_success(adv, y)
        assert mask.any()
        for a in (fast, slow):
            np.testing.assert_array_equal(a._success_mask(None, adv, y), mask)

    @pytest.mark.parametrize("name", ATTACKS)
    def test_is_success_on_zero_rows(self, attack_setup, name):
        orig, quant, atk = attack_setup
        mask = _attack(name, orig, quant).is_success(atk.x[:0], atk.y[:0])
        assert mask.shape == (0,) and mask.dtype == bool

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("name", ATTACKS)
    def test_generate_on_zero_rows(self, attack_setup, name, compiled):
        """Both loops — the slot scheduler and the full-batch loop —
        return an empty batch, and a trace of empty snapshots."""
        orig, quant, atk = attack_setup
        a = _attack(name, orig, quant, steps=2)
        a.use_compiled = compiled
        trace = AttackTrace()
        adv = a.generate(atk.x[:0], atk.y[:0], trace=trace)
        assert adv.shape == (0,) + atk.x.shape[1:]
        assert adv.dtype == atk.x.dtype
        assert [s.shape for s in trace.snapshots] == [adv.shape] * 2

    @pytest.mark.parametrize("name", ATTACKS)
    def test_empty_sweep_is_empty(self, attack_setup, name):
        orig, quant, atk = attack_setup
        a = _attack(name, orig, quant, steps=2)
        assert a.generate_sweep(atk.x[:4], atk.y[:4], []) == []

    def test_momentum_gradient_starts_at_rest(self, attack_setup):
        """``gradient`` before any ``generate`` starts from zero
        velocity, as ``generate`` does for each batch."""
        orig, quant, atk = attack_setup
        x, y = atk.x[:4], atk.y[:4]
        cold = MomentumPGD(quant).gradient(x, y)
        reset = MomentumPGD(quant)
        reset._init(x)
        np.testing.assert_array_equal(cold, reset.gradient(x, y))

    @staticmethod
    def _rows(atk, n):
        idx = np.arange(n) % len(atk.x)
        return atk.x[idx], atk.y[idx]

    def test_momentum_gradient_after_ragged_generate(self, attack_setup):
        """The velocity is per-batch loop state: after ``generate`` left
        a 2-row last batch, ``gradient`` on 3 rows still starts at
        rest."""
        orig, quant, atk = attack_setup
        x, y = self._rows(atk, 10)
        a = MomentumPGD(quant, steps=2)
        a.generate(x, y, batch_size=4)
        np.testing.assert_array_equal(
            a.gradient(x[:3], y[:3]), MomentumPGD(quant).gradient(x[:3], y[:3]))

    def test_momentum_gradient_after_generate_starts_at_rest(self,
                                                             attack_setup):
        orig, quant, atk = attack_setup
        x, y = self._rows(atk, 4)
        a = MomentumPGD(quant, steps=3)
        a.generate(x, y)
        np.testing.assert_array_equal(
            a.gradient(x, y), MomentumPGD(quant).gradient(x, y))
