import dataclasses

import numpy as np
import pytest

import _oracles
import _synth
from conceptkb.bounds import _matrix_norm
from conceptkb.data import build_store
from conceptkb.model import Hyperparams, attention_vector, init_params, projections, supports
from conceptkb.sampling import DomainSampler, corrupt_batch
from conceptkb.training import (
    TrainingError,
    apply_gradients,
    batch_gradients,
    batch_loss,
    block_update,
    hinge_loss,
    make_state,
    sgd_epoch,
    single_matrix_cost,
    single_matrix_energy,
    train,
)


class TestHingeLoss:
    def test_margin_satisfied(self):
        assert hinge_loss(0.0, 10.0, 5.0) == 0.0

    def test_tie(self):
        assert hinge_loss(1.0, 1.0, 5.0) == 5.0

    def test_partial_violation(self):
        assert hinge_loss(2.5, 3.0, 1.0) == pytest.approx(0.5)


PARAM_ARRAYS = ("entity_emb", "relation_emb", "concept_tensor", "head_scores", "tail_scores")


def dense_gradients(params, grads):
    """Expand the per-array (ids, rows) gradients to full arrays."""
    out = {name: np.zeros_like(getattr(params, name)) for name in PARAM_ARRAYS}
    for name, (ids, rows) in grads.items():
        out[name][ids] = rows
    return out


def finite_difference(params, hp, pos, neg, arr_name, eps=1e-5):
    arr = getattr(params, arr_name)
    fd = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        up = batch_loss(params, hp, pos, neg)
        arr[idx] = orig - eps
        down = batch_loss(params, hp, pos, neg)
        arr[idx] = orig
        fd[idx] = (up - down) / (2 * eps)
        it.iternext()
    return fd


def make_fd_instance(seed, hp, n_entities=9, n_relations=3, batch=5):
    """A random batch plus params positioned away from every kink: hinge
    margins, L1 components, and penalty slacks all bounded from zero."""
    rng = np.random.default_rng(seed)
    params = init_params(n_entities, n_relations, hp, seed=seed)
    if hp.attention_mode == "dense_l1":
        params.head_scores[:] = rng.uniform(0.2, 1.0, params.head_scores.shape)
        params.tail_scores[:] = rng.uniform(0.2, 1.0, params.tail_scores.shape)
    else:
        params.head_scores[:] = rng.normal(0, 1, params.head_scores.shape)
        params.tail_scores[:] = rng.normal(0, 1, params.tail_scores.shape)
    pos = np.stack([rng.integers(n_entities, size=batch),
                    rng.integers(n_relations, size=batch),
                    rng.integers(n_entities, size=batch)], axis=1)
    neg = pos.copy()
    flip = rng.random(batch) < 0.5
    neg[flip, 0] = (neg[flip, 0] + 1 + rng.integers(n_entities - 1, size=int(flip.sum()))) % n_entities
    neg[~flip, 2] = (neg[~flip, 2] + 1 + rng.integers(n_entities - 1, size=int((~flip).sum()))) % n_entities
    return params, pos, neg


def projection(params, hp, side, r):
    """Relation r's composed ``side`` projection."""
    return projections(params, hp, *supports(params, hp, side, [r]))[0]


def kink_distance(params, hp, pos, neg):
    """Smallest distance to a nondifferentiable point across the batch."""
    shared = hp.model != "transe"
    # p[side][k]: the projected (B, n) rows of one side, positives (k = 0)
    # and corrupted partners (k = 1)
    p = [[np.stack([projection(params, hp, side, r) @ params.entity_emb[e] if shared
                    else params.entity_emb[e] for e, r in zip(pairs[:, col], pairs[:, 1])])
          for pairs in (pos, neg)] for side, col in (("head", 0), ("tail", 2))]
    u = [p[0][k] + params.relation_emb[pos[:, 1]] - p[1][k] for k in range(2)]
    energies = [np.abs(v).sum(axis=1) if hp.ell == 1 else np.sqrt((v * v).sum(axis=1)) for v in u]
    dist = np.abs(hp.gamma + energies[0] - energies[1]).min()
    if hp.ell == 1:
        dist = min(dist, np.abs(np.stack(u)).min())
    if hp.proj_penalty > 0 and shared:
        for side in range(2):
            slack = (p[side][0] * p[side][0]).sum(axis=1) - 1.0
            dist = min(dist, np.abs(slack).min())
    return float(dist)


# sparse attention keeps its ids ("0.0-1"); the all-m softmax and the
# two-matrix baseline (m = 2|R| one-hot supports) append their name
FD_VARIANTS = {
    "": {},
    "dense": {"attention_mode": "dense"},
    "stranse": {"model": "stranse", "m": 6, "k": 1},
}
FD_CASES = [
    pytest.param(ell, penalty, variant, id="-".join(filter(None, (str(penalty), str(ell), name))))
    for name, variant in FD_VARIANTS.items() for penalty in (0.0, 1.0) for ell in (1, 2)
]


class TestGradientOracle:
    @pytest.mark.parametrize("ell,penalty,variant", FD_CASES)
    def test_matches_central_differences(self, ell, penalty, variant):
        kw = dict(n=4, m=5, k=2, gamma=1.0, tau=0.5, ell=ell, epochs=1,
                  proj_penalty=penalty, init_noise_sd=0.4)
        hp = Hyperparams(**{**kw, **variant})
        params = pos = neg = None
        for seed in range(3, 40):
            params, pos, neg = make_fd_instance(seed, hp)
            if kink_distance(params, hp, pos, neg) > 1e-3:
                break
        else:
            pytest.fail("no kink-free instance found")
        loss, grads = batch_gradients(params, hp, pos, neg)
        analytic = dense_gradients(params, grads)
        for arr_name in PARAM_ARRAYS:
            fd = finite_difference(params, hp, pos, neg, arr_name)
            a = analytic[arr_name]
            # floor of 1e-6 absorbs central-difference roundoff (~1e-10)
            # at coordinates whose true gradient is exactly zero
            denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(fd)))
            rel = np.abs(a - fd) / denom
            assert rel.max() < 1e-4, f"{arr_name}: max rel err {rel.max()}"

    def test_dense_l1_weights_gradient(self):
        hp = Hyperparams(n=4, m=4, k=2, gamma=1.0, ell=2, epochs=1,
                         attention_mode="dense_l1", l1_coef=0.01,
                         proj_penalty=0.0, init_noise_sd=0.4)
        params, pos, neg = make_fd_instance(7, hp)
        assert kink_distance(params, hp, pos, neg) > 1e-3
        loss, grads = batch_gradients(params, hp, pos, neg)
        analytic = dense_gradients(params, grads)
        for arr_name in ("head_scores", "tail_scores", "concept_tensor"):
            fd = finite_difference(params, hp, pos, neg, arr_name)
            denom = np.maximum(1e-6, np.maximum(np.abs(analytic[arr_name]), np.abs(fd)))
            assert (np.abs(analytic[arr_name] - fd) / denom).max() < 1e-4

    @pytest.mark.parametrize("mode", ["sparse", "dense", "dense_l1"])
    def test_invariant_to_batch_order(self, mode):
        hp = Hyperparams(n=4, m=5, k=2, gamma=1.0, tau=0.5, ell=2, epochs=1,
                         attention_mode=mode, init_noise_sd=0.4)
        params, pos, neg = make_fd_instance(5, hp, batch=12)
        loss, grads = batch_gradients(params, hp, pos, neg)
        perm = np.random.default_rng(0).permutation(len(pos))
        loss_p, grads_p = batch_gradients(params, hp, pos[perm], neg[perm])
        assert loss_p == pytest.approx(loss, rel=1e-12)
        a, b = dense_gradients(params, grads), dense_gradients(params, grads_p)
        for name in PARAM_ARRAYS:
            np.testing.assert_allclose(b[name], a[name], rtol=0, atol=1e-12, err_msg=name)

    def test_transe_gradients(self):
        hp = Hyperparams(n=4, m=1, k=1, gamma=1.0, ell=2, epochs=1, model="transe")
        params, pos, neg = make_fd_instance(11, hp)
        loss, grads = batch_gradients(params, hp, pos, neg)
        analytic = dense_gradients(params, grads)
        for arr_name in ("entity_emb", "relation_emb"):
            fd = finite_difference(params, hp, pos, neg, arr_name)
            denom = np.maximum(1e-6, np.maximum(np.abs(analytic[arr_name]), np.abs(fd)))
            assert (np.abs(analytic[arr_name] - fd) / denom).max() < 1e-4


def reference_gradients(params, hp, pos, neg):
    """Gradients of :func:`batch_loss`, one pair at a time.

    Each side projects with its relation's composed matrix ``W``; a
    projected row's coefficient ``c`` gives its entity ``W.T @ c`` and adds
    ``c xᵀ`` to the relation side's adjoint ``S``.  Concept i then gets
    ``α_i S`` and the score row ``α/τ·(a − α·a)`` with ``a_i = ⟨D_i, S⟩``,
    or ``a + l1_coef·count·sign(score)`` in dense_l1 mode.
    """
    shared = hp.model != "transe"
    emb, D = params.entity_emb, params.concept_tensor
    out = {name: np.zeros_like(getattr(params, name)) for name in PARAM_ARRAYS}
    adjoint, count = {}, {}

    def norm_grad(u):
        if hp.ell == 1:
            return np.sign(u)
        norm = np.sqrt(u @ u)
        return u / norm if norm > 0 else np.zeros_like(u)

    def norm(u):
        return np.abs(u).sum() if hp.ell == 1 else np.sqrt(u @ u)

    for (h, r, t), (h2, _, t2) in zip(pos.tolist(), neg.tolist()):
        count[r] = count.get(r, 0) + 1
        W = [projection(params, hp, side, r) if shared else np.eye(params.n)
             for side in ("head", "tail")]
        x = [(emb[h], emb[h2]), (emb[t], emb[t2])]
        p = [[w @ e for e in pair] for w, pair in zip(W, x)]
        u = [p[0][k] + params.relation_emb[r] - p[1][k] for k in range(2)]
        active = hp.gamma + norm(u[0]) - norm(u[1]) > 0
        g = [norm_grad(v) * active for v in u]
        coef = [[g[0], -g[1]], [-g[0], g[1]]]
        if shared and hp.proj_penalty > 0:
            for side in range(2):
                if p[side][0] @ p[side][0] > 1.0:
                    coef[side][0] = coef[side][0] + 2.0 * hp.proj_penalty * p[side][0]
        out["relation_emb"][r] += g[0] - g[1]
        for side, ids in enumerate(((h, h2), (t, t2))):
            for e_id, xk, ck in zip(ids, x[side], coef[side]):
                out["entity_emb"][e_id] += W[side].T @ ck
                adjoint.setdefault((r, side), np.zeros((params.n, params.n)))
                adjoint[r, side] += np.outer(ck, xk)
    if not shared:
        return out
    for (r, side), S in adjoint.items():
        name = ("head", "tail")[side]
        alpha = attention_vector(params, hp, r, name)
        for i in range(params.m):
            out["concept_tensor"][i] += alpha[i] * S
        a = np.array([np.sum(D[i] * S) for i in range(params.m)])
        if hp.attention_mode == "dense_l1":
            sign = np.sign(params.scores(name)[r])
            out[f"{name}_scores"][r] = a + hp.l1_coef * count[r] * sign
        else:
            out[f"{name}_scores"][r] = alpha / hp.tau * (a - alpha @ a)
    return out


def assert_matches_reference(params, hp, pos, neg):
    """Every array within 1e-12 of its largest reference entry."""
    got = dense_gradients(params, batch_gradients(params, hp, pos, neg)[1])
    want = reference_gradients(params, hp, pos, neg)
    for name in PARAM_ARRAYS:
        scale = np.abs(want[name]).max()
        err = np.abs(got[name] - want[name]).max()
        assert err <= 1e-12 * scale, f"{name}: max abs err {err} at scale {scale}"


def reference_hp(mode, model, **kw):
    shape = dict(m=6, k=1) if model == "stranse" else dict(m=5, k=2)
    base = dict(n=4, gamma=1.0, tau=0.5, epochs=1, init_noise_sd=0.4, l1_coef=0.05)
    return Hyperparams(attention_mode=mode, model=model, **{**base, **shape, **kw})


class TestGradientReference:
    """batch_gradients against a plain per-pair reference at 1e-12."""

    @pytest.mark.parametrize("penalty", [0.0, 1.0])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("model", ["itransf", "stranse", "transe"])
    @pytest.mark.parametrize("mode", ["sparse", "dense", "dense_l1"])
    def test_matches_per_pair_reference(self, mode, model, ell, penalty):
        hp = reference_hp(mode, model, ell=ell, proj_penalty=penalty)
        for seed in range(3):
            params, pos, neg = make_fd_instance(seed, hp, batch=12)
            assert_matches_reference(params, hp, pos, neg)

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_underflowing_softmax(self, mode, ell):
        hp = reference_hp(mode, "itransf", ell=ell, tau=0.01)
        params, pos, neg = make_fd_instance(4, hp, batch=12)
        params.head_scores *= 80
        params.tail_scores *= 80
        alpha = np.concatenate([attention_vector(params, hp, r, side)
                                for r in range(params.n_relations) for side in ("head", "tail")])
        assert ((alpha == 0) & (alpha != alpha.max())).any()
        assert_matches_reference(params, hp, pos, neg)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_clipped_dense_l1_weight_can_regrow(self, ell):
        hp = reference_hp("dense_l1", "itransf", ell=ell)
        params, pos, neg = make_fd_instance(6, hp, batch=12)
        r = int(pos[0, 1])
        params.head_scores[r, 1] = 0.0
        assert_matches_reference(params, hp, pos, neg)
        ids, rows = batch_gradients(params, hp, pos, neg)[1]["head_scores"]
        # the full <D_1, S>: a zero sign leaves no l1 term, and nothing masks it
        assert rows[np.searchsorted(ids, r), 1] != 0.0


def window_caps(n):
    """SGD window caps: one relation per window, and two."""
    return [1, 2 * 2 * 8 * n * n]


def grads_bytes(params, hp, pos, neg):
    """The loss and every grads array of :func:`batch_gradients` as bytes,
    after checking that :func:`batch_loss` gives the same loss bit for bit."""
    loss, grads = batch_gradients(params, hp, pos, neg)
    assert np.float64(batch_loss(params, hp, pos, neg)).tobytes() == np.float64(loss).tobytes()
    return [np.float64(loss).tobytes()] + [
        a.tobytes() for name in sorted(grads) for a in grads[name]]


def window_instances():
    """``(hp, params, pos, neg)`` over 3 relations of 12 pairs: sparse mode at
    ell 1 and 2 with penalty 0 and 1, the underflowing-softmax instance in
    sparse and dense mode, and stranse and transe."""
    for ell in (1, 2):
        for penalty in (0.0, 1.0):
            hp = reference_hp("sparse", "itransf", ell=ell, proj_penalty=penalty)
            yield (hp, *make_fd_instance(1, hp, batch=12))
        for mode in ("sparse", "dense"):
            hp = reference_hp(mode, "itransf", ell=ell, tau=0.01)
            params, pos, neg = make_fd_instance(4, hp, batch=12)
            params.head_scores *= 80
            params.tail_scores *= 80
            yield hp, params, pos, neg
    for model in ("stranse", "transe"):
        hp = reference_hp("sparse", model, ell=2)
        yield (hp, *make_fd_instance(2, hp, batch=12))


class TestWindows:
    """One batch pass streams windows of consecutive relations; the window
    cap changes no bit of the loss or the gradients."""

    def test_window_cap_changes_no_bit(self, monkeypatch):
        import conceptkb.training as training

        for hp, params, pos, neg in window_instances():
            want = grads_bytes(params, hp, pos, neg)
            for cap in window_caps(hp.n):
                monkeypatch.setattr(training, "SGD_WINDOW_BYTES", cap)
                assert grads_bytes(params, hp, pos, neg) == want, (hp, cap)
                monkeypatch.undo()

    def test_peak_memory_holds_one_window(self):
        """One batch over 400 relations at n = 64 composes 800 projections of
        32 KiB, 25 MiB in all; the pass keeps one window of them alive, next
        to the concept gradients and a slack of six (2, 2, B, n) arrays for
        the entity rows, their batch-order copy, the summed rows and a
        window's temporaries."""
        import tracemalloc

        import conceptkb.training as training

        n, R, E, B = 64, 400, 1000, 400
        hp = Hyperparams(n=n, m=8, k=2, gamma=1.0, ell=1, epochs=1, init_noise_sd=0.1)
        params = init_params(E, R, hp, seed=0)
        rng = np.random.default_rng(1)
        pos = np.stack([rng.integers(E, size=B), np.arange(B) % R, rng.integers(E, size=B)], axis=1)
        neg = pos.copy()
        neg[:, 2] = (neg[:, 2] + 1) % E
        tracemalloc.start()
        try:
            _, grads = batch_gradients(params, hp, pos, neg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 6 * (2 * 2 * B * n * 8)
        assert peak < grads["concept_tensor"][1].nbytes + training.SGD_WINDOW_BYTES + slack


class TestBackwardKernels:
    """The backward pass's batched kernels give the bytes of the
    relation-at-a-time and row-at-a-time forms they replace."""

    @pytest.mark.parametrize("n", [8, 50])
    def test_support_view_einsum_matches_gather(self, n):
        import conceptkb.training as training

        rng = np.random.default_rng(n)
        D = rng.normal(size=(12, n, n))
        for width in (1, 2, 3):
            for _ in range(40):
                ids = rng.choice(len(D), width, replace=False).tolist()
                S = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-6, 7)
                planes = training._support_planes(D, ids)
                # one or two concepts are read in place, wider supports gathered
                assert np.shares_memory(planes, D) == (width < 3)
                want = np.einsum("ijk,jk->i", D[ids], S)
                assert np.einsum("ijk,jk->i", planes, S).tobytes() == want.tobytes(), ids

    def test_window_softmax_backward_matches_per_relation(self):
        import conceptkb.training as training

        rng = np.random.default_rng(3)
        for c in (1, 2, 3, 5):
            weights = rng.dirichlet(np.ones(c), size=7)
            weights[0, -1] = 0.0  # a padded concept of zero weight
            a = rng.normal(size=(7, c)) * 10.0 ** rng.integers(-6, 7, size=(7, 1))
            got = training._softmax_backward(weights, a, 0.25)
            for row, al, aj in zip(got, weights, a):
                assert row.tobytes() == (al / 0.25 * (aj - al @ aj)).tobytes()

    def test_pass_blocks_sides_of_unequal_width(self, monkeypatch):
        """In dense mode an underflowing softmax gives the head and the tail
        supports different widths; each side's window block keeps its own,
        and every row is the per-relation formula's."""
        import conceptkb.training as training

        hp = reference_hp("dense", "itransf", ell=1, tau=0.01)
        params, pos, neg = make_fd_instance(4, hp, batch=12)
        params.head_scores *= 80
        params.tail_scores *= 80
        blocks = []
        real = training._softmax_backward

        def spy(weights, a, tau):
            out = real(weights, a, tau)
            blocks.append((weights, a, out))
            return out

        monkeypatch.setattr(training, "_softmax_backward", spy)
        batch_gradients(params, hp, pos, neg)
        assert len({a.shape[1] for _, a, _ in blocks}) == 2
        for weights, a, out in blocks:
            for row, al, aj in zip(out, weights, a):
                assert row.tobytes() == (al / hp.tau * (aj - al @ aj)).tobytes()

    @pytest.mark.parametrize("mode", ["sparse", "dense_l1"])
    def test_apply_matches_row_by_row_step(self, mode):
        hp = reference_hp(mode, "itransf", ell=1, lr=0.5)
        params, pos, neg = make_fd_instance(5, hp, batch=12)
        grads = batch_gradients(params, hp, pos, neg)[1]
        for name in ("relation_emb", "head_scores", "tail_scores", "concept_tensor"):
            grads[name][1][0] = 0.0  # a row whose step is zero
        if mode == "dense_l1":
            # a stepped score row that the clip sets to zero
            clipped, rows = grads["head_scores"][0][-1], grads["head_scores"][1][-1]
            params.head_scores[clipped] = 0.5 * hp.lr * rows
        want = params.copy()
        for name, (ids, rows) in grads.items():
            if name == "entity_emb":
                continue
            arr = getattr(want, name)
            for i, row in zip(ids.tolist(), rows):
                arr[i] -= hp.lr * row
            if mode == "dense_l1" and name.endswith("_scores"):
                arr[ids] = np.maximum(arr[ids], 0.0)
        if mode == "dense_l1":
            assert (want.head_scores[clipped] == 0.0).any()
        apply_gradients(params, hp, grads)
        for name in PARAM_ARRAYS[1:]:
            assert getattr(params, name).tobytes() == getattr(want, name).tobytes(), name


def wn18_like_store(seed=0, n_entities=800, n_relations=18, n_train=4000):
    """A WN18-like training split: Zipf relation frequencies over 18
    relations, per-relation fan-outs for the Bernoulli rule."""
    rng = np.random.default_rng(seed)
    freq = 1.0 / np.arange(1, n_relations + 1)
    r = rng.choice(n_relations, n_train, p=freq / freq.sum())
    h = rng.integers(n_entities, size=n_train)
    t = (h * (1 + r) + rng.integers(4, size=n_train)) % n_entities
    return build_store(np.stack([h, r, t], axis=1), n_entities=n_entities, n_relations=n_relations)


def assert_bytes_equal(got, want, what):
    """Equal shapes and bytes, -0.0 and NaN payloads included."""
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), what


class TestByteOracle:
    """The batch pass and the step against the verbatim reference in
    ``tests/_oracles.py`` (one matmul per relation side, ``np.add.at``
    scatters): loss, every grads array and the stepped parameters byte for
    byte."""

    @staticmethod
    def step_both(params, ref, hp, pos, neg, what):
        loss, grads = batch_gradients(params, hp, pos, neg)
        want_loss, want = _oracles.oracle_batch_gradients(ref, hp, pos, neg)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), what
        assert sorted(grads) == sorted(want), what
        for name in want:
            for got_a, want_a in zip(grads[name], want[name]):
                assert_bytes_equal(got_a, want_a, (what, name))
        apply_gradients(params, hp, grads)
        _oracles.oracle_apply_gradients(ref, hp, want)
        for name in PARAM_ARRAYS:
            assert_bytes_equal(getattr(params, name), getattr(ref, name), (what, name))

    def test_window_instances(self):
        for i, (hp, params, pos, neg) in enumerate(window_instances()):
            self.step_both(params, params.copy(), hp, pos, neg, i)

    @pytest.mark.parametrize("mode,model", [("sparse", "itransf"), ("dense", "itransf"),
                                            ("dense_l1", "itransf"), ("sparse", "stranse"),
                                            ("sparse", "transe")])
    def test_stepped_wn18_like_batches(self, mode, model):
        """200 consecutive batches of 20 at n = 50, m = 30, k = 2 (stranse:
        m = 36, k = 1), corrupted by the Bernoulli rule and stepped, on one
        trajectory whose batches take ell 1 and 2 with penalty 0 and 1 in
        turn (the two trivial models: 100 batches)."""
        store = wn18_like_store()
        shape = dict(m=36, k=1) if model == "stranse" else dict(m=30, k=2)
        hps = [Hyperparams(n=50, gamma=5.0, tau=0.25, ell=ell, lr=0.01, batch_size=20, epochs=1,
                           attention_mode=mode, model=model, proj_penalty=penalty,
                           init_noise_sd=0.05, **shape)
               for ell in (1, 2) for penalty in (0.0, 1.0)]
        params = init_params(store.n_entities, store.n_relations, hps[0], seed=3)
        if mode != "dense_l1":
            params.head_scores[:] = np.random.default_rng(4).normal(0, 1, params.head_scores.shape)
        ref = params.copy()
        rng = np.random.default_rng(5)
        order = rng.permutation(len(store.train))
        sampler = DomainSampler(store, hps[0].domain_lambda, rng)
        for b in range(200 if model == "itransf" else 100):
            pos = store.train[order[20 * b:20 * b + 20]]
            neg = corrupt_batch(pos, store, "bernoulli", sampler)
            self.step_both(params, ref, hps[b % 4], pos, neg, b)

    def test_bincount_scatter_matches_add_at(self):
        """Repeated ids, -0.0 rows and ids without rows: the bytes of
        ``np.add.at`` into zeros."""
        import conceptkb.training as training

        rng = np.random.default_rng(7)
        rows = rng.normal(size=(60, 5)) * 10.0 ** rng.integers(-8, 9, size=(60, 1))
        rows[::4] = -0.0
        rows[1::7, 2] = 0.0
        inverse = rng.integers(9, size=60)
        inverse[:8] = 3
        want = np.zeros((12, 5))
        np.add.at(want, inverse, rows)
        got = training._scatter_rows(inverse, rows, 12)
        assert_bytes_equal(got, want, "scatter")
        assert (got == 0).any() and not np.signbit(got[got == 0]).any()  # 0.0 + -0.0 is 0.0
        for count in (0, 2):
            assert_bytes_equal(training._scatter_rows(inverse[:0], rows[:0], count),
                               np.zeros((count, 5)), count)


class TestSgdEpoch:
    def test_peak_memory_holds_one_batch(self):
        """An epoch of three batches over 200 relations at n = 64 and m = 200
        drops each batch's gradients, a dense (c, n, n) concept gradient of
        about 6 MB here, before the next batch's are built: its traced peak
        stays under one batch_gradients call's plus half a concept gradient."""
        import tracemalloc

        from conceptkb.data import build_store
        from conceptkb.sampling import corrupt_batch

        n, m, R, E, B = 64, 200, 200, 1000, 400
        hp = Hyperparams(n=n, m=m, k=2, gamma=1.0, ell=1, epochs=1, batch_size=B,
                         init_noise_sd=0.1, sampling_mode="uniform")
        rng = np.random.default_rng(1)
        train_rows = np.stack([rng.integers(E, size=3 * B), np.arange(3 * B) % R,
                               rng.integers(E, size=3 * B)], axis=1)
        store = build_store(train_rows, n_entities=E, n_relations=R)
        state = make_state(store, hp, seed=0)
        # a batch over every relation touches the most concepts a batch can
        pos = train_rows[:B]
        neg = corrupt_batch(pos, store, hp.sampling_mode, state.sampler, hp.domain_side_rule)
        tracemalloc.start()
        try:
            _, grads = batch_gradients(state.params, hp, pos, neg)
            one = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        concept_bytes = grads["concept_tensor"][1].nbytes
        del grads
        tracemalloc.start()
        try:
            sgd_epoch(state, store, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one + concept_bytes // 2

    def test_zero_lr_keeps_parameters(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, lr=0.0)
        state = make_state(tiny_store, hp, seed=0)
        before = state.params.copy()
        loss = sgd_epoch(state, tiny_store, hp)
        assert loss >= 0.0
        for field in PARAM_ARRAYS:
            np.testing.assert_array_equal(getattr(state.params, field), getattr(before, field))

    def test_satisfied_margin_leaves_parameters_alone(self):
        # one training triple whose every possible corruption satisfies the
        # margin: the epoch is a guaranteed null step
        from conceptkb.data import build_store

        store = build_store(np.array([[0, 0, 1]], dtype=np.int64), n_entities=5, n_relations=1)
        hp = Hyperparams(n=5, m=3, k=1, gamma=0.5, tau=0.5, ell=1, lr=0.5,
                         batch_size=4, epochs=1, init_noise_sd=0.0,
                         sampling_mode="uniform", proj_penalty=1.0)
        state = make_state(store, hp, seed=1)
        basis = np.eye(5)
        state.params.entity_emb[:] = np.stack([basis[0], basis[0], basis[1], basis[2], basis[3]])
        state.params.relation_emb[0] = 0.0
        before = state.params.copy()
        loss = sgd_epoch(state, store, hp)
        # positive energy 0, any corruption energy 2 in the L1 norm
        assert loss == 0.0
        for field in PARAM_ARRAYS:
            np.testing.assert_array_equal(getattr(state.params, field), getattr(before, field))

    def test_entity_rows_unit_after_epoch(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=2)
        sgd_epoch(state, tiny_store, tiny_hp)
        norms = np.linalg.norm(state.params.entity_emb, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_non_finite_loss_aborts(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=3)
        state.params.entity_emb[0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            sgd_epoch(state, tiny_store, tiny_hp)

    def test_overflowing_step_raises_and_leaves_parameters(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=3)
        before = state.params.copy()
        # finite entries whose row norm overflows: dividing by it would
        # silently zero the row
        rows = np.zeros((2, tiny_hp.n))
        rows[1] = -1e307 / tiny_hp.lr
        grads = {"entity_emb": (np.array([2, 5]), rows)}
        with pytest.raises(TrainingError, match="entity row 5"):
            apply_gradients(state.params, tiny_hp, grads)
        np.testing.assert_array_equal(state.params.entity_emb, before.entity_emb)

    @pytest.mark.parametrize("field", ["entity_emb", "relation_emb", "concept_tensor"])
    def test_unscorable_parameters_raise_after_epoch(self, tiny_store, tiny_hp, field):
        """Rows of 1e30 give finite losses, but ranking and block scoring
        cannot take them, so the epoch raises and names the array."""
        hp = dataclasses.replace(tiny_hp, lr=0.0)  # no step renormalizes the entity row
        state = make_state(tiny_store, hp, seed=3)
        getattr(state.params, field)[1] = 1e30
        with pytest.raises(TrainingError, match=f"after epoch 1, {field} has a row of norm"):
            sgd_epoch(state, tiny_store, hp)

    def test_epoch_without_training_triples_checks_parameters(self, tiny_hp):
        from conceptkb.data import build_store

        store = build_store(np.zeros((0, 3), dtype=np.int64), n_entities=4, n_relations=2)
        state = make_state(store, tiny_hp, seed=3)
        assert sgd_epoch(state, store, tiny_hp) == 0.0
        state.params.relation_emb[1] = 1e30
        with pytest.raises(TrainingError, match="after epoch 2, relation_emb"):
            sgd_epoch(state, store, tiny_hp)

    def test_transe_does_not_check_unused_concepts(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, model="transe", m=1, k=1)
        state = make_state(tiny_store, hp, seed=3)
        state.params.concept_tensor[:] = np.nan
        assert np.isfinite(sgd_epoch(state, tiny_store, hp))

    def test_dense_l1_weights_stay_nonnegative(self, tiny_store):
        hp = Hyperparams(n=5, m=3, k=1, gamma=1.0, ell=2, lr=0.2, batch_size=4,
                         epochs=1, attention_mode="dense_l1", l1_coef=0.05,
                         sampling_mode="uniform")
        state = make_state(tiny_store, hp, seed=4)
        for _ in range(5):
            sgd_epoch(state, tiny_store, hp)
        assert (state.params.head_scores >= 0).all()
        assert (state.params.tail_scores >= 0).all()


class TestSingleMatrixCost:
    def test_relation_without_train_triples_costs_zero(self):
        from conceptkb.data import build_store

        hp = Hyperparams(n=4, m=3, k=1, epochs=1, block_budget=None)
        train = np.array([[0, 0, 1]], dtype=np.int64)
        store = build_store(train, n_entities=4, n_relations=2)  # relation 1 unseen
        params = init_params(4, 2, hp, seed=1)
        for i in range(hp.m):
            assert single_matrix_cost("head", 1, i, store, params, hp) == 0.0

    def test_m_equals_one_forces_concept_zero(self, tiny_store):
        hp = Hyperparams(n=5, m=1, k=1, gamma=1.0, epochs=1, block_budget=None)
        state = make_state(tiny_store, hp, seed=5)
        block_update(state.params, tiny_store, hp, seed=3)
        assert (state.params.head_assign[:, 0] == 1).all()
        assert state.params.head_assign.sum() == tiny_store.n_relations

    def test_matches_direct_summation(self, tiny_store, tiny_params, tiny_hp):
        from conceptkb.training import _block_pairs

        r, side, seed = 0, "head", 42
        sampler = DomainSampler(tiny_store, tiny_hp.domain_lambda)
        pos, neg = _block_pairs(tiny_store, r, side, tiny_hp, None, seed, sampler)
        expected = 0.0
        for p, n in zip(pos, neg):
            e_pos = single_matrix_energy(side, 2, int(p[0]), r, int(p[2]), tiny_params, tiny_hp)
            e_neg = single_matrix_energy(side, 2, int(n[0]), r, int(n[2]), tiny_params, tiny_hp)
            expected += max(tiny_hp.gamma + e_pos - e_neg, 0.0)
        got = single_matrix_cost(side, r, 2, tiny_store, tiny_params, tiny_hp, budget=None, seed=seed)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_budget_subsample_shared_across_concepts(self, tiny_store, tiny_params, tiny_hp):
        from conceptkb.training import _block_pairs

        sampler = DomainSampler(tiny_store, tiny_hp.domain_lambda)
        pos_a, neg_a = _block_pairs(tiny_store, 0, "head", tiny_hp, 2, 7, sampler)
        pos_b, neg_b = _block_pairs(tiny_store, 0, "head", tiny_hp, 2, 7, sampler)
        np.testing.assert_array_equal(pos_a, pos_b)
        np.testing.assert_array_equal(neg_a, neg_b)
        assert len(pos_a) == 2


def side_screen(store, r, side, params, hp, seed):
    """``training._side_costs`` with the float32 concepts and concept norms
    that ``block_update`` makes once per call."""
    import conceptkb.training as training

    norms = np.array([_matrix_norm(d, hp.ell) for d in params.concept_tensor])
    return training._side_costs(store, r, side, params, hp, seed,
                                training.DomainSampler(store, hp.domain_lambda),
                                params.concept_tensor.astype(np.float32), norms)


def one_relation_store(seed=3):
    """Relation 0 of a structured KB on its own: 80 training triples."""
    from conceptkb.data import build_store

    store = _synth.structured_kb(seed, n_entities=60, n_relations=4, per_rel=100, dim=6)
    return build_store(store.by_relation[0], n_entities=store.n_entities, n_relations=1)


def scalar_bottom_k(store, params, hp, seed, side="head", r=0):
    """The scalar oracle's support for one relation side, and its costs."""
    costs = [single_matrix_cost(side, r, i, store, params, hp, hp.block_budget, seed)
             for i in range(hp.m)]
    return np.sort(np.argsort(costs, kind="stable")[: hp.k]), np.array(costs)


@pytest.fixture
def rescored(monkeypatch):
    """The relation side of every ``rescore`` call, from :func:`side_screen`
    or :func:`block_update`."""
    import conceptkb.training as training

    calls = []
    real = training._side_costs

    def spying(store, r, side, *args):
        screened, delta, rescore = real(store, r, side, *args)

        def spy(ids):
            calls.append((r, side))
            return rescore(ids)

        return screened, delta, spy

    monkeypatch.setattr(training, "_side_costs", spying)
    return calls


class TestBlockUpdate:
    def test_bottom_k_selection(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=6)
        snapshot = state.params.copy()
        block_update(state.params, tiny_store, tiny_hp, seed=13)
        for r in tiny_store.by_relation:
            for side, assign in (("head", state.params.head_assign), ("tail", state.params.tail_assign)):
                costs = np.array([
                    single_matrix_cost(side, r, i, tiny_store, snapshot, tiny_hp, budget=None, seed=13)
                    for i in range(tiny_hp.m)
                ])
                expected = np.sort(np.argsort(costs, kind="stable")[: tiny_hp.k])
                np.testing.assert_array_equal(np.nonzero(assign[r])[0], expected)

    def test_popcount_feasible(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=7)
        for seed in range(5):
            block_update(state.params, tiny_store, tiny_hp, seed=seed)
            assert (state.params.head_assign.sum(axis=1) <= tiny_hp.k).all()
            assert (state.params.head_assign.sum(axis=1) >= 1).all()
            assert (state.params.tail_assign.sum(axis=1) <= tiny_hp.k).all()

    def test_domain_sampling_built_once_and_bottom_k(self, monkeypatch, tiny_store, tiny_hp):
        """The domain probabilities are computed once per update, and the
        pairs drawn with them are those the scalar cost oracle draws."""
        import conceptkb.training as training

        builds = []

        class Counting(training.DomainSampler):
            def __post_init__(self):
                builds.append(1)
                super().__post_init__()

        hp = dataclasses.replace(tiny_hp, sampling_mode="domain", domain_lambda=0.5)
        state = make_state(tiny_store, hp, seed=6)
        snapshot = state.params.copy()
        monkeypatch.setattr(training, "DomainSampler", Counting)
        block_update(state.params, tiny_store, hp, seed=13)
        assert len(builds) == 1
        monkeypatch.undo()
        for r in tiny_store.by_relation:
            for side, assign in (("head", state.params.head_assign), ("tail", state.params.tail_assign)):
                costs = [single_matrix_cost(side, r, i, tiny_store, snapshot, hp, budget=None, seed=13)
                         for i in range(hp.m)]
                expected = np.sort(np.argsort(costs, kind="stable")[: hp.k])
                np.testing.assert_array_equal(np.nonzero(assign[r])[0], expected)

    def test_tie_breaks_to_lower_index(self, tiny_store):
        # identity concepts with zero noise: all single-matrix costs equal
        hp = Hyperparams(n=5, m=4, k=2, gamma=1.0, epochs=1, init_noise_sd=0.0,
                         block_budget=None, sampling_mode="uniform")
        state = make_state(tiny_store, hp, seed=8)
        block_update(state.params, tiny_store, hp, seed=21)
        for r in tiny_store.by_relation:
            assert np.nonzero(state.params.head_assign[r])[0].tolist() == [0, 1]
            assert np.nonzero(state.params.tail_assign[r])[0].tolist() == [0, 1]

    @pytest.mark.parametrize("ell, sampling, budget, gather_cost", [
        pytest.param(ell, sampling, budget, cost, id=f"{ell}-{sampling}-{budget}{suffix}")
        for ell in (1, 2) for sampling in ("uniform", "bernoulli", "domain") for budget in (None, 2)
        for cost, suffix in ((np.inf, ""), (0, "-table"))])
    def test_chunked_costs_match_scalar_oracle(self, monkeypatch, tiny_store, ell, sampling, budget,
                                               gather_cost):
        """Every concept's float32 screen is within its bound of the float64
        re-score, and the re-score equals the scalar cost to 1e-12, with m = 5
        split into concept chunks of 2, 2 and 1, on both screen paths: each
        pass projecting its own rows, or a table of the side's distinct
        entities gathered per pass."""
        import conceptkb.training as training

        monkeypatch.setattr(training, "BLOCK_GATHER_COST", gather_cost)
        hp = Hyperparams(n=5, m=5, k=2, gamma=1.0, tau=0.5, ell=ell, epochs=1,
                         init_noise_sd=0.3, sampling_mode=sampling, domain_lambda=0.5,
                         block_budget=budget)
        params = make_state(tiny_store, hp, seed=9).params
        rng = np.random.default_rng(17)
        params.head_scores[:] = rng.normal(size=params.head_scores.shape)
        params.tail_scores[:] = rng.normal(size=params.tail_scores.shape)
        sampler = DomainSampler(tiny_store, hp.domain_lambda)
        for r in tiny_store.by_relation:
            for side in ("head", "tail"):
                pos, neg = training._block_pairs(tiny_store, r, side, hp, budget, 31, sampler)
                var = 0 if side == "head" else 2
                table = len(np.unique(np.r_[pos[:, var], neg[:, var]])) if gather_cost == 0 else 0
                # room for two concepts' float32 (pairs + table, n) blocks, not three
                monkeypatch.setattr(training, "BLOCK_CHUNK_BYTES", 4 * (len(pos) + table) * hp.n * 2 + 3)
                screened, delta, rescore = side_screen(tiny_store, r, side, params, hp, 31)
                got = rescore(np.arange(hp.m))
                assert (np.abs(screened - got) <= delta).all()
                want = [single_matrix_cost(side, r, i, tiny_store, params, hp, budget, 31)
                        for i in range(hp.m)]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_reports_changed_sides(self, tiny_store, tiny_hp):
        state = make_state(tiny_store, tiny_hp, seed=6)
        for seed in range(4):
            before = state.params.head_assign.copy(), state.params.tail_assign.copy()
            changed = block_update(state.params, tiny_store, tiny_hp, seed=seed)
            after = state.params.head_assign, state.params.tail_assign
            assert changed == sum(int((a != b).any(axis=1).sum()) for a, b in zip(before, after))

    def test_repeat_with_same_params_and_seed_changes_nothing(self, tiny_store):
        # identity concepts: costs do not depend on the supports, so the
        # first update reaches the fixed point
        hp = Hyperparams(n=5, m=4, k=2, gamma=1.0, epochs=1, init_noise_sd=0.0,
                         block_budget=None, sampling_mode="uniform")
        state = make_state(tiny_store, hp, seed=8)
        assert block_update(state.params, tiny_store, hp, seed=21) > 0
        assert block_update(state.params, tiny_store, hp, seed=21) == 0


class TestBlockWorkers:
    """Relation sides scored on worker threads give the serial update."""

    @pytest.mark.parametrize("budget", [None, 2])
    def test_supports_do_not_depend_on_workers(self, budget):
        """Four updates in a row on 1, 2 and 3 threads, with the interpreter
        switching threads every microsecond."""
        import sys

        store = _synth.structured_kb(4, n_entities=80, n_relations=6, per_rel=60, dim=6)
        hp = Hyperparams(n=8, m=7, k=2, gamma=1.0, epochs=1, init_noise_sd=0.5,
                         sampling_mode="domain", domain_lambda=0.5, block_budget=budget)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                params = make_state(store, hp, seed=3).params
                trace = []
                for seed in range(4):
                    changed = block_update(params, store, hp, seed=seed, workers=workers)
                    trace.append((changed, params.head_assign.copy(), params.tail_assign.copy()))
                runs.append(trace)
        finally:
            sys.setswitchinterval(interval)
        assert sum(changed for changed, _, _ in runs[0]) > 0
        for trace in runs[1:]:
            for (changed, head, tail), (changed1, head1, tail1) in zip(trace, runs[0]):
                assert changed == changed1
                np.testing.assert_array_equal(head, head1)
                np.testing.assert_array_equal(tail, tail1)

    @pytest.mark.parametrize("field, row, named", [
        ("concept_tensor", 2, "relation 0 head"),
        ("relation_emb", 1, "relation 1 head"),
    ], ids=["nan-concept", "inf-offset-of-relation-1"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_names_first_failing_side(self, tiny_store, tiny_hp, field, row, named):
        """On two threads the error still names the first failing side in
        relation order, and no support changes."""
        state = make_state(tiny_store, tiny_hp, seed=6)
        getattr(state.params, field)[row] = np.nan if field == "concept_tensor" else np.inf
        before = state.params.head_assign.copy(), state.params.tail_assign.copy()
        with pytest.raises(TrainingError, match=f"^{named}: "):
            block_update(state.params, tiny_store, tiny_hp, seed=13, workers=2)
        np.testing.assert_array_equal(state.params.head_assign, before[0])
        np.testing.assert_array_equal(state.params.tail_assign, before[1])


class TestBlockScreen:
    """The float32 screen of block scoring and the float64 decision."""

    @pytest.mark.parametrize("ell, sampling, entities, path", [
        pytest.param(ell, sampling, entities, path,
                     id=f"{ell}-{sampling}{'-repeating' if entities == 16 else ''}"
                        f"{'' if path == 'per-pass' else '-' + path}")
        for ell in (1, 2) for sampling in ("uniform", "bernoulli", "domain")
        for entities in (80, 16) for path in ("per-pass", "table", "rule")])
    def test_screen_within_bound(self, monkeypatch, ell, sampling, entities, path):
        """Each screened cost is within its bound of the float64 re-score,
        and the support is the stable bottom-k of the re-scored costs, with
        every side's m = 9 split into chunks of one to five concepts.

        ``path`` forces every side to project each pass's own rows, or to
        gather them from a table of its distinct scored entities, or sets
        the gather cost to n/2, so that the rule tables a side whose
        distinct entities are at most half its 2B pair rows.  On 16 entities
        they are 10-41% of each side's rows, on 80 entities 28-63%, so there
        the rule takes both paths."""
        import conceptkb.training as training

        monkeypatch.setattr(training, "BLOCK_CHUNK_BYTES", 2**12)
        cost = {"per-pass": np.inf, "table": 0, "rule": 6}[path]
        monkeypatch.setattr(training, "BLOCK_GATHER_COST", cost)
        gathers = []
        take = np.take

        def spy(*args, **kw):
            gathers.append(kw.get("mode") == "clip")
            return take(*args, **kw)

        monkeypatch.setattr(np, "take", spy)
        store = _synth.structured_kb(4, n_entities=entities, n_relations=4, per_rel=100, dim=6)
        hp = Hyperparams(n=12, m=9, k=2, gamma=1.0, ell=ell, epochs=1, init_noise_sd=0.5,
                         sampling_mode=sampling, domain_lambda=0.5, block_budget=None)
        params = make_state(store, hp, seed=2).params
        params.entity_emb *= 3.0  # the bound takes the real row norms
        snapshot = params.copy()
        block_update(params, store, hp, seed=5)
        tabled = set()
        for r in store.by_relation:
            for side, assign in (("head", params.head_assign), ("tail", params.tail_assign)):
                gathers.clear()
                screened, delta, rescore = side_screen(store, r, side, snapshot, hp, 5)
                tabled.add(any(gathers))
                costs = rescore(np.arange(hp.m))
                assert (np.abs(screened - costs) <= delta).all()
                assert (delta < 1e-3 * costs.max()).all()
                expected = np.sort(np.argsort(costs, kind="stable")[: hp.k])
                np.testing.assert_array_equal(np.flatnonzero(assign[r]), expected)
        want = {"per-pass": {False}, "table": {True}}.get(path, {True} if entities == 16 else {False, True})
        assert tabled == want

    @pytest.mark.parametrize("ell", [1, 2])
    def test_band_of_k_is_not_rescored(self, rescored, ell):
        """Where the k-th and (k+1)-th smallest float64 costs lie more than
        5 max Δ apart, each side's band holds exactly its bottom-k: nothing
        is re-scored, and the support is the float64 bottom-k of all m."""
        store = one_relation_store()
        hp = Hyperparams(n=12, m=9, k=2, gamma=1.0, ell=ell, epochs=1, init_noise_sd=0.5,
                         sampling_mode="bernoulli", block_budget=None)
        params = make_state(store, hp, seed=2).params
        snapshot = params.copy()
        expected = {}
        for side in ("head", "tail"):
            _, delta, rescore = side_screen(store, 0, side, snapshot, hp, 5)
            costs = rescore(np.arange(hp.m))
            low = np.sort(costs)
            assert low[hp.k] - low[hp.k - 1] > 5 * delta.max()
            expected[side] = np.sort(np.argsort(costs, kind="stable")[: hp.k])
        rescored.clear()
        block_update(params, store, hp, seed=5)
        assert rescored == []
        np.testing.assert_array_equal(np.flatnonzero(params.head_assign[0]), expected["head"])
        np.testing.assert_array_equal(np.flatnonzero(params.tail_assign[0]), expected["tail"])

    @pytest.mark.parametrize("ell", [1, 2])
    def test_twin_concepts_tie_to_lower_index(self, monkeypatch, rescored, ell):
        """Exact copies of the head side's cheapest concept at indices 1 and 4,
        screened in a chunk of two and a chunk of one, tie bitwise in the
        float64 re-score, and the lower index wins.  The band holds both, one
        more than k, so the update re-scores it."""
        import conceptkb.training as training

        store = one_relation_store()
        hp = Hyperparams(n=50, m=5, k=1, gamma=1.0, ell=ell, epochs=1, init_noise_sd=0.4,
                         sampling_mode="uniform", block_budget=None)
        params = make_state(store, hp, seed=6).params
        # the head side's costs project tails through concept 2 alone, so
        # moving the other concepts leaves those costs as they are
        params.tail_assign[0] = np.eye(hp.m, dtype=params.tail_assign.dtype)[2]
        _, costs = scalar_bottom_k(store, params, hp, seed=8)
        best = int(np.argmin(costs))
        D = params.concept_tensor
        if best != 2:
            D[[1, best]] = D[[best, 1]]
        D[[1, 4]] = D[best if best == 2 else 1]
        pairs = len(store.train)
        monkeypatch.setattr(training, "BLOCK_CHUNK_BYTES", 4 * pairs * hp.n * 2 + 3)
        screened, delta, rescore = side_screen(store, 0, "head", params, hp, 8)
        # a concept's re-score does not depend on which others share the call
        twin = rescore([1])[0]
        for ids in ([4], [4, 1], [1, 4], [0, 1, 2, 3, 4], [3, 4, 0, 1]):
            got = rescore(ids)
            assert all(c == twin for c, i in zip(got, ids) if i in (1, 4))
        assert (rescore([0, 2, 3]) >= twin).all()
        rescored.clear()
        block_update(params, store, hp, seed=8)
        assert (0, "head") in rescored
        assert np.flatnonzero(params.head_assign[0]).tolist() == [1]

    @pytest.mark.parametrize("ell", [1, 2])
    def test_near_ties_decided_as_scalar_oracle(self, ell):
        """The cheapest concept and copies scaled by 1 ± 2⁻⁴⁴ differ far below
        the screen's bound; the support is the scalar oracle's bottom-k."""
        store = one_relation_store()
        hp = Hyperparams(n=16, m=6, k=2, gamma=1.0, ell=ell, epochs=1, init_noise_sd=0.4,
                         sampling_mode="bernoulli", block_budget=None)
        params = make_state(store, hp, seed=7).params
        _, costs = scalar_bottom_k(store, params, hp, seed=9)
        best = int(np.argmin(costs))
        source = params.concept_tensor[best].copy()
        for i, scale in ((1, 1 + 2.0**-44), (3, 1.0), (4, 1 - 2.0**-44)):
            params.concept_tensor[i] = source * scale
        expected, costs = scalar_bottom_k(store, params, hp, seed=9)
        near = costs[[1, 3, 4]]
        assert len(set(near.tolist())) == 3  # distinct, so the order is at stake
        assert set(expected.tolist()) < {1, 3, 4, best}  # the k-th cost is one of them
        screened, delta, _ = side_screen(store, 0, "head", params, hp, 9)
        assert np.ptp(near) < 1e-6 * delta[1]
        block_update(params, store, hp, seed=9)
        np.testing.assert_array_equal(np.flatnonzero(params.head_assign[0]), expected)
        tail_expected, _ = scalar_bottom_k(store, params, hp, seed=9, side="tail")
        np.testing.assert_array_equal(np.flatnonzero(params.tail_assign[0]), tail_expected)

    @pytest.mark.parametrize("field, row, value", [
        ("concept_tensor", 2, np.nan),
        ("concept_tensor", 3, 1e30),
        ("entity_emb", slice(None), np.nan),
        ("entity_emb", 0, np.inf),
        ("relation_emb", 0, np.inf),
    ], ids=["nan-concept", "huge-concept", "nan-entities", "inf-entity", "inf-offset"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unscorable_parameters_raise(self, tiny_store, tiny_hp, field, row, value):
        """NaN concepts used to be never chosen and all-NaN entity rows gave
        supports [0, 1]; now the update raises and changes no support."""
        state = make_state(tiny_store, tiny_hp, seed=6)
        getattr(state.params, field)[row] = value
        before = state.params.head_assign.copy(), state.params.tail_assign.copy()
        with pytest.raises(TrainingError, match=r"relation 0 head: .* not finite or too large"):
            block_update(state.params, tiny_store, tiny_hp, seed=13)
        np.testing.assert_array_equal(state.params.head_assign, before[0])
        np.testing.assert_array_equal(state.params.tail_assign, before[1])


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=0)
        params, history = train(tiny_store, hp, seed=9)
        expected = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=9)
        np.testing.assert_array_equal(params.entity_emb, expected.entity_emb)
        assert history["epochs"] == []

    def test_block_stop_zero_freezes_assignments(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=4, block_stop=0)
        init = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=10)
        params, history = train(tiny_store, hp, seed=10)
        np.testing.assert_array_equal(params.head_assign, init.head_assign)
        np.testing.assert_array_equal(params.tail_assign, init.tail_assign)
        assert history["block_updates"] == []

    def test_deterministic_given_seed(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=4)
        a, hist_a = train(tiny_store, hp, seed=11)
        b, hist_b = train(tiny_store, hp, seed=11)
        for field in PARAM_ARRAYS + ("head_assign", "tail_assign"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert [e["loss"] for e in hist_a["epochs"]] == [e["loss"] for e in hist_b["epochs"]]

    def test_history_and_block_schedule(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=6, block_every=2, block_stop=4)
        params, history = train(tiny_store, hp, seed=12)
        assert [e["epoch"] for e in history["epochs"]] == [1, 2, 3, 4, 5, 6]
        assert [b["epoch"] for b in history["block_updates"]] == [2, 4]
        for record in history["block_updates"]:
            assert 0 <= record["changed_sides"] <= 2 * tiny_store.n_relations
            assert record["seconds"] > 0

    def test_block_every_zero_records_no_updates(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=3, block_every=0)
        init = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=12)
        params, history = train(tiny_store, hp, seed=12)
        assert history["block_updates"] == []
        np.testing.assert_array_equal(params.head_assign, init.head_assign)

    def test_eval_recorded_and_early_stop(self, tiny_store, tiny_hp):
        hp = dataclasses.replace(tiny_hp, epochs=30, lr=0.0)
        params, history = train(tiny_store, hp, seed=13, eval_split=tiny_store.valid,
                                eval_every=2, early_stop_patience=6)
        assert history["evals"]
        assert history["stopped_epoch"] is not None
        assert history["stopped_epoch"] <= 10

    def test_stranse_model_trains_with_fixed_assignments(self, tiny_store):
        hp = Hyperparams(n=5, m=2 * tiny_store.n_relations, k=1, gamma=1.0, ell=1,
                         lr=0.05, batch_size=4, epochs=3, model="stranse",
                         init_noise_sd=0.1, sampling_mode="uniform")
        from conceptkb.model import stranse_assignments

        params, history = train(tiny_store, hp, seed=14)
        head, tail = stranse_assignments(tiny_store.n_relations, hp.m)
        np.testing.assert_array_equal(params.head_assign, head)
        np.testing.assert_array_equal(params.tail_assign, tail)

    def test_loss_decreases_on_learnable_kb(self):
        store = _synth.structured_kb(3, n_entities=60, n_relations=4, per_rel=60, dim=6)
        hp = Hyperparams(n=6, m=3, k=1, gamma=1.0, ell=2, lr=0.05, batch_size=16,
                         epochs=15, block_every=5, block_stop=10, init_noise_sd=0.05,
                         sampling_mode="bernoulli")
        params, history = train(store, hp, seed=15)
        first = np.mean([e["loss"] for e in history["epochs"][:3]])
        last = np.mean([e["loss"] for e in history["epochs"][-3:]])
        assert last < first
