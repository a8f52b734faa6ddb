import numpy as np
import pytest

import _synth
from conceptkb.model import Hyperparams, init_params
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


def dense_gradients(params, grads):
    """Expand the sparse per-id gradient structure to full arrays."""
    out = {
        "entity_emb": np.zeros_like(params.entity_emb),
        "relation_emb": np.zeros_like(params.relation_emb),
        "concept_tensor": np.zeros_like(params.concept_tensor),
        "head_scores": np.zeros_like(params.head_scores),
        "tail_scores": np.zeros_like(params.tail_scores),
    }
    ids, acc = grads["entity"]
    out["entity_emb"][ids] = acc
    ids, acc = grads["relation"]
    out["relation_emb"][ids] = acc
    for i, g in grads["concept"].items():
        out["concept_tensor"][i] = g
    for r, g in grads["head_scores"].items():
        out["head_scores"][r] = g
    for r, g in grads["tail_scores"].items():
        out["tail_scores"][r] = g
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


def kink_distance(params, hp, pos, neg):
    """Smallest distance to a nondifferentiable point across the batch."""
    from conceptkb.training import _forward

    fw = _forward(params, hp, pos, neg)
    margins = hp.gamma + fw["e_pos"] - fw["e_neg"]
    dist = np.abs(margins).min()
    if hp.ell == 1:
        dist = min(dist, np.abs(fw["u_pos"]).min(), np.abs(fw["u_neg"]).min())
    if hp.proj_penalty > 0 and hp.model != "transe":
        slack_h = (fw["ph"] * fw["ph"]).sum(axis=1) - 1.0
        slack_t = (fw["pt"] * fw["pt"]).sum(axis=1) - 1.0
        dist = min(dist, np.abs(slack_h).min(), np.abs(slack_t).min())
    return float(dist)


PARAM_ARRAYS = ("entity_emb", "relation_emb", "concept_tensor", "head_scores", "tail_scores")


class TestGradientOracle:
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("penalty", [0.0, 1.0])
    def test_matches_central_differences(self, ell, penalty):
        hp = Hyperparams(n=4, m=5, k=2, gamma=1.0, tau=0.5, ell=ell, epochs=1,
                         proj_penalty=penalty, init_noise_sd=0.4)
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

    def test_transe_gradients(self):
        hp = Hyperparams(n=4, m=1, k=1, gamma=1.0, ell=2, epochs=1, model="transe")
        params, pos, neg = make_fd_instance(11, hp)
        loss, grads = batch_gradients(params, hp, pos, neg)
        analytic = dense_gradients(params, grads)
        for arr_name in ("entity_emb", "relation_emb"):
            fd = finite_difference(params, hp, pos, neg, arr_name)
            denom = np.maximum(1e-6, np.maximum(np.abs(analytic[arr_name]), np.abs(fd)))
            assert (np.abs(analytic[arr_name] - fd) / denom).max() < 1e-4


class TestSgdEpoch:
    def test_zero_lr_keeps_parameters(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(lr=0.0)
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
        grads = {
            "entity": (np.array([2, 5]), rows),
            "relation": (np.zeros(0, dtype=np.int64), np.zeros((0, tiny_hp.n))),
            "concept": {}, "head_scores": {}, "tail_scores": {},
        }
        with pytest.raises(TrainingError, match="entity row 5"):
            apply_gradients(state.params, tiny_hp, grads)
        np.testing.assert_array_equal(state.params.entity_emb, before.entity_emb)

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
        pos, neg = _block_pairs(tiny_store, r, side, tiny_hp, None, seed)
        expected = 0.0
        for p, n in zip(pos, neg):
            e_pos = single_matrix_energy(side, 2, int(p[0]), r, int(p[2]), tiny_params, tiny_hp)
            e_neg = single_matrix_energy(side, 2, int(n[0]), r, int(n[2]), tiny_params, tiny_hp)
            expected += max(tiny_hp.gamma + e_pos - e_neg, 0.0)
        got = single_matrix_cost(side, r, 2, tiny_store, tiny_params, tiny_hp, budget=None, seed=seed)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_budget_subsample_shared_across_concepts(self, tiny_store, tiny_params, tiny_hp):
        from conceptkb.training import _block_pairs

        pos_a, neg_a = _block_pairs(tiny_store, 0, "head", tiny_hp, 2, 7)
        pos_b, neg_b = _block_pairs(tiny_store, 0, "head", tiny_hp, 2, 7)
        np.testing.assert_array_equal(pos_a, pos_b)
        np.testing.assert_array_equal(neg_a, neg_b)
        assert len(pos_a) == 2


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

        hp = tiny_hp.with_updates(sampling_mode="domain", domain_lambda=0.5)
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


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(epochs=0)
        params, history = train(tiny_store, hp, seed=9)
        expected = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=9)
        np.testing.assert_array_equal(params.entity_emb, expected.entity_emb)
        assert history["epochs"] == []

    def test_block_stop_zero_freezes_assignments(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(epochs=4, block_stop=0)
        init = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=10)
        params, history = train(tiny_store, hp, seed=10)
        np.testing.assert_array_equal(params.head_assign, init.head_assign)
        np.testing.assert_array_equal(params.tail_assign, init.tail_assign)
        assert history["block_updates"] == []

    def test_deterministic_given_seed(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(epochs=4)
        a, hist_a = train(tiny_store, hp, seed=11)
        b, hist_b = train(tiny_store, hp, seed=11)
        for field in PARAM_ARRAYS + ("head_assign", "tail_assign"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert [e["loss"] for e in hist_a["epochs"]] == [e["loss"] for e in hist_b["epochs"]]

    def test_history_and_block_schedule(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(epochs=6, block_every=2, block_stop=4)
        params, history = train(tiny_store, hp, seed=12)
        assert [e["epoch"] for e in history["epochs"]] == [1, 2, 3, 4, 5, 6]
        assert [b["epoch"] for b in history["block_updates"]] == [2, 4]

    def test_eval_recorded_and_early_stop(self, tiny_store, tiny_hp):
        hp = tiny_hp.with_updates(epochs=30, lr=0.0)
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
