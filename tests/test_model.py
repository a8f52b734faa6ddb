import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import energy_itransf, energy_stranse, energy_transe
from conceptkb.model import (
    SIDE_HEAD,
    SIDE_TAIL,
    Hyperparams,
    InitError,
    attention,
    attention_vector,
    init_params,
    project,
    projections,
    single_matrix_energy,
    sparse_softmax,
    stranse_assignments,
    supports,
)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(k=5, m=4)
        with pytest.raises(ValueError):
            Hyperparams(tau=0.0)
        with pytest.raises(ValueError):
            Hyperparams(gamma=-1)
        with pytest.raises(ValueError):
            Hyperparams(ell=3)
        with pytest.raises(ValueError):
            Hyperparams(attention_mode="soft")

    def test_round_trip(self):
        hp = Hyperparams(n=7, m=3, k=1, block_stop=9)
        assert Hyperparams(**dataclasses.asdict(hp)) == hp

    def test_block_stop_default_half(self):
        assert Hyperparams(epochs=100).effective_block_stop() == 50
        assert Hyperparams(epochs=100, block_stop=7).effective_block_stop() == 7


class TestSparseSoftmax:
    def test_one_hot_support(self):
        v = np.array([5.0, -2.0, 0.3, 9.0])
        out = sparse_softmax(v, np.array([0, 0, 0, 1]), 0.7)
        assert out.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_uniform_when_scores_equal(self):
        out = sparse_softmax(np.zeros(4), np.ones(4), 1.0)
        np.testing.assert_allclose(out, 0.25)

    def test_closed_form_value(self):
        out = sparse_softmax(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), 1.0)
        np.testing.assert_allclose(out[0], 0.11920292202211757, atol=1e-15)
        assert out[1] == 0.0
        np.testing.assert_allclose(out[2], 0.8807970779778825, atol=1e-15)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            sparse_softmax(np.ones(3), np.zeros(3), 1.0)

    def test_huge_scores_stable(self):
        out = sparse_softmax(np.array([1e4, 1e4 + 1.0]), np.ones(2), 1.0)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0)

    @given(
        v=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        tau=st.floats(0.2, 10.0),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_simplex_support_and_shift_invariance(self, v, tau, data):
        # tau >= 0.2 keeps (v_i - max)/tau above the exp underflow threshold,
        # so the mathematical support property is exact in float64 too
        m = len(v)
        v = np.array(v)
        support_size = data.draw(st.integers(1, m))
        idx = data.draw(st.permutations(range(m)))
        support = np.zeros(m, dtype=int)
        support[list(idx[:support_size])] = 1

        out = sparse_softmax(v, support, tau)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()
        np.testing.assert_array_equal(out != 0, support.astype(bool))
        shifted = sparse_softmax(v + 3.7, support, tau)
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_underflow_keeps_simplex_and_off_support_zeros(self):
        # dominated active entries may underflow to exactly 0; the simplex
        # sum and the off-support zeros still hold
        out = sparse_softmax(np.array([0.0, 2000.0, 5.0]), np.array([1, 1, 0]), 0.5)
        assert out.tolist() == [0.0, 1.0, 0.0]


class TestProject:
    def test_one_hot_degenerates_to_slice(self):
        rng = np.random.default_rng(0)
        D = rng.normal(size=(3, 4, 4))
        e = rng.normal(size=4)
        alpha = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(project(alpha, D, e), D[1] @ e)

    def test_identity_mixture(self):
        D = np.stack([np.eye(4)] * 3)
        e = np.arange(4.0)
        np.testing.assert_allclose(project(np.array([0.2, 0.5, 0.3]), D, e), e)

    def test_hand_case(self):
        D = np.stack([np.eye(2), 2 * np.eye(2)])
        out = project(np.array([0.5, 0.5]), D, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.5, 0.0])


class TestEnergies:
    def test_transe_exact_translation(self, tiny_hp):
        params = init_params(3, 1, dataclasses.replace(tiny_hp, n=2), seed=0)
        params.entity_emb[0] = [1.0, 0.0]
        params.relation_emb[0] = [0.0, 1.0]
        params.entity_emb[1] = [1.0, 1.0]
        hp = dataclasses.replace(tiny_hp, n=2, ell=2)
        assert energy_transe(0, 0, 1, params, hp) == 0.0

    def test_transe_l1_unit_offset(self, tiny_hp):
        params = init_params(3, 1, dataclasses.replace(tiny_hp, n=2), seed=0)
        params.entity_emb[0] = [1.0, 0.0]
        params.relation_emb[0] = [0.0, 0.0]
        params.entity_emb[1] = [0.0, 0.0]
        assert energy_transe(0, 0, 1, params, dataclasses.replace(tiny_hp, n=2, ell=1)) == 1.0

    def test_transe_l2_hand_norm(self, tiny_hp):
        params = init_params(3, 1, dataclasses.replace(tiny_hp, n=2), seed=0)
        params.entity_emb[0] = [0.6, 0.8]
        params.relation_emb[0] = [0.0, 0.0]
        params.entity_emb[1] = [0.0, 0.0]
        assert energy_transe(0, 0, 1, params, dataclasses.replace(tiny_hp, n=2, ell=2)) == pytest.approx(1.0)

    def test_identity_concepts_translation_satisfied(self):
        hp = Hyperparams(n=3, m=2, k=1, init_noise_sd=0.0, epochs=1)
        params = init_params(4, 2, hp, seed=1)
        params.entity_emb[0] = [0.5, 0.0, 0.0]
        params.relation_emb[1] = [0.0, 0.25, 0.0]
        params.entity_emb[2] = [0.5, 0.25, 0.0]
        assert energy_itransf(0, 1, 2, params, hp) == pytest.approx(0.0, abs=1e-15)

    def test_dense_materialization_oracle(self, tiny_store, tiny_params, tiny_hp):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h, t = rng.integers(tiny_store.n_entities, size=2)
            r = rng.integers(tiny_store.n_relations)
            # oracle: materialize the full convex combination, all m slices
            ah = attention_vector(tiny_params, tiny_hp, r, "head")
            at = attention_vector(tiny_params, tiny_hp, r, "tail")
            wh = np.einsum("i,ijk->jk", ah, tiny_params.concept_tensor)
            wt = np.einsum("i,ijk->jk", at, tiny_params.concept_tensor)
            u = wh @ tiny_params.entity_emb[h] + tiny_params.relation_emb[r] - wt @ tiny_params.entity_emb[t]
            expected = np.abs(u).sum()
            assert energy_itransf(h, r, t, tiny_params, tiny_hp) == pytest.approx(expected, abs=1e-10)

    def test_stranse_identity_matrices_reduce_to_transe(self):
        hp = Hyperparams(n=4, m=6, k=1, init_noise_sd=0.0, epochs=1, model="stranse")
        params = init_params(5, 3, hp, seed=2)
        for h in range(5):
            for r in range(3):
                for t in range(5):
                    assert energy_stranse(h, r, t, params, hp) == pytest.approx(
                        energy_transe(h, r, t, params, hp), abs=1e-12
                    )

    def test_stranse_zero_matrix_annihilates(self):
        hp = Hyperparams(n=3, m=4, k=1, init_noise_sd=0.0, epochs=1, model="stranse")
        params = init_params(4, 2, hp, seed=3)
        params.concept_tensor[2] = 0.0  # head matrix of relation 1
        params.relation_emb[1] = 0.0
        params.concept_tensor[3] = 0.0  # tail matrix of relation 1
        assert energy_stranse(0, 1, 1, params, hp) == 0.0

    def test_stranse_hand_2x2(self):
        hp = Hyperparams(n=2, m=4, k=1, init_noise_sd=0.0, epochs=1, ell=1, model="stranse")
        params = init_params(3, 2, hp, seed=4)
        params.concept_tensor[0] = [[1.0, 2.0], [0.0, 1.0]]
        params.concept_tensor[1] = [[0.5, 0.0], [1.0, 1.0]]
        params.entity_emb[0] = [1.0, 1.0]
        params.entity_emb[1] = [2.0, 0.0]
        params.relation_emb[0] = [0.5, -0.5]
        # W1 h = (3, 1); W2 t = (1, 2); u = (3+.5-1, 1-.5-2) = (2.5, -1.5)
        assert energy_stranse(0, 0, 1, params, hp) == pytest.approx(4.0, abs=1e-12)

    def test_stranse_embedding_property(self):
        """One-hot disjoint supports make the shared-concept energy coincide
        with the two-matrix baseline on all inputs."""
        rng = np.random.default_rng(5)
        R, n = 3, 4
        hp = Hyperparams(n=n, m=2 * R, k=1, init_noise_sd=0.4, epochs=1, ell=1, model="stranse")
        params = init_params(8, R, hp, seed=6)
        params.head_scores[:] = rng.normal(size=params.head_scores.shape)
        params.tail_scores[:] = rng.normal(size=params.tail_scores.shape)
        for _ in range(200):
            h, t = rng.integers(8, size=2)
            r = int(rng.integers(R))
            assert energy_itransf(h, r, t, params, hp) == pytest.approx(
                energy_stranse(h, r, t, params, hp), abs=1e-12
            )

    def test_transe_embedding_property(self):
        rng = np.random.default_rng(6)
        hp = Hyperparams(n=4, m=5, k=3, init_noise_sd=0.0, epochs=1, ell=2)
        params = init_params(8, 3, hp, seed=7)
        params.head_scores[:] = rng.normal(size=params.head_scores.shape)
        params.tail_scores[:] = rng.normal(size=params.tail_scores.shape)
        for _ in range(200):
            h, t = rng.integers(8, size=2)
            r = int(rng.integers(3))
            assert energy_itransf(h, r, t, params, hp) == pytest.approx(
                energy_transe(h, r, t, params, hp), abs=1e-12
            )


class TestSingleMatrixEnergy:
    def test_one_hot_attention_consistency(self, tiny_params, tiny_hp):
        params = tiny_params.copy()
        params.head_assign[1] = 0
        params.head_assign[1, 2] = 1  # one-hot at concept 2
        got = single_matrix_energy("head", 2, 0, 1, 3, params, tiny_hp)
        assert got == pytest.approx(energy_itransf(0, 1, 3, params, tiny_hp), abs=1e-12)

    def test_identity_concepts_reduce_to_transe(self):
        hp = Hyperparams(n=4, m=3, k=2, init_noise_sd=0.0, epochs=1)
        params = init_params(5, 2, hp, seed=8)
        for i in range(3):
            assert single_matrix_energy("head", i, 0, 1, 2, params, hp) == pytest.approx(
                energy_transe(0, 1, 2, params, hp), abs=1e-12
            )

    def test_matches_materialized_oracle(self, tiny_params, tiny_hp):
        D = tiny_params.concept_tensor
        at = attention_vector(tiny_params, tiny_hp, 2, "tail")
        wt = np.einsum("i,ijk->jk", at, D)
        i = 3
        u = D[i] @ tiny_params.entity_emb[4] + tiny_params.relation_emb[2] - wt @ tiny_params.entity_emb[6]
        assert single_matrix_energy("head", i, 4, 2, 6, tiny_params, tiny_hp) == pytest.approx(
            np.abs(u).sum(), abs=1e-10
        )


class TestInitParams:
    def test_zero_noise_gives_identity(self):
        hp = Hyperparams(n=6, m=3, k=1, init_noise_sd=0.0, epochs=1)
        params = init_params(4, 2, hp, seed=0)
        for i in range(3):
            np.testing.assert_array_equal(params.concept_tensor[i], np.eye(6))

    def test_same_seed_bitwise_identical(self):
        hp = Hyperparams(n=5, m=4, k=2, epochs=1)
        a = init_params(9, 3, hp, seed=42)
        b = init_params(9, 3, hp, seed=42)
        for field in ("entity_emb", "relation_emb", "concept_tensor",
                      "head_scores", "tail_scores", "head_assign", "tail_assign"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_warm_start_copies_after_renormalization(self):
        hp = Hyperparams(n=5, m=4, k=2, epochs=1)
        donor = init_params(9, 3, hp, seed=1)
        donor.entity_emb *= 1.7  # de-normalize to exercise the renorm path
        got = init_params(9, 3, hp, seed=2, warm_start=donor)
        expected = donor.entity_emb / np.linalg.norm(donor.entity_emb, axis=1, keepdims=True)
        np.testing.assert_array_equal(got.entity_emb, expected)
        np.testing.assert_array_equal(got.relation_emb, donor.relation_emb)

    def test_warm_start_shape_mismatch(self):
        hp = Hyperparams(n=5, m=4, k=2, epochs=1)
        donor = init_params(9, 3, hp, seed=1)
        with pytest.raises(InitError):
            init_params(9, 3, dataclasses.replace(hp, n=6), seed=2, warm_start=donor)

    def test_unit_entity_rows(self):
        hp = Hyperparams(n=8, m=2, k=1, epochs=1)
        params = init_params(30, 4, hp, seed=3)
        np.testing.assert_allclose(np.linalg.norm(params.entity_emb, axis=1), 1.0, atol=1e-12)

    def test_assignments_exactly_k_hot(self):
        hp = Hyperparams(n=4, m=9, k=3, epochs=1)
        params = init_params(5, 6, hp, seed=4)
        assert (params.head_assign.sum(axis=1) == 3).all()
        assert (params.tail_assign.sum(axis=1) == 3).all()

    def test_scores_start_at_zero(self):
        hp = Hyperparams(n=4, m=3, k=1, epochs=1)
        params = init_params(5, 2, hp, seed=5)
        assert not params.head_scores.any()
        assert not params.tail_scores.any()

    def test_stranse_layout(self):
        head, tail = stranse_assignments(3, 6)
        assert head[1].tolist() == [0, 0, 1, 0, 0, 0]
        assert tail[1].tolist() == [0, 0, 0, 1, 0, 0]


class TestAttentionSnapshot:
    """The attention rows of every relation, as ``export attention`` writes them."""

    def test_sparse_rows_respect_k(self, tiny_params, tiny_hp):
        head = attention(tiny_params, tiny_hp, SIDE_HEAD)
        assert ((head != 0).sum(axis=1) <= tiny_hp.k).all()
        np.testing.assert_allclose(head.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(head != 0, tiny_params.head_assign.astype(bool))

    def test_symmetric_fixture(self, tiny_params, tiny_hp):
        params = tiny_params.copy()
        params.tail_scores[:] = params.head_scores
        params.tail_assign[:] = params.head_assign
        np.testing.assert_array_equal(attention(params, tiny_hp, SIDE_HEAD),
                                      attention(params, tiny_hp, SIDE_TAIL))

    def test_dense_l1_rows_are_raw_weights(self, tiny_params):
        hp = Hyperparams(n=5, m=4, k=2, epochs=1, attention_mode="dense_l1")
        params = tiny_params.copy()
        params.head_scores[:] = np.abs(params.head_scores) * 0.3
        params.tail_scores[:] = np.abs(params.tail_scores) * 0.3
        head = attention(params, hp, SIDE_HEAD)
        np.testing.assert_array_equal(head, params.head_scores)
        # no softmax: rows need not sum to one
        assert not np.allclose(head.sum(axis=1), 1.0)

    def test_dense_rows_cover_all_concepts(self, tiny_params):
        hp = Hyperparams(n=5, m=4, k=2, epochs=1, attention_mode="dense")
        head = attention(tiny_params, hp, SIDE_HEAD)
        assert (head > 0).all()
        np.testing.assert_allclose(head.sum(axis=1), 1.0, atol=1e-9)


MODES = ("sparse", "dense", "dense_l1")


def mode_params(tiny_params, mode):
    """The tiny fixture under ``mode``, with relation 1's head support cut
    to one concept so that supports are ragged (one-hot next to two-hot)."""
    hp = Hyperparams(n=5, m=4, k=2, tau=0.5, epochs=1, attention_mode=mode)
    params = tiny_params.copy()
    params.head_assign[1] = 0
    params.head_assign[1, 2] = 1
    if mode == "dense_l1":
        # some weights clip to zero, which leaves the rows ragged as well
        params.head_scores[:] -= 0.3
        params.tail_scores[:] -= 0.3
    return hp, params


class TestAttention:
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_match_scalar_oracle(self, tiny_params, mode):
        hp, params = mode_params(tiny_params, mode)
        for side in ("head", "tail"):
            rows = attention(params, hp, side)
            assert rows.shape == (params.n_relations, params.m)
            for r in range(params.n_relations):
                np.testing.assert_allclose(
                    rows[r], attention_vector(params, hp, r, side), rtol=1e-15, atol=1e-15
                )
            subset = attention(params, hp, side, np.array([2, 0]))
            np.testing.assert_array_equal(subset, rows[[2, 0]])

    def test_empty_support_raises(self, tiny_params, tiny_hp):
        params = tiny_params.copy()
        params.tail_assign[1] = 0
        with pytest.raises(ValueError, match="no active"):
            attention(params, tiny_hp, "tail")
        with pytest.raises(ValueError, match="no active"):
            attention(params, tiny_hp, "tail", np.array([1]))
        attention(params, tiny_hp, "tail", np.array([0, 2]))  # other rows are fine


class TestComposedMatrix:
    def test_matches_naive_combination(self, tiny_params, tiny_hp):
        W = projections(tiny_params, tiny_hp,
                        *supports(tiny_params, tiny_hp, "head", range(tiny_params.n_relations)))
        for r in range(tiny_params.n_relations):
            alpha = attention_vector(tiny_params, tiny_hp, r, "head")
            naive = np.einsum("i,ijk->jk", alpha, tiny_params.concept_tensor)
            np.testing.assert_allclose(W[r], naive, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_with_ragged_supports(self, tiny_params, mode):
        hp, params = mode_params(tiny_params, mode)
        rels = np.array([2, 1, 0, 1])
        for side in ("head", "tail"):
            alpha, act, weights = supports(params, hp, side, rels)
            W = projections(params, hp, alpha, act, weights)
            assert act.shape == weights.shape == (len(rels), act.shape[1])
            assert len(W) == len(rels)
            for u, r in enumerate(rels):
                alpha = attention_vector(params, hp, r, side)
                naive = np.einsum("i,ijk->jk", alpha, params.concept_tensor)
                np.testing.assert_allclose(W[u], naive, rtol=1e-12, atol=1e-12)
                # the nonzero weights lead in ascending concept order; the
                # padding has zero weight and repeats no concept
                nz = np.flatnonzero(alpha)
                np.testing.assert_array_equal(act[u, :len(nz)], nz)
                np.testing.assert_array_equal(weights[u], alpha[act[u]])
                assert not weights[u, len(nz):].any()
                assert len(set(act[u].tolist())) == act.shape[1]
        if mode == "sparse":
            _, act, weights = supports(params, hp, "head", rels)
            assert act.shape[1] == 2  # c comes from the widest support
            assert weights[1, 1] == 0.0 and weights[1, 0] == 1.0  # one-hot row is padded


class TestPublicNames:
    def test_all_resolves_and_star_import_succeeds(self):
        import conceptkb

        assert [name for name in conceptkb.__all__ if not hasattr(conceptkb, name)] == []
        namespace: dict = {}
        exec("from conceptkb import *", namespace)
        assert set(conceptkb.__all__) <= namespace.keys()
