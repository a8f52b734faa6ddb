import numpy as np
import pytest

from conceptkb.data import build_store
from conceptkb.sampling import DomainSampler, corrupt, corrupt_batch, domain_probability


def make_store(rows, n_entities=None, n_relations=None):
    return build_store(np.array(rows, dtype=np.int64), n_entities=n_entities, n_relations=n_relations)


class TestDomainProbability:
    def test_formula(self):
        # |M_H| = 10, |M_T| = 10, |N_r| = 1 would need 10 distinct
        # head/tail entities over one triple, impossible; use the formula's
        # components directly through a crafted store
        rows = [[i, 0, i + 10] for i in range(10)]
        store = make_store(rows)
        # |M_H| = 10, |M_T| = 10, |N_r| = 10
        assert domain_probability(store, 0, 0.001) == pytest.approx(0.001 * 10 * 10 / 10)

    def test_hand_value(self):
        store = make_store([[0, 0, 1]])
        # |M_H| = |M_T| = |N_r| = 1
        assert domain_probability(store, 0, 0.1) == pytest.approx(0.1)

    def test_cap_at_half(self):
        rows = [[i, 0, i + 40] for i in range(40)]
        store = make_store(rows)
        # lam |M_T||M_H| / N = 1.0 * 40 * 40 / 40 = 40 -> capped
        assert domain_probability(store, 0, 1.0) == 0.5

    def test_zero_lambda(self):
        rows = [[i, 0, i + 3] for i in range(3)]
        store = make_store(rows)
        assert domain_probability(store, 0, 0.0) == 0.0

    def test_unseen_relation_rejected(self):
        store = make_store([[0, 0, 1]], n_relations=2)
        with pytest.raises(ValueError):
            domain_probability(store, 1, 0.001)

    def test_monotone_in_lambda_and_capped(self):
        rows = [[i % 7, 0, (3 * i) % 11] for i in range(25)]
        store = make_store(rows)
        values = [domain_probability(store, 0, lam) for lam in (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)]
        assert values == sorted(values)
        assert all(v <= 0.5 for v in values)


class TestCorrupt:
    def test_forced_replacement_with_two_entities(self):
        store = make_store([[0, 0, 1]], n_entities=2)
        sampler = DomainSampler(store, rng=np.random.default_rng(0))
        for _ in range(20):
            h, r, t = corrupt((0, 0, 1), store, "uniform", sampler)
            assert (h, r, t) != (0, 0, 1)
            assert (h, t) in ((1, 1), (0, 0))  # one side flipped to the only other entity

    def test_batch_with_one_entity_raises(self):
        store = make_store([[0, 0, 0]])
        sampler = DomainSampler(store, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="two entities"):
            corrupt_batch(np.array([[0, 0, 0]]), store, "uniform", sampler)

    def test_corrupted_always_differs(self, tiny_store):
        sampler = DomainSampler(tiny_store, rng=np.random.default_rng(1))
        for mode in ("uniform", "bernoulli", "domain"):
            for row in tiny_store.train:
                for _ in range(10):
                    assert corrupt(tuple(row), tiny_store, mode, sampler) != tuple(row)

    def test_exactly_one_side_changes(self, tiny_store):
        sampler = DomainSampler(tiny_store, rng=np.random.default_rng(2))
        for row in tiny_store.train:
            h, r, t = (int(x) for x in row)
            for _ in range(10):
                h2, r2, t2 = corrupt((h, r, t), tiny_store, "bernoulli", sampler)
                assert r2 == r
                assert (h2 == h) != (t2 == t)  # exactly one side replaced

    def test_bernoulli_side_frequency(self):
        # two tails per distinct head, one head per distinct tail:
        # tph = 2, hpt = 1, so the head side is replaced with probability 2/3
        store = make_store([[0, 0, 1], [0, 0, 2], [3, 0, 4], [3, 0, 5]], n_entities=40)
        assert store.tph[0] == 2.0 and store.hpt[0] == 1.0
        sampler = DomainSampler(store, rng=np.random.default_rng(3))
        n = 100_000
        batch = corrupt_batch(np.array([[0, 0, 1]] * n), store, "bernoulli", sampler)
        head_frac = float((batch[:, 0] != 0).mean())
        assert head_frac == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_scalar_bernoulli_side_frequency(self):
        store = make_store([[0, 0, 1], [0, 0, 2], [3, 0, 4], [3, 0, 5]], n_entities=40)
        sampler = DomainSampler(store, rng=np.random.default_rng(4))
        n = 30_000
        heads = sum(corrupt((0, 0, 1), store, "bernoulli", sampler)[0] != 0 for _ in range(n))
        assert heads / n == pytest.approx(2.0 / 3.0, abs=0.015)

    def test_domain_mode_in_domain_frequency(self):
        # head domain {0..9}, tail domain {10..29}; choose lam for p_r = 0.5
        rows = [[i % 10, 0, 10 + (i % 20)] for i in range(20)]
        store = make_store(rows, n_entities=200)
        lam = 0.5 * len(store.by_relation[0]) / (len(store.head_domain[0]) * len(store.tail_domain[0]))
        sampler = DomainSampler(store, lam=lam, rng=np.random.default_rng(5))
        assert sampler.p_r[0] == pytest.approx(0.5)
        n = 100_000
        batch = corrupt_batch(np.array([[0, 0, 10]] * n), store, "domain", sampler, domain_side="uniform")
        head_dom = set(store.head_domain[0].tolist())
        tail_dom = set(store.tail_domain[0].tolist())
        replaced_head = batch[:, 0] != 0
        in_dom_head = np.fromiter((int(x) in head_dom for x in batch[replaced_head, 0]), bool)
        in_dom_tail = np.fromiter((int(x) in tail_dom for x in batch[~replaced_head, 2]), bool)
        # out-of-domain draws land inside the domain by chance: correct for it
        p_hit_head = len(head_dom) / store.n_entities
        p_hit_tail = len(tail_dom) / store.n_entities
        est_head = (in_dom_head.mean() - p_hit_head) / (1 - p_hit_head)
        est_tail = (in_dom_tail.mean() - p_hit_tail) / (1 - p_hit_tail)
        assert est_head == pytest.approx(0.5, abs=0.01)
        assert est_tail == pytest.approx(0.5, abs=0.01)

    def test_singleton_domain_falls_back_to_full_set(self):
        store = make_store([[0, 0, 1], [0, 0, 2]], n_entities=30)
        # head domain is exactly {0}
        lam = 10.0  # force p_r to the cap
        sampler = DomainSampler(store, lam=lam, rng=np.random.default_rng(6))
        for _ in range(200):
            h2, _, t2 = corrupt((0, 0, 1), store, "domain", sampler, domain_side="uniform")
            if h2 != 0:
                assert h2 != 0  # replacement found outside the singleton domain
        batch = corrupt_batch(np.array([[0, 0, 1]] * 500), store, "domain", sampler, domain_side="uniform")
        assert (batch != np.array([0, 0, 1])).any(axis=1).all()

    def test_fixed_seed_reproducible_stream(self, tiny_store):
        def stream(seed):
            sampler = DomainSampler(tiny_store, rng=np.random.default_rng(seed))
            return [corrupt(tuple(row), tiny_store, "domain", sampler) for row in tiny_store.train for _ in range(5)]

        assert stream(99) == stream(99)
        batch_a = corrupt_batch(tiny_store.train, tiny_store, "domain",
                                DomainSampler(tiny_store, rng=np.random.default_rng(99)))
        batch_b = corrupt_batch(tiny_store.train, tiny_store, "domain",
                                DomainSampler(tiny_store, rng=np.random.default_rng(99)))
        np.testing.assert_array_equal(batch_a, batch_b)

    def test_batch_preserves_relations_and_one_side(self, tiny_store):
        sampler = DomainSampler(tiny_store, rng=np.random.default_rng(7))
        batch = corrupt_batch(tiny_store.train, tiny_store, "bernoulli", sampler)
        np.testing.assert_array_equal(batch[:, 1], tiny_store.train[:, 1])
        head_changed = batch[:, 0] != tiny_store.train[:, 0]
        tail_changed = batch[:, 2] != tiny_store.train[:, 2]
        assert (head_changed ^ tail_changed).all()
