import tracemalloc

import numpy as np
import pytest

import _synth
import conceptkb.evaluation as ev
from _oracles import energy
from conceptkb.data import bin_relations, build_store
from conceptkb.evaluation import (
    evaluate,
    load_report,
    per_relation_csv,
    report_json,
    report_text,
)
from conceptkb.model import ATTENTION_MODES, MODELS, Hyperparams, init_params


def known_triples(store):
    """Every triple of the three splits, as a set of tuples."""
    return {tuple(row) for split in (store.train, store.valid, store.test) for row in split.tolist()}


def rank_one(triple, side, params, store, hp, filtered=True):
    """Rank of one query, through :func:`evaluate` on a one-row split."""
    split = np.array([triple], dtype=np.int64)
    return evaluate(split, params, hp, store, direction=side, filtered=filtered).mean_rank


def brute_force_rank(triple, side, params, store, hp, filtered):
    """Independent oracle: explicit (energy, id) sort, then position of the
    true entity among unfiltered candidates."""
    h, r, t = (int(x) for x in triple)
    true = h if side == "head" else t
    known = known_triples(store) if filtered else set()
    rows = []
    for c in range(store.n_entities):
        cand = (c, r, t) if side == "head" else (h, r, c)
        if c != true and cand in known:
            continue
        rows.append((energy(*cand, params, hp), c))
    rows.sort()
    return [c for _, c in rows].index(true) + 1


class TestRankQuery:
    def test_unique_minimum_ranks_first(self, tiny_store, tiny_hp):
        params = init_params(tiny_store.n_entities, tiny_store.n_relations,
                             tiny_hp.with_updates(init_noise_sd=0.0), seed=0)
        h, r, t = 0, 0, 1
        params.entity_emb[h] = np.array([1.0, 0, 0, 0, 0])
        params.relation_emb[r] = np.array([0.0, 1.0, 0, 0, 0])
        params.entity_emb[t] = np.array([1.0, 1.0, 0, 0, 0])
        assert rank_one((h, r, t), "tail", params, tiny_store, tiny_hp, filtered=False) == 1

    def test_direct_count(self):
        store = build_store(np.array([[0, 0, 1]], dtype=np.int64), n_entities=3)
        hp = Hyperparams(n=2, m=1, k=1, epochs=1, model="transe", ell=2)
        params = init_params(3, 1, hp, seed=0)
        params.relation_emb[0] = 0.0
        params.entity_emb[0] = [1.0, 0.0]   # true tail energy vs head 0
        params.entity_emb[1] = [0.0, 1.0]   # true: |h - t| = sqrt(2)
        params.entity_emb[2] = [1.0, 0.1]   # closer than the true tail
        # energies for tail query (0, 0, ?): t=0 -> 0, t=1 -> sqrt2, t=2 -> 0.1
        assert rank_one((0, 0, 1), "tail", params, store, hp, filtered=False) == 3

    def test_matches_brute_force_small(self, tiny_store, tiny_params, tiny_hp):
        # (0, 0, 1) sits in train and test; relation 2 is known only from
        # valid and test
        overlap = build_store(np.array([[0, 0, 1], [2, 0, 1], [1, 0, 3], [0, 1, 2], [3, 1, 2]]),
                              np.array([[3, 2, 0], [1, 2, 0], [0, 0, 3]]),
                              np.array([[0, 0, 1], [3, 2, 1], [3, 2, 4]]),
                              n_entities=5, n_relations=3)
        overlap_params = init_params(5, 3, tiny_hp, seed=3)
        for store, params in ((tiny_store, tiny_params), (overlap, overlap_params)):
            for triple in np.concatenate([store.valid, store.test]):
                for side in ("head", "tail"):
                    for filt in (True, False):
                        got = rank_one(triple, side, params, store, tiny_hp, filtered=filt)
                        want = brute_force_rank(triple, side, params, store, tiny_hp, filt)
                        assert got == want

    def test_filtered_never_worse_than_raw(self, tiny_store, tiny_params, tiny_hp):
        for triple in tiny_store.test:
            for side in ("head", "tail"):
                filt = rank_one(triple, side, tiny_params, tiny_store, tiny_hp, filtered=True)
                raw = rank_one(triple, side, tiny_params, tiny_store, tiny_hp, filtered=False)
                assert filt <= raw


class TestCandidateEnergies:
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("mode", ATTENTION_MODES)
    @pytest.mark.parametrize("model", MODELS)
    def test_match_scalar_energy(self, monkeypatch, model, mode, ell, side):
        # 30 candidates in blocks of at most 8: three of 8 and a ragged one of 6
        monkeypatch.setattr(ev, "_ENERGY_BLOCK", 8)
        n_entities, n_relations = 30, 3
        hp = Hyperparams(n=5, m=2 * n_relations, k=2, ell=ell, attention_mode=mode,
                         model=model, init_noise_sd=0.3)
        params = init_params(n_entities, n_relations, hp, seed=5)
        rng = np.random.default_rng(6)
        for scores in (params.head_scores, params.tail_scores):
            scores[:] = np.abs(rng.normal(size=scores.shape))
        others = np.array([0, 13, 29, 13])
        for r in range(n_relations):
            energies = ev._candidate_energies(params, hp, r, side, others)
            for o, got in zip(others.tolist(), energies):
                want = [energy(c, r, o, params, hp) if side == "head" else energy(o, r, c, params, hp)
                        for c in range(n_entities)]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_block_width_keeps_bits(self, monkeypatch, ell, side):
        hp = Hyperparams(n=5, m=4, k=2, ell=ell, init_noise_sd=0.3)
        params = init_params(30, 2, hp, seed=5)
        others = np.array([0, 13, 29])
        whole = list(ev._candidate_energies(params, hp, 1, side, others))
        for block in (7, 8, 16):  # blocks of 6, 8 (last 6) and 15 columns
            monkeypatch.setattr(ev, "_ENERGY_BLOCK", block)
            for got, want in zip(ev._candidate_energies(params, hp, 1, side, others), whole):
                assert got.tobytes() == want.tobytes()


class TestTieRule:
    @pytest.mark.parametrize("model", ["itransf", "transe"])
    def test_twin_entities_across_a_block_boundary(self, monkeypatch, model):
        """Entities 7 and 8 have identical embeddings and sit in different
        blocks of 8 candidates (16 entities, two blocks): each ties the other,
        and only the lower id counts against the true entity."""
        monkeypatch.setattr(ev, "_ENERGY_BLOCK", 8)
        train = np.array([[7, 0, 3], [8, 0, 3], [3, 1, 7], [3, 1, 8], [1, 0, 2], [2, 1, 5]])
        test = np.array([[7, 0, 3], [8, 0, 3], [3, 1, 7], [3, 1, 8], [8, 0, 11], [12, 1, 7],
                         [7, 1, 8], [8, 1, 7]])
        store = build_store(train, np.empty((0, 3), dtype=np.int64), test,
                            n_entities=16, n_relations=2)
        hp = Hyperparams(n=4, m=3, k=2, model=model, init_noise_sd=0.3)
        params = init_params(store.n_entities, store.n_relations, hp, seed=8)
        params.entity_emb[8] = params.entity_emb[7]
        for filtered in (True, False):
            report = evaluate(store.test, params, hp, store, filtered=filtered)
            want = {0: [], 1: []}
            for side in ("head", "tail"):
                for triple in store.test:
                    rank = brute_force_rank(triple, side, params, store, hp, filtered)
                    assert rank_one(triple, side, params, store, hp, filtered=filtered) == rank
                    want[int(triple[1])].append(rank)
            for r, ranks in want.items():
                assert report.per_relation[r].mean_rank == np.mean(ranks)
            assert report.mean_rank == np.mean(want[0] + want[1])


class TestEvaluate:
    def test_memorizing_scorer_is_perfect(self, monkeypatch, tiny_store, tiny_params, tiny_hp):
        known = known_triples(tiny_store)

        def oracle(params, hp, r, side, others):
            """Forces energy 0 on known-true triples and 1 elsewhere."""
            for other in others.tolist():
                out = np.ones(tiny_store.n_entities)
                for c in range(tiny_store.n_entities):
                    cand = (c, r, other) if side == "head" else (other, r, c)
                    if cand in known:
                        out[c] = 0.0
                yield out

        import conceptkb.evaluation as ev

        monkeypatch.setattr(ev, "_candidate_energies", oracle)
        report = evaluate(tiny_store.train, tiny_params, tiny_hp, tiny_store)
        assert report.hits_at_10 == 100.0
        assert report.mean_rank == 1.0

    def test_untrained_model_mean_rank_near_half(self):
        store = _synth.random_kb(0, n_entities=1000, n_relations=3, n_train=2000, n_valid=0, n_test=500)
        hp = Hyperparams(n=12, m=4, k=2, epochs=1)
        params = init_params(store.n_entities, store.n_relations, hp, seed=1)
        report = evaluate(store.test, params, hp, store)
        assert report.n_queries == 1000
        assert report.mean_rank == pytest.approx(store.n_entities / 2, rel=0.10)

    def test_reports_are_deterministic_and_pure(self, tiny_store, tiny_params, tiny_hp):
        a = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store)
        b = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store)
        assert a.to_dict() == b.to_dict()

    def test_workers_agree_with_serial(self, tiny_store, tiny_params, tiny_hp):
        serial = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store, workers=1)
        threaded = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store, workers=4)
        assert serial.to_dict() == threaded.to_dict()

    def test_peak_memory_does_not_grow_with_relations(self):
        """Ranking keeps one relation's projected entity table at a time, so
        the peak of a call over many relations stays within a few tables
        (with every table kept it would be one per relation side)."""
        n_entities, n_relations, n = 2000, 40, 32
        store = _synth.random_kb(3, n_entities=n_entities, n_relations=n_relations,
                                 n_train=4000, n_valid=0, n_test=0)
        split = np.array([store.train[store.train[:, 1] == r][0] for r in range(n_relations)])
        hp = Hyperparams(n=n, m=6, k=2, epochs=1)
        params = init_params(n_entities, n_relations, hp, seed=4)
        table = n_entities * n * 8
        evaluate(split[:2], params, hp, store)  # warm up lazily allocated state
        tracemalloc.start()
        try:
            evaluate(split, params, hp, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * table, f"peak {peak / table:.1f} tables"

    def test_per_relation_counts(self, tiny_store, tiny_params, tiny_hp):
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store)
        assert sum(m.count for m in report.per_relation.values()) == 2 * len(tiny_store.test)
        head_only = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store, direction="head")
        assert head_only.n_queries == len(tiny_store.test)

    def test_per_bin_relation_equal_weighting(self, tiny_store, tiny_params, tiny_hp):
        bins = bin_relations(tiny_store, 2)
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store, bins=bins)
        for b, value in report.per_bin.items():
            members = [r for r in report.per_relation if bins.bin_of_relation.get(r) == b]
            expected = np.mean([report.per_relation[r].hits_at_10 for r in members])
            assert value == pytest.approx(expected)

    def test_transe_model_evaluation(self, tiny_store):
        hp = Hyperparams(n=5, m=1, k=1, epochs=1, model="transe")
        params = init_params(tiny_store.n_entities, tiny_store.n_relations, hp, seed=2)
        report = evaluate(tiny_store.test, params, hp, tiny_store)
        for triple in tiny_store.test:
            for side in ("head", "tail"):
                got = rank_one(triple, side, params, tiny_store, hp)
                want = brute_force_rank(triple, side, params, tiny_store, hp, True)
                assert got == want
        assert 1 <= report.mean_rank <= tiny_store.n_entities


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path, tiny_store, tiny_params, tiny_hp):
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store,
                          bins=bin_relations(tiny_store, 2))
        path = tmp_path / "report.json"
        report_json(report, path)
        loaded = load_report(path)
        assert loaded == report

    def test_text_rendering(self, tiny_store, tiny_params, tiny_hp):
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store)
        text = report_text(report)
        assert "mean rank" in text
        assert "hits@10" in text
        assert str(report.n_queries) in text

    def test_per_relation_csv(self, tmp_path, tiny_store, tiny_params, tiny_hp):
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store)
        path = tmp_path / "rel.csv"
        per_relation_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "relation,count,mean_rank,hits_at_10"
        assert len(lines) == 1 + len(report.per_relation)
