import tracemalloc

import numpy as np
import pytest

import _synth
from conceptkb.data import bin_relations, build_store
from conceptkb.evaluation import (
    evaluate,
    load_report,
    per_relation_csv,
    rank_query,
    report_json,
    report_text,
)
from conceptkb.model import Hyperparams, energy, init_params


def brute_force_rank(triple, side, params, store, hp, filtered):
    """Independent oracle: explicit (energy, id) sort, then position of the
    true entity among unfiltered candidates."""
    h, r, t = (int(x) for x in triple)
    true = h if side == "head" else t
    rows = []
    for c in range(store.n_entities):
        cand = (c, r, t) if side == "head" else (h, r, c)
        if filtered and c != true and cand in store.all_known:
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
        assert rank_query((h, r, t), "tail", params, tiny_store, tiny_hp, filtered=False) == 1

    def test_direct_count(self):
        store = build_store(np.array([[0, 0, 1]], dtype=np.int64), n_entities=3)
        hp = Hyperparams(n=2, m=1, k=1, epochs=1, model="transe", ell=2)
        params = init_params(3, 1, hp, seed=0)
        params.relation_emb[0] = 0.0
        params.entity_emb[0] = [1.0, 0.0]   # true tail energy vs head 0
        params.entity_emb[1] = [0.0, 1.0]   # true: |h - t| = sqrt(2)
        params.entity_emb[2] = [1.0, 0.1]   # closer than the true tail
        # energies for tail query (0, 0, ?): t=0 -> 0, t=1 -> sqrt2, t=2 -> 0.1
        assert rank_query((0, 0, 1), "tail", params, store, hp, filtered=False) == 3

    def test_matches_brute_force_small(self, tiny_store, tiny_params, tiny_hp):
        for triple in np.concatenate([tiny_store.valid, tiny_store.test]):
            for side in ("head", "tail"):
                for filt in (True, False):
                    got = rank_query(triple, side, tiny_params, tiny_store, tiny_hp, filtered=filt)
                    want = brute_force_rank(triple, side, tiny_params, tiny_store, tiny_hp, filt)
                    assert got == want

    def test_filtered_never_worse_than_raw(self, tiny_store, tiny_params, tiny_hp):
        for triple in tiny_store.test:
            for side in ("head", "tail"):
                filt = rank_query(triple, side, tiny_params, tiny_store, tiny_hp, filtered=True)
                raw = rank_query(triple, side, tiny_params, tiny_store, tiny_hp, filtered=False)
                assert filt <= raw


class TestEvaluate:
    def test_memorizing_scorer_is_perfect(self, monkeypatch, tiny_store, tiny_params, tiny_hp):
        known = tiny_store.all_known

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
                got = rank_query(triple, side, params, tiny_store, hp)
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
