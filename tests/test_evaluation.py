import itertools
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
from conceptkb.model import ATTENTION_MODES, MODELS, Hyperparams, compose, init_params


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


def candidate_energies(params, hp, r, side, others):
    """``_candidate_energies`` with the float32 entity table and entity norm
    that :func:`evaluate` passes it."""
    ent32 = np.ascontiguousarray(params.entity_emb.T, dtype=np.float32)
    return ev._candidate_energies(params, hp, r, side, others, ent32,
                                  ev._max_row_norm(params.entity_emb, hp.ell))


def scaled_params(n_entities, n_relations, hp, seed):
    """Parameters far from unit scale: every third entity row has L2 norm 3,
    and concept entries are about 10 in magnitude."""
    params = init_params(n_entities, n_relations, hp, seed=seed)
    rng = np.random.default_rng(seed + 1)
    params.entity_emb[::3] *= 3.0 / np.linalg.norm(params.entity_emb[::3], axis=1, keepdims=True)
    params.concept_tensor[:] = 10.0 * rng.normal(size=params.concept_tensor.shape)
    params.relation_emb[:] = rng.normal(size=params.relation_emb.shape)
    for scores in (params.head_scores, params.tail_scores):
        scores[:] = np.abs(rng.normal(size=scores.shape))
    return params


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
            energies = candidate_energies(params, hp, r, side, others)
            for o, (screened, delta, rescore) in zip(others.tolist(), energies):
                got = rescore(np.arange(n_entities))
                want = [energy(c, r, o, params, hp) if side == "head" else energy(o, r, c, params, hp)
                        for c in range(n_entities)]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                assert np.abs(screened - got).max() <= delta

    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_block_width_keeps_bits(self, monkeypatch, ell, side):
        """Neither the screen's column blocks nor the candidates that share a
        re-score change a candidate's bits."""
        hp = Hyperparams(n=5, m=4, k=2, ell=ell, init_noise_sd=0.3)
        params = init_params(30, 2, hp, seed=5)
        others = np.array([0, 13, 29])
        ids = np.arange(30)
        whole = [(screened, rescore(ids)) for screened, _, rescore in
                 candidate_energies(params, hp, 1, side, others)]
        for block in (7, 8, 16):  # blocks of 6, 8 (last 6) and 15 columns
            monkeypatch.setattr(ev, "_ENERGY_BLOCK", block)
            for (screened, _, rescore), (want_screened, want) in zip(
                    candidate_energies(params, hp, 1, side, others), whole):
                assert screened.tobytes() == want_screened.tobytes()
                for width in (1, block - 1, block):
                    got = np.concatenate([rescore(ids[lo:lo + width]) for lo in range(0, 30, width)])
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("mode", ATTENTION_MODES)
    @pytest.mark.parametrize("model", MODELS)
    def test_screen_within_bound(self, model, mode, ell, side):
        """Every screened energy lies within δ of the candidate's float64
        re-score, also off unit scale."""
        n_entities, n_relations = 200, 3
        hp = Hyperparams(n=16, m=2 * n_relations, k=2, ell=ell, attention_mode=mode, model=model)
        params = scaled_params(n_entities, n_relations, hp, seed=21)
        others = np.array([0, 1, 2, 57, 199])
        for r in range(n_relations):
            for screened, delta, rescore in candidate_energies(params, hp, r, side, others):
                error = np.abs(screened - rescore(np.arange(n_entities)))
                assert 0 < delta < 1e-3 * np.median(screened)
                assert error.max() <= delta


def spy_rescore(monkeypatch):
    """Record every call of the float64 re-score as (ids, energies)."""
    calls = []
    real = ev._rescore

    def spy(ent, w, fixed, ids, ell):
        out = real(ent, w, fixed, ids, ell)
        calls.append((np.asarray(ids).copy(), out.copy()))
        return out

    monkeypatch.setattr(ev, "_rescore", spy)
    return calls


def plant_near_ties(params, true, twins, scaled):
    """Copy the row of entity ``true`` to every id of ``twins``, and scale it
    by 1 + j·2⁻⁴⁴ into ``scaled`` (j = ±1, ±2, ...): energies that differ from
    the true entity's only far below float32 resolution."""
    row = params.entity_emb[true].copy()
    for c in twins:
        params.entity_emb[c] = row
    for j, c in enumerate(scaled):
        step = (j // 2 + 1) * (1 if j % 2 == 0 else -1)
        params.entity_emb[c] = row * (1 + step * 2.0**-44)


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

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("model", ["itransf", "transe"])
    def test_planted_near_ties_inside_the_band(self, monkeypatch, model, ell):
        """Beside each true entity sit two candidates whose float64 energies
        differ from its own only in the last bits, one above and one below,
        and two exact copies of it, one on either side of its id.  float32
        cannot order them, so only the float64 re-score can give brute
        force's ranks.  Each relation vector nearly closes its triple, as in
        a trained model: the true energy is small against the terms that
        make it, so the screen's error spans many float32 steps of it."""
        train = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5], [6, 1, 7]])
        test = np.array([[12, 0, 32], [32, 1, 12]])
        store = build_store(train, np.empty((0, 3), dtype=np.int64), test,
                            n_entities=48, n_relations=2)
        hp = Hyperparams(n=50, m=3, k=2, ell=ell, model=model, init_noise_sd=0.3)
        params = init_params(store.n_entities, store.n_relations, hp, seed=9)
        rng = np.random.default_rng(10)
        planted = []
        for true in (12, 32):
            plant_near_ties(params, true, twins=(true - 2, true + 2), scaled=(true - 1, true + 1))
            planted += [true - 2, true - 1, true + 1, true + 2]
        for h, r, t in test.tolist():
            w_h, w_t = (np.eye(hp.n) if model == "transe" else compose(params, hp, side, [r])[2][0]
                        for side in ("head", "tail"))
            params.relation_emb[r] = (w_t @ params.entity_emb[t] - w_h @ params.entity_emb[h]
                                      + 1e-3 * rng.normal(size=hp.n))
        for (h, r, t), side in itertools.product(test.tolist(), ("head", "tail")):
            true, other = (h, t) if side == "head" else (t, h)
            _, _, rescore = next(iter(candidate_energies(params, hp, r, side, np.array([other]))))
            e_true, *e_near = rescore([true, true - 1, true + 1])
            gaps = np.array(e_near) - e_true
            assert gaps.min() < 0 < gaps.max()
            assert np.abs(gaps).max() < 2.0**-30 * e_true
        calls = spy_rescore(monkeypatch)
        for filtered in (True, False):
            for triple in store.test:
                for side in ("head", "tail"):
                    want = brute_force_rank(triple, side, params, store, hp, filtered)
                    assert rank_one(triple, side, params, store, hp, filtered=filtered) == want
        rescored = set(np.concatenate([ids for ids, _ in calls]).tolist())
        assert set(planted) <= rescored

    @pytest.mark.parametrize("width", range(2, 34))
    def test_twins_at_both_ends_of_the_band(self, monkeypatch, width):
        """Copies of the true entity at both ends of a band of ``width``
        candidates, near-ties between them: each copy ties the other and the
        true entity bit for bit, and only the lower id counts."""
        n_entities, low, true = 80, 10, 11
        high = low + width
        store = build_store(np.array([[0, 0, 1], [2, 0, 3]]), n_entities=n_entities, n_relations=1)
        hp = Hyperparams(n=50, m=3, k=2, init_noise_sd=0.3)
        params = init_params(n_entities, 1, hp, seed=width)
        plant_near_ties(params, true, twins=(low, high), scaled=range(true + 1, high))
        triple = (40, 0, true)
        calls = spy_rescore(monkeypatch)
        rank = rank_one(triple, "tail", params, store, hp, filtered=False)
        assert rank == brute_force_rank(triple, "tail", params, store, hp, False)
        (true_ids, (e_true,)), (band, energies) = calls
        assert true_ids.tolist() == [true]
        assert band.tolist() == [low, *range(true + 1, high + 1)]
        assert energies[0] == energies[-1] == e_true


class TestEvaluate:
    def test_memorizing_scorer_is_perfect(self, monkeypatch, tiny_store, tiny_params, tiny_hp):
        known = known_triples(tiny_store)

        def oracle(params, hp, r, side, others, ent32, ent_norm):
            """Sends every candidate to the float64 re-score (an infinite
            bound), which forces energy 0 on known-true triples and 1
            elsewhere."""
            for other in others.tolist():
                def rescore(ids, other=other):
                    out = np.ones(len(ids))
                    for j, c in enumerate(np.asarray(ids).tolist()):
                        cand = (c, r, other) if side == "head" else (other, r, c)
                        if cand in known:
                            out[j] = 0.0
                    return out
                yield np.zeros(tiny_store.n_entities, dtype=np.float32), np.inf, rescore

        monkeypatch.setattr(ev, "_candidate_energies", oracle)
        report = evaluate(tiny_store.train, tiny_params, tiny_hp, tiny_store)
        assert report.hits_at_10 == 100.0
        assert report.mean_rank == 1.0

    @pytest.mark.parametrize("model, target", [
        ("itransf", "concept_tensor"), ("itransf", "entity_emb"), ("itransf", "relation_emb"),
        ("transe", "entity_emb"), ("transe", "relation_emb"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameters_raise(self, tiny_store, tiny_params, tiny_hp, model, target, value):
        """NaN energies are never below the true one, so such parameters used
        to rank every true entity first."""
        hp = tiny_hp.with_updates(model=model)
        params = tiny_params.copy()
        getattr(params, target)[:] = value
        with pytest.raises(ValueError, match=r"^relation \d+ (head|tail): the (candidate table|fixed "
                                             r"vector of entity \d+) is not finite"):
            evaluate(tiny_store.test, params, hp, tiny_store)

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
