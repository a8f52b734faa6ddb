"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``-s`` to
see them live).  The full-benchmark directional run needs the WN18 triple
files on disk; it looks under ``$CONCEPTKB_DATA`` and ``./data/wn18`` and
skips with an explanation when the corpus is absent.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import _synth
from _oracles import energy_itransf, energy_stranse, energy_transe
from conceptkb.cli import main
from conceptkb.data import Vocab, build_store, load_dataset
from conceptkb.evaluation import evaluate
from conceptkb.model import Hyperparams, init_params, sparse_softmax
from conceptkb.sampling import DomainSampler, corrupt_batch, domain_probability
from conceptkb.training import (
    batch_gradients,
    block_update,
    make_state,
    sgd_epoch,
    single_matrix_cost,
    train,
)
from test_evaluation import brute_force_rank, rank_one
from test_training import (
    PARAM_ARRAYS,
    dense_gradients,
    finite_difference,
    kink_distance,
    make_fd_instance,
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


class TestReductionIdentities:
    def test_criterion(self):
        rng = np.random.default_rng(0)
        n_e, n_r, n = 40, 6, 8

        hp_s = Hyperparams(n=n, m=2 * n_r, k=1, ell=1, epochs=1,
                           init_noise_sd=0.5, model="stranse")
        p_s = init_params(n_e, n_r, hp_s, seed=1)
        p_s.head_scores[:] = rng.normal(size=p_s.head_scores.shape)
        p_s.tail_scores[:] = rng.normal(size=p_s.tail_scores.shape)

        hp_t = Hyperparams(n=n, m=5, k=3, ell=2, epochs=1, init_noise_sd=0.0)
        p_t = init_params(n_e, n_r, hp_t, seed=2)
        p_t.head_scores[:] = rng.normal(size=p_t.head_scores.shape)
        p_t.tail_scores[:] = rng.normal(size=p_t.tail_scores.shape)

        worst_s = worst_t = 0.0
        for _ in range(10_000):
            h, t = rng.integers(n_e, size=2)
            r = int(rng.integers(n_r))
            worst_s = max(worst_s, abs(
                energy_itransf(h, r, t, p_s, hp_s) - energy_stranse(h, r, t, p_s, hp_s)))
            worst_t = max(worst_t, abs(
                energy_itransf(h, r, t, p_t, hp_t) - energy_transe(h, r, t, p_t, hp_t)))
        verdict(
            "reduction identities (two-matrix and plain translation)",
            worst_s <= 1e-12 and worst_t <= 1e-12,
            f"max diffs {worst_s:.2e} / {worst_t:.2e} over 1e4 inputs",
        )


class TestGradientOracle:
    def test_criterion(self):
        worst = 0.0
        for ell in (1, 2):
            for penalty in (0.0, 1.0):
                hp = Hyperparams(n=4, m=5, k=2, gamma=1.0, tau=0.5, ell=ell,
                                 epochs=1, proj_penalty=penalty, init_noise_sd=0.4)
                params = pos = neg = None
                for seed in range(3, 60):
                    params, pos, neg = make_fd_instance(seed, hp)
                    if kink_distance(params, hp, pos, neg) > 1e-3:
                        break
                else:
                    verdict("gradient oracle", False, f"no kink-free instance for ell={ell}")
                _, grads = batch_gradients(params, hp, pos, neg)
                analytic = dense_gradients(params, grads)
                for arr_name in PARAM_ARRAYS:
                    fd = finite_difference(params, hp, pos, neg, arr_name, eps=1e-5)
                    a = analytic[arr_name]
                    denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(fd)))
                    worst = max(worst, float((np.abs(a - fd) / denom).max()))
        verdict("gradient oracle vs central differences", worst < 1e-4,
                f"max relative error {worst:.2e}")


class TestRankingOracle:
    def test_criterion(self):
        rng = np.random.default_rng(123)
        checked = 0
        for kb in range(50):
            n_e = int(rng.integers(5, 31))
            n_r = int(rng.integers(1, 6))
            store = _synth.random_kb(1000 + kb, n_entities=n_e, n_relations=n_r,
                                     n_train=4 * n_e, n_valid=5, n_test=5)
            hp = Hyperparams(n=4, m=3, k=2, ell=int(rng.integers(1, 3)), epochs=1,
                             init_noise_sd=0.3,
                             model="transe" if kb % 5 == 0 else "itransf")
            params = init_params(n_e, n_r, hp, seed=kb)
            params.head_scores[:] = rng.normal(size=params.head_scores.shape)
            params.tail_scores[:] = rng.normal(size=params.tail_scores.shape)
            for triple in np.concatenate([store.valid, store.test]):
                for side in ("head", "tail"):
                    for filtered in (True, False):
                        got = rank_one(triple, side, params, store, hp, filtered=filtered)
                        want = brute_force_rank(triple, side, params, store, hp, filtered)
                        if got != want:
                            verdict("ranking oracle", False,
                                    f"kb={kb} {triple} {side} filtered={filtered}: {got} != {want}")
                        checked += 1
        verdict("ranking oracle (sort-based brute force)", True,
                f"{checked} queries matched exactly on 50 random KBs")


class TestBlockFeasibilityAndOptimality:
    def test_criterion(self):
        store, _ = _synth.cluster_kb(7, n_entities=30, dim=6, rels_per_cluster=3, per_rel=20)
        hp = Hyperparams(n=6, m=6, k=2, gamma=1.0, tau=0.25, ell=1, lr=0.05,
                         batch_size=16, epochs=200, block_every=10, block_stop=200,
                         init_noise_sd=0.1, sampling_mode="bernoulli", block_budget=None)
        state = make_state(store, hp, seed=5)
        updates = 0
        for epoch in range(1, hp.epochs + 1):
            sgd_epoch(state, store, hp)
            if epoch % hp.block_every == 0:
                snapshot = state.params.copy()
                seed = int(state.block_rng.integers(2**31))
                block_update(state.params, store, hp, seed=seed)
                updates += 1
                for r in store.by_relation:
                    for side, assign in (("head", state.params.head_assign),
                                         ("tail", state.params.tail_assign)):
                        pops = int(assign[r].sum())
                        if not (1 <= pops <= hp.k):
                            verdict("block feasibility", False,
                                    f"epoch {epoch} relation {r}: popcount {pops}")
                        costs = np.array([
                            single_matrix_cost(side, r, i, store, snapshot, hp,
                                               budget=None, seed=seed)
                            for i in range(hp.m)
                        ])
                        expect = np.sort(np.argsort(costs, kind="stable")[: hp.k])
                        got = np.nonzero(assign[r])[0]
                        if not np.array_equal(expect, got):
                            verdict("block optimality", False,
                                    f"epoch {epoch} r={r} {side}: {got} != bottom-k {expect}")
        verdict("block feasibility and bottom-k optimality",
                updates == 20, f"{updates} block updates verified against budget-free recompute")


class TestSparseSoftmaxSuite:
    def test_criterion(self):
        rng = np.random.default_rng(9)
        cases = 0
        for m in range(1, 9):
            for support_size in range(1, m + 1):
                for trial in range(25):
                    v = rng.uniform(-40, 40, size=m)
                    tau = float(rng.uniform(0.2, 5.0))
                    support = np.zeros(m, dtype=int)
                    support[rng.choice(m, size=support_size, replace=False)] = 1
                    out = sparse_softmax(v, support, tau)
                    ok = (
                        abs(out.sum() - 1.0) < 1e-9
                        and (out[support == 0] == 0.0).all()
                        and (out >= 0).all()
                        and np.allclose(out, sparse_softmax(v + 11.3, support, tau), atol=1e-12)
                    )
                    if support_size == 1:
                        ok = ok and out[support == 1][0] == 1.0
                    if not ok:
                        verdict("sparse softmax suite", False, f"m={m} support={support} v={v}")
                    cases += 1
        verdict("sparse softmax suite", True, f"{cases} randomized cases, support sizes 1..m, m<=8")


class TestDomainSampling:
    def test_criterion(self):
        # exact formula cases, including the cap
        store_a = build_store(np.array([[0, 0, 1]], dtype=np.int64))
        case_a = domain_probability(store_a, 0, 0.1) == pytest.approx(0.1)
        rows = [[i, 0, i + 40] for i in range(40)]
        store_b = build_store(np.array(rows, dtype=np.int64))
        case_b = domain_probability(store_b, 0, 1.0) == 0.5
        case_c = domain_probability(store_b, 0, 0.0) == 0.0

        # Monte Carlo in-domain frequency against p_r
        gen_rows = [[i % 10, 0, 10 + (i % 20)] for i in range(20)]
        store = build_store(np.array(gen_rows, dtype=np.int64), n_entities=400)
        lam = 0.3 * len(store.by_relation[0]) / (
            len(store.head_domain[0]) * len(store.tail_domain[0]))
        sampler = DomainSampler(store, lam=lam, rng=np.random.default_rng(11))
        p = sampler.p_r[0]
        n = 100_000
        batch = corrupt_batch(np.array([[0, 0, 10]] * n), store, "domain", sampler,
                              domain_side="uniform")
        head_dom = set(store.head_domain[0].tolist())
        tail_dom = set(store.tail_domain[0].tolist())
        replaced_head = batch[:, 0] != 0
        in_head = np.fromiter((int(x) in head_dom for x in batch[replaced_head, 0]), bool)
        in_tail = np.fromiter((int(x) in tail_dom for x in batch[~replaced_head, 2]), bool)
        p_hit_head = len(head_dom) / store.n_entities
        p_hit_tail = len(tail_dom) / store.n_entities
        est_head = (in_head.mean() - p_hit_head) / (1 - p_hit_head)
        est_tail = (in_tail.mean() - p_hit_tail) / (1 - p_hit_tail)
        mc_ok = abs(est_head - p) < 0.01 and abs(est_tail - p) < 0.01
        verdict("domain sampling probability and Monte Carlo frequency",
                case_a and case_b and case_c and mc_ok,
                f"p_r={p:.3f}, estimates {est_head:.3f}/{est_tail:.3f} over 1e5 draws")


def recovers_concepts(store, rpc: int, seed: int) -> bool:
    """One seeded run of the engine's standard pipeline: a translation-model
    warm start settles the entity geometry, then the shared-concept model
    trains with support reassignment throughout.  True when the relations
    of each cluster end on one common head and one common tail support."""
    hp_warm = Hyperparams(n=8, m=1, k=1, gamma=4.0, ell=2, lr=0.07,
                          batch_size=10, epochs=150, model="transe",
                          sampling_mode="bernoulli")
    warm, _ = train(store, hp_warm, seed=seed)
    hp = Hyperparams(n=8, m=4, k=1, gamma=4.0, tau=0.25, ell=2, lr=0.07,
                     batch_size=10, epochs=300, block_every=5, block_stop=300,
                     init_noise_sd=0.05, sampling_mode="bernoulli",
                     block_budget=None)
    params, _ = train(store, hp, seed=seed, warm_start=warm)
    for c in range(2):
        ids = range(c * rpc, (c + 1) * rpc)
        heads = {tuple(params.head_assign[j]) for j in ids}
        tails = {tuple(params.tail_assign[j]) for j in ids}
        if len(heads) != 1 or len(tails) != 1:
            return False
    return True


@pytest.mark.slow
class TestConceptRecovery:
    def test_criterion(self):
        """The 20 seeded runs are independent, so they share out over at
        most two worker processes, never more than there are CPUs."""
        store, rpc = _synth.cluster_kb(123)
        seeds = range(20)
        with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            wins = sum(pool.map(recovers_concepts, repeat(store), repeat(rpc), seeds))
        verdict("synthetic concept recovery", wins >= 18,
                f"{wins}/20 seeded runs with cluster-identical supports")


def find_wn18() -> Path | None:
    candidates = []
    env = os.environ.get("CONCEPTKB_DATA")
    if env:
        candidates += [Path(env), Path(env) / "wn18"]
    candidates += [Path("data/wn18"), Path("data/WN18")]
    for c in candidates:
        if (c / "train.txt").exists():
            return c
    return None


class TestDeskScaleWN18:
    def test_criterion(self):
        data_dir = find_wn18()
        if data_dir is None:
            pytest.skip(
                "WN18 triple files not found (set $CONCEPTKB_DATA or place "
                "train/valid/test.txt under data/wn18); this environment has "
                "no network access to fetch the benchmark"
            )
        store, vocab = load_dataset(data_dir)
        base = dict(n=20, gamma=5.0, ell=1, lr=0.01, batch_size=250, epochs=300,
                    sampling_mode="bernoulli")
        hp_t = Hyperparams(m=1, k=1, model="transe", **base)
        params_t, _ = train(store, hp_t, seed=0)
        report_t = evaluate(store.test, params_t, hp_t, store, workers=os.cpu_count() or 1)

        hp_i = Hyperparams(m=10, k=2, tau=0.25, block_every=5, block_stop=150,
                           init_noise_sd=0.005, **base)
        params_i, _ = train(store, hp_i, seed=0, warm_start=params_t)
        report_i = evaluate(store.test, params_i, hp_i, store, workers=os.cpu_count() or 1)

        ok = report_i.hits_at_10 >= report_t.hits_at_10 + 1.0 and report_i.hits_at_10 > 60.0
        verdict("desk-scale WN18 directional run", ok,
                f"shared-concept H10 {report_i.hits_at_10:.1f} vs translation {report_t.hits_at_10:.1f}")


class TestThroughput:
    def test_criterion(self):
        store = _synth.structured_kb(2, n_entities=1500, n_relations=24, per_rel=900, dim=32)
        times = {}
        for mode in ("sparse", "dense"):
            hp = Hyperparams(n=32, m=64, k=2, gamma=1.0, ell=1, lr=0.05, batch_size=128,
                             epochs=1, attention_mode=mode, init_noise_sd=0.05)
            state = make_state(store, hp, seed=0)
            sgd_epoch(state, store, hp)  # warm the caches before timing
            t0 = time.perf_counter()
            for _ in range(3):
                sgd_epoch(state, store, hp)
            times[mode] = (time.perf_counter() - t0) / 3
        verdict("sparse faster than dense at equal m",
                times["sparse"] < times["dense"],
                f"sparse {times['sparse']:.2f}s vs dense {times['dense']:.2f}s per epoch")


class TestCliDeterminism:
    def test_criterion(self, tmp_path):
        store = _synth.structured_kb(5, n_entities=60, n_relations=6, per_rel=60, dim=6)
        vocab = Vocab()
        for i in range(store.n_entities):
            vocab.add_entity(f"e{i}")
        for i in range(store.n_relations):
            vocab.add_relation(f"r{i}")
        data = tmp_path / "data"
        data.mkdir()
        for name, split in (("train.txt", store.train), ("valid.txt", store.valid),
                            ("test.txt", store.test)):
            (data / name).write_text("\n".join(_synth.decode_triples(split, vocab)) + "\n",
                                     encoding="utf-8")
        args = ["--data-dir", str(data), "--n", "6", "--m", "4", "--k", "2",
                "--gamma", "1", "--lr", "0.05", "--batch-size", "16",
                "--epochs", "30", "--eval-every", "0", "--seed", "41"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--out", str(out_a), *args]) == 0
        assert main(["train", "--out", str(out_b), *args]) == 0
        same = (out_a / "checkpoint.npz").read_bytes() == (out_b / "checkpoint.npz").read_bytes()
        verdict("bitwise-identical checkpoints from identical seed/config", same)
