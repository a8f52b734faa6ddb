"""The benchmark's own tests, at a tiny scale.

Each correctness check must agree with the engine on healthy outputs and
must fail on a planted fault.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from conceptkb import (  # noqa: E402
    Hyperparams,
    block_update,
    corrupt_batch,
    evaluate,
    load_dataset,
    make_state,
    sgd_epoch,
)
from conceptkb.sampling import DomainSampler  # noqa: E402
from conceptkb.training import batch_gradients  # noqa: E402

import checks  # noqa: E402
import kbgen  # noqa: E402
import workload  # noqa: E402

TINY = kbgen.Shape("tiny", 200, 6, 500, 40, 40, 1.0, 0.6, 4.0)
TINY_HP = Hyperparams(n=8, m=6, k=2, gamma=1.0, lr=0.01, batch_size=16,
                      sampling_mode="domain", block_budget=20)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """A tiny KB loaded from text, trained two epochs, block-updated once."""
    kb = kbgen.generate(TINY, seed=3)
    data = tmp_path_factory.mktemp("kb")
    kbgen.write_kb(kb, data)
    store, vocab = load_dataset(data)
    ent, rel = checks.store_ids(vocab, TINY.n_entities, TINY.n_relations)
    splits = tuple(checks.to_store(s, ent, rel) for s in (kb.train, kb.valid, kb.test))
    state = make_state(store, TINY_HP, seed=5)
    losses = [sgd_epoch(state, store, TINY_HP) for _ in range(2)]
    snapshot = state.params.copy()
    block_update(state.params, store, TINY_HP, seed=9)
    queries = store.test[:12]
    report = evaluate(queries, state.params, TINY_HP, store)
    raw = evaluate(queries, state.params, TINY_HP, store, filtered=False)
    return {
        "store": store, "splits": splits, "state": state, "losses": losses,
        "snapshot": snapshot, "report": report, "raw": raw,
        "queries": [(tuple(row), side) for row in queries.tolist() for side in ("head", "tail")],
        "known": checks.triple_keys(np.concatenate(splits), store.n_entities),
    }


# --- generator -------------------------------------------------------------------

def test_generator_is_deterministic_and_shaped():
    a, b = kbgen.generate(TINY, seed=1), kbgen.generate(TINY, seed=1)
    c = kbgen.generate(TINY, seed=2)
    assert all(np.array_equal(x, y) for x, y in ((a.train, b.train), (a.valid, b.valid), (a.test, b.test)))
    assert not np.array_equal(a.train, c.train)
    assert (len(a.train), len(a.valid), len(a.test)) == (TINY.n_train, TINY.n_valid, TINY.n_test)
    every = np.concatenate([a.train, a.valid, a.test])
    assert len(checks.triple_keys(every, TINY.n_entities)) == len(every)
    assert len(np.unique(every[:, [0, 2]])) == TINY.n_entities
    counts = np.bincount(a.train[:, 1], minlength=TINY.n_relations)
    assert counts.tolist() == kbgen.zipf_counts(TINY.n_train, TINY.n_relations, 1.0, 1).tolist()
    for r in range(TINY.n_relations):
        rows = a.train[a.train[:, 1] == r]
        assert len(np.unique(rows[:, 0])) < TINY.n_entities
        assert len(np.unique(rows[:, 2])) < TINY.n_entities


def test_full_shapes_have_the_stated_sizes():
    assert kbgen.WN18.n_train + kbgen.WN18.n_valid + kbgen.WN18.n_test == 151_442
    assert kbgen.FB15K.n_train + kbgen.FB15K.n_valid + kbgen.FB15K.n_test == 592_213


# --- store --------------------------------------------------------------------------

def test_store_check_agrees(engine):
    checks.check_store(engine["store"], engine["splits"], TINY.n_entities, TINY.n_relations)


def test_store_check_fails_on_a_missing_triple(engine):
    train, valid, test = engine["splits"]
    with pytest.raises(checks.CheckError):
        checks.check_store(engine["store"], (train[1:], valid, test), TINY.n_entities, TINY.n_relations)


def test_store_check_fails_on_a_lost_known_triple(engine):
    store = engine["store"]
    known = set(store.all_known)
    known.pop()
    with pytest.raises(checks.CheckError):
        checks.check_store(dataclasses.replace(store, all_known=known), engine["splits"],
                           TINY.n_entities, TINY.n_relations)


# --- SGD ----------------------------------------------------------------------------

def test_params_check_agrees(engine):
    checks.check_params(engine["state"].params)
    for loss in engine["losses"]:
        checks.check_epoch_loss(loss)


def test_params_check_fails_on_a_non_unit_row(engine):
    params = engine["state"].params.copy()
    params.entity_emb[4] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_params(params)


def test_params_check_fails_on_a_non_finite_entry(engine):
    params = engine["state"].params.copy()
    params.concept_tensor[0, 0, 0] = np.nan
    with pytest.raises(checks.CheckError):
        checks.check_params(params)


def test_epoch_loss_check_fails_on_nan_or_zero():
    for bad in (float("nan"), 0.0, float("inf")):
        with pytest.raises(checks.CheckError):
            checks.check_epoch_loss(bad)


def _batch(engine, seed):
    store = engine["store"]
    rng = np.random.default_rng(seed)
    pos = store.train[rng.choice(len(store.train), TINY_HP.batch_size, replace=False)]
    neg = corrupt_batch(pos, store, "domain", DomainSampler(store, TINY_HP.domain_lambda, rng))
    return pos, neg


def test_batch_loss_check_agrees(engine):
    params = engine["state"].params
    for seed in range(3):
        pos, neg = _batch(engine, seed)
        loss, _ = batch_gradients(params, TINY_HP, pos, neg)
        checks.check_batch_loss(params, TINY_HP, pos, neg, loss)


def test_batch_loss_check_fails_on_a_wrong_loss(engine):
    params = engine["state"].params
    pos, neg = _batch(engine, 0)
    loss, _ = batch_gradients(params, TINY_HP, pos, neg)
    with pytest.raises(checks.CheckError):
        checks.check_batch_loss(params, TINY_HP, pos, neg, loss * (1 + 1e-6))


# --- block update -----------------------------------------------------------------------

def test_support_check_agrees(engine):
    snap, params = engine["snapshot"], engine["state"].params
    checks.check_supports(snap.head_assign, snap.tail_assign, params,
                          sorted(engine["store"].by_relation), TINY_HP.k)


def test_support_check_fails_on_k_plus_one(engine):
    snap = engine["snapshot"]
    params = engine["state"].params.copy()
    row = params.head_assign[0]
    row[np.flatnonzero(row == 0)[0]] = 1
    with pytest.raises(checks.CheckError):
        checks.check_supports(snap.head_assign, snap.tail_assign, params,
                              sorted(engine["store"].by_relation), TINY_HP.k)


def test_support_check_fails_when_an_unsampled_relation_changes(engine):
    snap, params = engine["snapshot"], engine["state"].params
    changed = snap.tail_assign.copy()
    changed[1] = params.tail_assign[1][::-1]
    if np.array_equal(changed[1], params.tail_assign[1]):
        changed[1] = np.roll(changed[1], 1)
    with pytest.raises(checks.CheckError):
        checks.check_supports(snap.head_assign, changed, params, [0], TINY_HP.k)


@pytest.mark.parametrize("r,side", [(0, "head"), (2, "tail"), (5, "head")])
def test_bottom_k_check_agrees(engine, r, side):
    costs = checks.bottom_k_costs(engine["snapshot"], engine["store"], TINY_HP, r, side, 9)
    assign = engine["state"].params.head_assign if side == "head" else engine["state"].params.tail_assign
    checks.check_bottom_k(costs, np.flatnonzero(assign[r]), TINY_HP.k)


def test_bottom_k_check_fails_on_a_costlier_concept(engine):
    costs = checks.bottom_k_costs(engine["snapshot"], engine["store"], TINY_HP, 0, "head", 9)
    order = np.argsort(costs, kind="stable")
    assert costs[order[-1]] > costs[order[TINY_HP.k - 1]]
    with pytest.raises(checks.CheckError):
        checks.check_bottom_k(costs, np.array([order[0], order[-1]]), TINY_HP.k)


def test_bottom_k_check_accepts_either_side_of_a_tie():
    costs = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
    checks.check_bottom_k(costs, np.array([1, 2]), 2)
    checks.check_bottom_k(costs, np.array([1, 3]), 2)
    with pytest.raises(checks.CheckError):
        checks.check_bottom_k(costs, np.array([2, 3]), 2)


# --- ranking ---------------------------------------------------------------------------

def test_ranking_check_agrees(engine):
    checks.check_ranking(engine["report"], engine["raw"], engine["state"].params, TINY_HP,
                         engine["queries"], engine["known"])


def test_ranking_check_fails_on_a_shifted_rank(engine):
    report = engine["report"]
    shifted = dataclasses.replace(report, mean_rank=report.mean_rank + 1.0 / report.n_queries)
    with pytest.raises(checks.CheckError):
        checks.check_ranking(shifted, engine["raw"], engine["state"].params, TINY_HP,
                             engine["queries"], engine["known"])


def test_ranking_check_fails_when_filtering_raises_the_rank(engine):
    report = engine["report"]
    raw = dataclasses.replace(engine["raw"], mean_rank=report.mean_rank - 1.0)
    with pytest.raises(checks.CheckError):
        checks.check_ranking(report, raw, engine["state"].params, TINY_HP,
                             engine["queries"], engine["known"])


def test_ranking_check_fails_on_wrong_hits(engine):
    report = engine["report"]
    wrong = dataclasses.replace(report, hits_at_10=report.hits_at_10 + 100.0 / report.n_queries
                                if report.hits_at_10 < 100 else 0.0)
    with pytest.raises(checks.CheckError):
        checks.check_ranking(wrong, engine["raw"], engine["state"].params, TINY_HP,
                             engine["queries"], engine["known"])


# --- whole workloads ------------------------------------------------------------------

def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("frequent,relations", [(None, 5), (1, 2)])
def test_tiny_workload_reports_every_declared_metric(tmp_path, trace, frequent, relations):
    w = workload.Workload("tiny", TINY, TINY_HP, sgd_sample=None if frequent is None else 200,
                          block_frequent=frequent, block_rare=0 if frequent is None else 1,
                          eval_split="test", eval_triples=10, eval_relations=relations,
                          shares=(0.3, 0.3, 0.4))
    counts = workload.Counts()
    result = workload.run(w, seed=4, seconds=0.5, trace=trace, data_dir=tmp_path / "kb",
                          counts=counts)
    assert list(result["end_to_end"]) == _declared("end_to_end")
    if trace:
        assert list(result["per_layer"]) == _declared("per_layer")
        assert all(m["value"] is not None for m in result["per_layer"].values())
        assert len([s for s in result["spans"] if s["name"] == "training.batch"]) >= 100
    assert sum(counts.failed.values()) == 0
    assert all(v > 0 for v in counts.attempted.values())
    assert all(m["value"] > 0 for m in result["end_to_end"].values())


# --- failures --------------------------------------------------------------------------

TINY_WORKLOAD = workload.Workload("tiny", TINY, TINY_HP, sgd_sample=200, block_frequent=1,
                                  block_rare=1, eval_split="test", eval_triples=10,
                                  eval_relations=2, shares=(0.3, 0.3, 0.4))


def _fail(*args, **kwargs):
    raise RuntimeError("planted failure")


def _run_main(monkeypatch, capsys, trace):
    import run

    monkeypatch.setitem(workload.WORKLOADS, "tiny", TINY_WORKLOAD)
    code = run.main(["--workload", "tiny", "--seed", "4", "--seconds", "0.5",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("target,trace,metric", [
    ("sgd_epoch", 0, "sgd_triples_per_s"),
    ("apply_gradients", 1, "training.relations_per_batch"),  # the traced SGD loop
    ("block_update", 0, "block_update_s"),
    ("block_update", 1, "training.block_update_peak_mb"),
    ("evaluate", 0, "eval_queries_per_s"),
    ("evaluate", 1, "evaluation.evaluate_peak_mb"),
])
def test_a_phase_that_always_fails_still_prints_its_counts(monkeypatch, capsys, target, trace,
                                                           metric):
    monkeypatch.setattr(workload, target, _fail)
    code, line = _run_main(monkeypatch, capsys, trace)
    assert code == 1 and line["correct"] is True
    assert 0 < line["failed"] < line["attempted"]
    assert metric not in line["metrics"]
    assert set(line["metrics"]) < set(_declared("per_layer" if trace else "end_to_end"))


def test_a_failed_check_reports_the_operations_run_so_far(monkeypatch, capsys):
    def wrong(*args, **kwargs):
        raise checks.CheckError("planted")

    monkeypatch.setattr(checks, "check_ranking", wrong)
    code, line = _run_main(monkeypatch, capsys, 0)
    assert code == 1 and line["correct"] is False and line["metrics"] == {}
    assert line["attempted"] > 0 and line["failed"] == 0
