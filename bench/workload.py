"""The benchmark's workloads and the phases that measure them.

A workload generates a KB, writes it as text, sets the engine up from the
text files several times, and then spends a share of the run's seconds in
each of three phases, as ``train`` would: SGD epochs, block updates of the
supports, and filtered evaluations.  Every phase repeats whole operations
and reports the median; correctness checks run outside the timed calls.

Every call into the engine goes through a public function and is wrapped
in a span (name, start, end, parent).  With tracing on, the SGD phase runs
its own copy of the ``sgd_epoch`` loop so that sampling, forward,
backward and update show as spans of their own, and peak allocations of a
block update and an evaluation are taken under ``tracemalloc`` in extra,
untimed calls.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conceptkb import (
    Hyperparams,
    TrainingError,
    block_update,
    build_store,
    corrupt_batch,
    evaluate,
    load_dataset,
    make_state,
    sgd_epoch,
)
from conceptkb.sampling import DomainSampler
from conceptkb.training import apply_gradients, batch_gradients, batch_loss

import checks
import kbgen

SETUP_REPEATS = 5  # setup_s is their median
SETUP_BUILDS = 3   # of them, how many also time an extra build_store when traced
MIN_OPS = 3  # timed calls per phase at least, for a median; whole-split epochs run once
LOSS_CHECK_BATCHES = 3
TRACED_BATCHES_MIN = 100  # p90 needs at least ten samples beyond it
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: kbgen.Shape
    hp: Hyperparams
    sgd_sample: int | None       # training triples per SGD epoch; None: the whole split
    block_frequent: int | None   # sampled relations with >= block_budget triples; None: all relations
    block_rare: int              # sampled relations from the rarest third
    eval_split: str
    eval_triples: int            # triples per evaluate call, both sides ranked
    eval_relations: int          # distinct relations the triples of one call come from
    shares: tuple[float, float, float]  # run seconds spent in SGD, block update, evaluation


WN18_HP = Hyperparams(n=50, m=30, k=2, gamma=5.0, lr=0.01, batch_size=20,
                      sampling_mode="bernoulli")
FB15K_HP = Hyperparams(n=100, m=300, k=2, gamma=1.0, lr=0.01, batch_size=1000,
                       sampling_mode="domain")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("wn18-train", kbgen.WN18, WN18_HP, sgd_sample=None, block_frequent=None,
                 block_rare=0, eval_split="valid", eval_triples=54, eval_relations=18,
                 shares=(0.5, 0.25, 0.25)),
        Workload("fb15k-train", kbgen.FB15K, FB15K_HP, sgd_sample=10_000, block_frequent=1,
                 block_rare=2, eval_split="test", eval_triples=40, eval_relations=2,
                 shares=(0.3, 0.45, 0.25)),
        Workload("fb15k-eval", kbgen.FB15K, FB15K_HP, sgd_sample=10_000, block_frequent=0,
                 block_rare=6, eval_split="test", eval_triples=32, eval_relations=32,
                 shares=(0.25, 0.2, 0.55)),
    )
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def last(self, name: str) -> float:
        for s in reversed(self.spans):
            if s[0] == name:
                return s[2] - s[1]
        raise KeyError(name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def root_totals(self) -> dict[str, float]:
        """Total seconds of the outermost spans, by name."""
        totals: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent == -1:
                totals[name] = totals.get(name, 0.0) + end - start
        return totals

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans]


class Counts:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.attempted = {"batches": 0, "relation_sides": 0, "queries": 0}
        self.failed = {"batches": 0, "relation_sides": 0, "queries": 0}

    def add(self, kind: str, n: int, ok: bool) -> None:
        self.attempted[kind] += n
        if not ok:
            self.failed[kind] += n


def _guarded(counts: Counts, kind: str, n: int, fn) -> tuple[bool, object]:
    """Run one operation; an exception counts its ``n`` units as failed."""
    try:
        out = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        counts.add(kind, n, ok=False)
        return False, None
    counts.add(kind, n, ok=True)
    return True, out


def _interleave(phases) -> None:
    """Run rounds over ``(budget, minimum, op)`` phases in order, as
    ``train`` alternates epochs, block updates and evaluations.  A phase
    takes part in a round while it has had fewer than ``minimum`` calls or
    another call of its median length still fits in its ``budget`` seconds;
    ``op`` returns the duration of its call."""
    spent: list[list[float]] = [[] for _ in phases]

    def wants(i):
        budget, minimum, _ = phases[i]
        done = spent[i]
        return len(done) < minimum or sum(done) + statistics.median(done) <= budget

    while True:
        active = [i for i in range(len(phases)) if wants(i)]
        if not active:
            return
        for i in active:
            spent[i].append(phases[i][2]())


def _percentile(values, q: float) -> float | None:
    return float(np.percentile(np.asarray(values), q)) if len(values) else None


def _median(values) -> float | None:
    """Median of ``values``; ``None`` (metric missing) when a phase had no
    successful call."""
    return statistics.median(values) if len(values) else None


def traced_epoch(tracer: Tracer, state, store, hp: Hyperparams, stats: dict) -> float:
    """``sgd_epoch`` through its public parts, one span each; also runs the
    forward pass alone (``batch_loss``) to time it apart from backward."""
    n_train = len(store.train)
    order = state.rng.permutation(n_train)
    total = 0.0
    for start in range(0, n_train, hp.batch_size):
        pos = store.train[order[start:start + hp.batch_size]]
        with tracer.span("training.batch"):
            with tracer.span("sampling.corrupt_batch"):
                neg = corrupt_batch(pos, store, hp.sampling_mode, state.sampler, hp.domain_side_rule)
            with tracer.span("training.batch_loss"):
                batch_loss(state.params, hp, pos, neg)
            with tracer.span("training.batch_gradients"):
                loss, grads = batch_gradients(state.params, hp, pos, neg)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss!r}")
            with tracer.span("training.apply_gradients"):
                apply_gradients(state.params, hp, grads)
        total += loss
        stats["triples"] += len(pos)
        stats["relations"].append(len(np.unique(pos[:, 1])))
    state.epoch += 1
    state.running_loss = total / n_train
    return state.running_loss


def _sample_relations(rng, counts: np.ndarray, budget: int, n_frequent: int, n_rare: int):
    """``n_frequent`` relations with at least ``budget`` triples and
    ``n_rare`` from the rarest third, so every seed costs about the same."""
    present = np.flatnonzero(counts)
    frequent = present[counts[present] >= budget]
    by_count = present[np.argsort(counts[present], kind="stable")]
    rare = by_count[: len(by_count) // 3]
    return np.concatenate([rng.choice(frequent, n_frequent, replace=False),
                           rng.choice(rare, n_rare, replace=False)])


def _draw_queries(rng, split: np.ndarray, w: Workload) -> np.ndarray:
    """An equal share of ``eval_triples`` from each of ``eval_relations``
    distinct relations drawn by frequency, so that every call touches the
    same number of relation sides."""
    per = w.eval_triples // w.eval_relations
    counts = np.bincount(split[:, 1]).astype(float)
    counts[counts < per] = 0.0
    rels = rng.choice(len(counts), w.eval_relations, replace=False, p=counts / counts.sum())
    return np.concatenate([split[np.sort(rng.choice(np.flatnonzero(split[:, 1] == r), per, replace=False))]
                           for r in rels])


def run(w: Workload, seed: int, seconds: float, trace: bool, data_dir: Path,
        counts: Counts) -> dict:
    """Run one workload; returns metrics and check results, and tallies the
    operations in ``counts`` as they go, so that a run stopped by a failed
    check still reports them.  A metric whose phase had no successful call
    is ``None``."""
    hp = w.hp
    tracer = Tracer()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE]))
    info: dict = {}

    with tracer.span("bench.generate"):
        kb = kbgen.generate(w.shape, seed)
        kbgen.write_kb(kb, data_dir)

    # --- set-up, repeated; the last one is kept
    setup = []
    for i in range(SETUP_REPEATS):
        store = vocab = state = None
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("data.load_dataset"):
            store, vocab = load_dataset(data_dir)
        with tracer.span("training.make_state"):
            state = make_state(store, hp, seed)
        setup.append(time.perf_counter() - t0)
        if trace and i < SETUP_BUILDS:
            with tracer.span("data.build_store"):
                build_store(store.train, store.valid, store.test, store.n_entities, store.n_relations)
    params = state.params

    with tracer.span("bench.check_store"):
        ent_ids, rel_ids = checks.store_ids(vocab, w.shape.n_entities, w.shape.n_relations)
        splits = tuple(checks.to_store(s, ent_ids, rel_ids) for s in (kb.train, kb.valid, kb.test))
        checks.check_store(store, splits, w.shape.n_entities, w.shape.n_relations)
        known_keys = checks.triple_keys(np.concatenate(splits), store.n_entities)
    del kb, splits

    # --- stores the phases run on
    if w.sgd_sample is None:
        sgd_store = store
    else:
        rows = store.train[np.sort(rng.choice(len(store.train), w.sgd_sample, replace=False))]
        sgd_store = build_store(rows, n_entities=store.n_entities, n_relations=store.n_relations)
    if w.block_frequent is None:
        block_store = store
    else:
        rel_counts = np.bincount(store.train[:, 1], minlength=store.n_relations)
        rels = _sample_relations(rng, rel_counts, hp.block_budget, w.block_frequent, w.block_rare)
        rows = np.concatenate([store.by_relation[int(r)] for r in rels])
        block_store = build_store(rows, n_entities=store.n_entities, n_relations=store.n_relations)
    eval_split = getattr(store, w.eval_split)
    batches_per_epoch = -(-len(sgd_store.train) // hp.batch_size)
    sgd_budget, block_budget, eval_budget = (share * seconds for share in w.shares)

    # --- the three phases' operations, interleaved below
    losses: list[float] = []
    epoch_rates: list[float] = []
    sgd_stats = {"triples": 0, "relations": [], "last_ok": True}

    def sgd_op():
        with tracer.span("training.sgd_epoch"):
            if trace:
                ok, loss = _guarded(counts, "batches", batches_per_epoch,
                                    lambda: traced_epoch(tracer, state, sgd_store, hp, sgd_stats))
            else:
                ok, loss = _guarded(counts, "batches", batches_per_epoch,
                                    lambda: sgd_epoch(state, sgd_store, hp))
        dt = tracer.last("training.sgd_epoch")
        if ok:
            losses.append(loss)
            epoch_rates.append(len(sgd_store.train) / dt)
        sgd_stats["last_ok"] = ok
        return dt

    updated = sorted(block_store.by_relation)
    n_sides = 2 * len(updated)
    first_block: dict = {}
    block_times: list[float] = []

    def block_op():
        before = (params.head_assign.copy(), params.tail_assign.copy())
        bseed = int(state.block_rng.integers(2**31))
        if not first_block:
            first_block.update(snapshot=params.copy(), seed=bseed)
        with tracer.span("training.block_update"):
            ok, _ = _guarded(counts, "relation_sides", n_sides,
                             lambda: block_update(params, block_store, hp, seed=bseed))
        dt = tracer.last("training.block_update")
        if ok:
            block_times.append(dt)
            checks.check_supports(*before, params, updated, hp.k)
            first_block.setdefault("after", (params.head_assign.copy(), params.tail_assign.copy()))
        return dt

    eval_times: list[float] = []
    eval_rates: list[float] = []
    eval_sides: list[int] = []
    first_queries: list = []

    def eval_op():
        split = _draw_queries(rng, eval_split, w)
        n_q = 2 * len(split)
        with tracer.span("evaluation.evaluate"):
            ok, report = _guarded(counts, "queries", n_q, lambda: evaluate(split, params, hp, store))
        dt = tracer.last("evaluation.evaluate")
        if not ok:
            return dt
        eval_times.append(dt)
        eval_rates.append(report.n_queries / dt)
        eval_sides.append(2 * len(np.unique(split[:, 1])))
        if trace or not first_queries:
            with tracer.span("evaluation.evaluate_raw"):
                raw = evaluate(split, params, hp, store, filtered=False)
        if not first_queries:
            first_queries.append(split)
            queries = [(tuple(row), side) for row in split.tolist() for side in ("head", "tail")]
            with tracer.span("bench.check_ranking"):
                checks.check_ranking(report, raw, params, hp, queries, known_keys)
        return dt

    _interleave([(sgd_budget, 1 if w.sgd_sample is None else MIN_OPS, sgd_op),
                 (block_budget, MIN_OPS, block_op),
                 (eval_budget, MIN_OPS, eval_op)])
    if trace:
        # top up the traced batches for the percentiles; an epoch that fails
        # would fail again, so stop at the first one
        while len(sgd_stats["relations"]) < TRACED_BATCHES_MIN and sgd_stats["last_ok"]:
            sgd_op()

    with tracer.span("bench.check_sgd"):
        for loss in losses:
            checks.check_epoch_loss(loss)
        checks.check_params(params)
        check_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1055]))
        sampler = DomainSampler(sgd_store, hp.domain_lambda, check_rng)
        for _ in range(LOSS_CHECK_BATCHES):
            pos = sgd_store.train[check_rng.choice(len(sgd_store.train), hp.batch_size, replace=False)]
            neg = corrupt_batch(pos, sgd_store, hp.sampling_mode, sampler, hp.domain_side_rule)
            loss, _ = batch_gradients(params, hp, pos, neg)
            checks.check_batch_loss(params, hp, pos, neg, loss)

    # bottom-k oracle through scalar energies, on a seeded side among the
    # relations with the fewest scored pairs
    if "after" in first_block:
        with tracer.span("bench.check_bottom_k"):
            pairs = {r: min(len(block_store.by_relation[r]), hp.block_budget) for r in updated}
            fewest = min(pairs.values())
            r = int(rng.choice([q for q in updated if pairs[q] == fewest]))
            side = ("head", "tail")[int(rng.integers(2))]
            costs = checks.bottom_k_costs(first_block["snapshot"], block_store, hp, r, side,
                                          first_block["seed"])
            after = first_block["after"][0 if side == "head" else 1]
            checks.check_bottom_k(costs, np.flatnonzero(after[r]), hp.k)
        info["bottom_k_checked"] = {"relation": r, "side": side, "pairs": pairs[r]}
    del first_block

    peaks = {}
    if trace:
        block_params = params.copy()
        peak_calls = [("training.block_update_peak_mb",
                       lambda: block_update(block_params, block_store, hp, seed=seed))]
        if first_queries:
            peak_calls.append(("evaluation.evaluate_peak_mb",
                               lambda: evaluate(first_queries[0], params, hp, store)))
        for name, fn in peak_calls:
            gc.collect()
            tracemalloc.start()
            try:  # untimed and uncounted; a failure leaves the peak missing
                fn()
                peaks[name] = tracemalloc.get_traced_memory()[1] / MB
            except Exception:
                traceback.print_exc(file=sys.stderr)
            finally:
                tracemalloc.stop()

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "sgd_triples_per_s": (_median(epoch_rates), "triples/s"),
        "block_update_s": (_median(block_times), "s"),
        "eval_queries_per_s": (_median(eval_rates), "queries/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result = {
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "samples": {
            "setup": len(setup), "sgd_epochs": len(epoch_rates),
            "block_updates": len(block_times),
            "evaluate_calls": len(eval_rates),
            "batches_per_epoch": batches_per_epoch, "block_sides": n_sides,
        },
        "checks": info,
        "seconds_by_span": tracer.root_totals(),
        "values": {
            "setup_s": setup, "sgd_triples_per_s": epoch_rates,
            "block_update_s": block_times,
            "eval_queries_per_s": eval_rates, "eval_relation_sides": eval_sides,
        },
    }
    if trace:
        result["per_layer"] = _per_layer(tracer, sgd_stats, block_times, eval_times, n_sides,
                                         eval_sides, peaks)
        result["spans"] = tracer.to_json()
    return result


def _per_layer(tracer: Tracer, sgd_stats: dict, block_times, eval_times, n_sides: int,
               eval_sides, peaks) -> dict:
    """Per-layer metrics of a traced run; ``None`` where a layer had no
    successful call."""
    ms = lambda name: [1e3 * d for d in tracer.durations(name)]  # noqa: E731
    corrupt_s = sum(tracer.durations("sampling.corrupt_batch"))
    triples, relations = sgd_stats["triples"], sgd_stats["relations"]
    values = {
        "data.load_dataset_s": (_median(tracer.durations("data.load_dataset")), "s"),
        "data.build_store_s": (_median(tracer.durations("data.build_store")), "s"),
        "training.make_state_s": (_median(tracer.durations("training.make_state")), "s"),
        "sampling.corrupt_batch_us_per_triple": (1e6 * corrupt_s / triples if triples else None, "us"),
        "training.batch_loss_ms.p50": (_percentile(ms("training.batch_loss"), 50), "ms"),
        "training.batch_loss_ms.p90": (_percentile(ms("training.batch_loss"), 90), "ms"),
        "training.batch_gradients_ms.p50": (_percentile(ms("training.batch_gradients"), 50), "ms"),
        "training.batch_gradients_ms.p90": (_percentile(ms("training.batch_gradients"), 90), "ms"),
        "training.apply_gradients_ms.p50": (_percentile(ms("training.apply_gradients"), 50), "ms"),
        "training.relations_per_batch": (float(np.mean(relations)) if relations else None, "count"),
        "training.block_update_s": (_median(block_times), "s"),
        "training.block_update_peak_mb": (peaks.get("training.block_update_peak_mb"), "MB"),
        "training.block_sides": (n_sides, "count"),
        "evaluation.evaluate_s": (_median(eval_times), "s"),
        "evaluation.evaluate_raw_s": (_median(tracer.durations("evaluation.evaluate_raw")), "s"),
        "evaluation.evaluate_peak_mb": (peaks.get("evaluation.evaluate_peak_mb"), "MB"),
        "evaluation.relation_sides": (_median(eval_sides), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
