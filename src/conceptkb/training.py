"""Minibatch SGD on the hinge objective plus block support reassignment.

The parameters split into a dense partition (embeddings, concept matrices,
pre-softmax scores), trained by SGD with the assignment vectors held
fixed, and a sparse partition (the assignment vectors themselves), updated
by periodically scoring every concept as the sole projector of each
relation side and keeping the k cheapest.  Entity rows are renormalized to
unit length after every optimizer step.

Energies of projected vectors are additionally kept near the unit ball by
a hinged penalty on the squared projected norms, since the projected
vectors are derived quantities rather than stored parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import TripleStore
from .model import (
    SIDE_HEAD,
    SIDE_TAIL,
    Hyperparams,
    ModelParams,
    compose,
    init_params,
    single_matrix_energy,
)
from .sampling import DomainSampler, corrupt_batch


class TrainingError(RuntimeError):
    """Non-finite loss or another unrecoverable optimization failure."""


def hinge_loss(pos_energy: float, neg_energy: float, gamma: float) -> float:
    """max(gamma + pos - neg, 0)."""
    return max(gamma + pos_energy - neg_energy, 0.0)


def _norms(u: np.ndarray, ell: int) -> np.ndarray:
    if ell == 1:
        return np.abs(u).sum(axis=1)
    return np.sqrt((u * u).sum(axis=1))


def _norm_grad(u: np.ndarray, norms: np.ndarray, ell: int) -> np.ndarray:
    """Subgradient of the norm; 0 at the nondifferentiable points."""
    if ell == 1:
        return np.sign(u)
    safe = np.where(norms > 0, norms, 1.0)
    return np.where(norms[:, None] > 0, u / safe[:, None], 0.0)


def _relation_groups(rels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unique relations of a batch and, for each, its ascending row positions."""
    uniq, inv = np.unique(rels, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    return uniq, np.split(order, np.cumsum(np.bincount(inv))[:-1])


def _forward(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray):
    """Shared forward pass over a batch of (positive, corrupted) pairs.

    Returns everything both the loss and the gradients need: projected
    entities, norm subgradient inputs, hinge activity, penalty slacks, and
    the batch's relation groups with their composed projections.
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 3)
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    h2, t2 = neg[:, 0], neg[:, 2]
    ent = params.entity_emb
    eh, et, eh2, et2 = ent[h], ent[t], ent[h2], ent[t2]

    translating = hp.model == "transe"
    uniq, groups = _relation_groups(r)
    if translating:
        comp = None
        ph, pt, ph2, pt2 = eh, et, eh2, et2
    else:
        comp = (compose(params, hp, SIDE_HEAD, uniq), compose(params, hp, SIDE_TAIL, uniq))
        (_, _, w_h), (_, _, w_t) = comp
        ph = np.empty_like(eh)
        pt = np.empty_like(et)
        ph2 = np.empty_like(eh2)
        pt2 = np.empty_like(et2)
        for u, idx in enumerate(groups):
            heads = np.concatenate([eh[idx], eh2[idx]]) @ w_h[u].T
            tails = np.concatenate([et[idx], et2[idx]]) @ w_t[u].T
            b = len(idx)
            ph[idx], ph2[idx] = heads[:b], heads[b:]
            pt[idx], pt2[idx] = tails[:b], tails[b:]

    rv = params.relation_emb[r]
    u_pos = ph + rv - pt
    u_neg = ph2 + rv - pt2
    e_pos = _norms(u_pos, hp.ell)
    e_neg = _norms(u_neg, hp.ell)
    margins = hp.gamma + e_pos - e_neg
    active = margins > 0
    # maximum() propagates NaN energies into the loss so the caller's
    # finite check can abort with diagnostics
    loss = float(np.maximum(margins, 0.0).sum())

    # hinged penalty keeping projected positive entities near unit norm
    q_h = q_t = None
    if hp.proj_penalty > 0 and not translating:
        slack_h = (ph * ph).sum(axis=1) - 1.0
        slack_t = (pt * pt).sum(axis=1) - 1.0
        loss += hp.proj_penalty * (
            float(np.clip(slack_h, 0, None).sum()) + float(np.clip(slack_t, 0, None).sum())
        )
        q_h = 2.0 * hp.proj_penalty * ph * (slack_h > 0)[:, None]
        q_t = 2.0 * hp.proj_penalty * pt * (slack_t > 0)[:, None]

    if hp.attention_mode == "dense_l1" and not translating:
        for rr, idx in zip(uniq.tolist(), groups):
            weight_mass = np.abs(params.head_scores[rr]).sum() + np.abs(params.tail_scores[rr]).sum()
            loss += hp.l1_coef * weight_mass * len(idx)

    return {
        "pos": pos, "neg": neg, "uniq": uniq, "groups": groups, "comp": comp, "loss": loss,
        "eh": eh, "et": et, "eh2": eh2, "et2": et2,
        "ph": ph, "pt": pt,
        "u_pos": u_pos, "u_neg": u_neg, "e_pos": e_pos, "e_neg": e_neg,
        "active": active, "q_h": q_h, "q_t": q_t,
    }


def batch_loss(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray) -> float:
    """Total batch objective (hinge terms plus any penalties)."""
    return _forward(params, hp, pos, neg)["loss"]


def _accumulate(acc: dict[int, np.ndarray], act: np.ndarray, weights: np.ndarray, s: np.ndarray) -> None:
    """Add ``weight * s`` to the gradient of every concept of nonzero weight."""
    for i, w in zip(act.tolist(), weights.tolist()):
        if w:
            if i in acc:
                acc[i] += w * s
            else:
                acc[i] = w * s


def _score_gradient(D, act, weights, s, tau: float, m: int) -> np.ndarray:
    """Gradient of one side's pre-softmax scores through its softmax."""
    a_act = np.einsum("ijk,jk->i", D[act], s)
    g = np.zeros(m)
    g[act] = weights / tau * (a_act - weights @ a_act)
    return g


def batch_gradients(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray):
    """Subgradients of :func:`batch_loss` w.r.t. the dense partition.

    Returns ``(loss, grads)`` where grads holds sparse per-id updates:
    ``entity`` / ``relation`` as (ids, rows), ``concept`` as {slice: (n, n)},
    ``head_scores`` / ``tail_scores`` as {relation: (m,)}.
    """
    fw = _forward(params, hp, pos, neg)
    pos, neg = fw["pos"], fw["neg"]
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    h2, t2 = neg[:, 0], neg[:, 2]
    active = fw["active"]

    g_pos = _norm_grad(fw["u_pos"], fw["e_pos"], hp.ell) * active[:, None]
    g_neg = _norm_grad(fw["u_neg"], fw["e_neg"], hp.ell) * active[:, None]
    q_h, q_t = fw["q_h"], fw["q_t"]
    coef_h = g_pos if q_h is None else g_pos + q_h         # multiplies h rows
    coef_t = -g_pos if q_t is None else -g_pos + q_t       # multiplies t rows

    concept: dict[int, np.ndarray] = {}
    head_scores: dict[int, np.ndarray] = {}
    tail_scores: dict[int, np.ndarray] = {}
    if fw["comp"] is None:
        gh, gt, gh2, gt2 = coef_h, coef_t, -g_neg, g_neg
    else:
        gh = np.empty_like(coef_h)
        gt = np.empty_like(coef_t)
        gh2 = np.empty_like(g_neg)
        gt2 = np.empty_like(g_neg)
        D = params.concept_tensor
        eh, et, eh2, et2 = fw["eh"], fw["et"], fw["eh2"], fw["et2"]
        (act_h, alpha_h, w_h), (act_t, alpha_t, w_t) = fw["comp"]
        for u, (rr, idx) in enumerate(zip(fw["uniq"].tolist(), fw["groups"])):
            coef_heads = np.concatenate([coef_h[idx], -g_neg[idx]])
            coef_tails = np.concatenate([coef_t[idx], g_neg[idx]])
            heads = coef_heads @ w_h[u]
            tails = coef_tails @ w_t[u]
            b = len(idx)
            gh[idx], gh2[idx] = heads[:b], heads[b:]
            gt[idx], gt2[idx] = tails[:b], tails[b:]

            s_head = coef_heads.T @ np.concatenate([eh[idx], eh2[idx]])
            s_tail = coef_tails.T @ np.concatenate([et[idx], et2[idx]])
            _accumulate(concept, act_h[u], alpha_h[u], s_head)
            _accumulate(concept, act_t[u], alpha_t[u], s_tail)
            if hp.attention_mode == "dense_l1":
                l1 = hp.l1_coef * b
                head_scores[rr] = (
                    np.einsum("ijk,jk->i", D, s_head) + l1 * np.sign(params.head_scores[rr])
                )
                tail_scores[rr] = (
                    np.einsum("ijk,jk->i", D, s_tail) + l1 * np.sign(params.tail_scores[rr])
                )
            else:
                head_scores[rr] = _score_gradient(D, act_h[u], alpha_h[u], s_head, hp.tau, params.m)
                tail_scores[rr] = _score_gradient(D, act_t[u], alpha_t[u], s_tail, hp.tau, params.m)

    ids = np.concatenate([h, t, h2, t2])
    vecs = np.concatenate([gh, gt, gh2, gt2])
    uids, uinv = np.unique(ids, return_inverse=True)
    ent_acc = np.zeros((len(uids), params.n))
    np.add.at(ent_acc, uinv, vecs)

    rel_acc = np.zeros((len(fw["uniq"]), params.n))
    np.add.at(rel_acc, np.searchsorted(fw["uniq"], r), g_pos - g_neg)

    grads = {
        "entity": (uids, ent_acc),
        "relation": (fw["uniq"], rel_acc),
        "concept": concept,
        "head_scores": head_scores,
        "tail_scores": tail_scores,
    }
    return fw["loss"], grads


def apply_gradients(params: ModelParams, hp: Hyperparams, grads: dict) -> None:
    """One lr-scaled step, then renormalize every touched entity row.

    Rows whose step is exactly zero are left alone: they are already unit
    norm from the previous step, so skipping keeps null updates bitwise
    null instead of churning last bits through a redundant renormalize.
    A stepped row whose norm is not finite (an overflowing step) raises
    :class:`TrainingError` before any parameter changes.
    """
    lr = hp.lr
    uids, ent_acc = grads["entity"]
    delta = lr * ent_acc
    moved = np.any(delta != 0.0, axis=1)
    if moved.any():
        uids = uids[moved]
        rows = params.entity_emb[uids] - delta[moved]
        nrm = np.linalg.norm(rows, axis=1, keepdims=True)
        bad = np.flatnonzero(~np.isfinite(nrm[:, 0]))
        if len(bad):
            raise TrainingError(
                f"entity row {int(uids[bad[0]])} has norm {float(nrm[bad[0], 0])!r} after "
                f"a step (lr={hp.lr}); lower the learning rate"
            )
        nrm[nrm == 0] = 1.0
        params.entity_emb[uids] = rows / nrm

    urel, rel_acc = grads["relation"]
    params.relation_emb[urel] -= lr * rel_acc
    for i, g in grads["concept"].items():
        params.concept_tensor[i] -= lr * g
    for rr, g in grads["head_scores"].items():
        params.head_scores[rr] -= lr * g
    for rr, g in grads["tail_scores"].items():
        params.tail_scores[rr] -= lr * g
    if hp.attention_mode == "dense_l1":
        for rr in grads["head_scores"]:
            np.maximum(params.head_scores[rr], 0.0, out=params.head_scores[rr])
            np.maximum(params.tail_scores[rr], 0.0, out=params.tail_scores[rr])


@dataclass
class TrainState:
    """Mutable optimization state threaded through epochs."""

    params: ModelParams
    rng: np.random.Generator
    block_rng: np.random.Generator
    sampler: DomainSampler
    epoch: int = 0
    running_loss: float = 0.0


def make_state(
    store: TripleStore,
    hp: Hyperparams,
    seed: int,
    warm_start: ModelParams | None = None,
) -> TrainState:
    params = init_params(store.n_entities, store.n_relations, hp, seed, warm_start)
    ss = np.random.SeedSequence([seed, 0x5D])
    epoch_child, block_child = ss.spawn(2)
    rng = np.random.default_rng(epoch_child)
    return TrainState(
        params=params,
        rng=rng,
        block_rng=np.random.default_rng(block_child),
        sampler=DomainSampler(store, hp.domain_lambda, rng),
    )


def _block_updates_enabled(hp: Hyperparams) -> bool:
    return hp.model == "itransf" and hp.attention_mode == "sparse"


def sgd_epoch(state: TrainState, store: TripleStore, hp: Hyperparams) -> float:
    """One pass over the shuffled training set; returns the mean pair loss.

    Assignment vectors stay fixed for the whole epoch; each positive gets
    one corrupted partner drawn under the configured sampling mode.
    """
    n_train = len(store.train)
    if n_train == 0:
        state.epoch += 1
        state.running_loss = 0.0
        return 0.0
    order = state.rng.permutation(n_train)
    total = 0.0
    for start in range(0, n_train, hp.batch_size):
        batch_idx = order[start:start + hp.batch_size]
        pos = store.train[batch_idx]
        neg = corrupt_batch(pos, store, hp.sampling_mode, state.sampler, hp.domain_side_rule)
        loss, grads = batch_gradients(state.params, hp, pos, neg)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss {loss!r} at epoch {state.epoch + 1}, "
                f"batch starting at {start} (lr={hp.lr}, gamma={hp.gamma})"
            )
        apply_gradients(state.params, hp, grads)
        total += loss
    state.epoch += 1
    state.running_loss = total / n_train
    return state.running_loss


def _block_pairs(
    store: TripleStore,
    r: int,
    side: str,
    hp: Hyperparams,
    budget: int | None,
    seed: int,
    sampler: DomainSampler | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Positive/corrupted pairs used to score relation r's concepts.

    The draw depends on (seed, r, side) only, never on the concept index,
    so every concept is scored on identical pairs.  ``sampler`` supplies
    the domain probabilities (built from ``store`` when omitted); its own
    generator is not used.
    """
    rows = store.by_relation.get(r)
    if rows is None or len(rows) == 0:
        empty = np.zeros((0, 3), dtype=np.int64)
        return empty, empty
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 0 if side == SIDE_HEAD else 1]))
    if budget is not None and len(rows) > budget:
        rows = rows[rng.choice(len(rows), size=budget, replace=False)]
    if sampler is None:
        sampler = DomainSampler(store, hp.domain_lambda)
    neg = corrupt_batch(rows, store, hp.sampling_mode, sampler.reseeded(rng), hp.domain_side_rule)
    return rows, neg


def single_matrix_cost(
    side: str,
    r: int,
    i: int,
    store: TripleStore,
    params: ModelParams,
    hp: Hyperparams,
    budget: int | None = None,
    seed: int = 0,
) -> float:
    """Hinge cost of relation r with concept i as its sole ``side`` projector.

    Summed over the relation's (possibly budget-subsampled) training triples
    with freshly corrupted partners; defined directly through the scalar
    energies, one pair at a time.
    """
    pos, neg = _block_pairs(store, r, side, hp, budget, seed)
    cost = 0.0
    for (ph_, pr_, pt_), (nh_, _, nt_) in zip(pos.tolist(), neg.tolist()):
        e_pos = single_matrix_energy(side, i, ph_, pr_, pt_, params, hp)
        e_neg = single_matrix_energy(side, i, nh_, pr_, nt_, params, hp)
        cost += hinge_loss(e_pos, e_neg, hp.gamma)
    return cost


def _side_costs(
    store: TripleStore,
    r: int,
    side: str,
    params: ModelParams,
    hp: Hyperparams,
    seed: int,
    sampler: DomainSampler,
) -> np.ndarray | None:
    """All m single-concept costs of one relation side, vectorized."""
    pos, neg = _block_pairs(store, r, side, hp, hp.block_budget, seed, sampler)
    if len(pos) == 0:
        return None
    ent = params.entity_emb
    D = params.concept_tensor
    other = SIDE_TAIL if side == SIDE_HEAD else SIDE_HEAD
    w_other = compose(params, hp, other, [r])[2][0]
    rv = params.relation_emb[r]
    if side == SIDE_HEAD:
        fixed_pos = rv - ent[pos[:, 2]] @ w_other.T
        fixed_neg = rv - ent[neg[:, 2]] @ w_other.T
        var_pos = np.einsum("ijk,bk->ibj", D, ent[pos[:, 0]])
        var_neg = np.einsum("ijk,bk->ibj", D, ent[neg[:, 0]])
        u_pos = var_pos + fixed_pos[None]
        u_neg = var_neg + fixed_neg[None]
    else:
        fixed_pos = ent[pos[:, 0]] @ w_other.T + rv
        fixed_neg = ent[neg[:, 0]] @ w_other.T + rv
        var_pos = np.einsum("ijk,bk->ibj", D, ent[pos[:, 2]])
        var_neg = np.einsum("ijk,bk->ibj", D, ent[neg[:, 2]])
        u_pos = fixed_pos[None] - var_pos
        u_neg = fixed_neg[None] - var_neg
    if hp.ell == 1:
        e_pos = np.abs(u_pos).sum(axis=2)
        e_neg = np.abs(u_neg).sum(axis=2)
    else:
        e_pos = np.sqrt((u_pos * u_pos).sum(axis=2))
        e_neg = np.sqrt((u_neg * u_neg).sum(axis=2))
    return np.maximum(hp.gamma + e_pos - e_neg, 0.0).sum(axis=1)


def block_update(params: ModelParams, store: TripleStore, hp: Hyperparams, seed: int = 0) -> None:
    """Reassign every relation's head and tail supports to the k cheapest
    concepts.

    Costs for both sides are computed against the pre-update attentions
    (a simultaneous update), and ties keep the lower concept index.
    Relations absent from training keep their current supports.
    """
    sampler = DomainSampler(store, hp.domain_lambda)
    new_head: dict[int, np.ndarray] = {}
    new_tail: dict[int, np.ndarray] = {}
    for r in store.by_relation:
        for side, out in ((SIDE_HEAD, new_head), (SIDE_TAIL, new_tail)):
            costs = _side_costs(store, r, side, params, hp, seed, sampler)
            if costs is None:
                continue
            out[r] = np.sort(np.argsort(costs, kind="stable")[: hp.k])
    for r, chosen in new_head.items():
        params.head_assign[r] = 0
        params.head_assign[r, chosen] = 1
    for r, chosen in new_tail.items():
        params.tail_assign[r] = 0
        params.tail_assign[r, chosen] = 1


def train(
    store: TripleStore,
    hp: Hyperparams,
    seed: int,
    warm_start: ModelParams | None = None,
    eval_split: np.ndarray | None = None,
    eval_every: int = 0,
    early_stop_patience: int = 0,
    log_fn=None,
    on_epoch=None,
) -> tuple[ModelParams, dict]:
    """Full optimization loop: SGD epochs interleaved with block updates.

    Block updates run every ``hp.block_every`` epochs while the epoch count
    has not passed ``hp.effective_block_stop()`` (they only apply to the
    sparse-attention shared-concept model).  Optional validation metrics
    are recorded every ``eval_every`` epochs; with ``early_stop_patience``
    > 0 training stops once hits@10 has not improved for that many epochs.
    ``on_epoch(state, epoch, loss)`` may return True to stop early.
    """
    from .evaluation import evaluate  # local import; evaluation depends on model only

    state = make_state(store, hp, seed, warm_start)
    history: dict = {"epochs": [], "block_updates": [], "evals": [], "stopped_epoch": None}
    block_stop = hp.effective_block_stop()
    best_metric = -np.inf
    best_epoch = 0
    for epoch in range(1, hp.epochs + 1):
        t0 = time.perf_counter()
        loss = sgd_epoch(state, store, hp)
        wall = time.perf_counter() - t0
        history["epochs"].append({"epoch": epoch, "loss": loss, "seconds": wall})
        if log_fn:
            log_fn(f"epoch={epoch} loss={loss:.6f} wall={wall:.2f}s")

        if (
            _block_updates_enabled(hp)
            and hp.block_every > 0
            and epoch % hp.block_every == 0
            and epoch <= block_stop
        ):
            bseed = int(state.block_rng.integers(2**31))
            block_update(state.params, store, hp, seed=bseed)
            history["block_updates"].append({"epoch": epoch, "seed": bseed})

        if eval_every and eval_split is not None and len(eval_split) and epoch % eval_every == 0:
            report = evaluate(eval_split, state.params, hp, store)
            history["evals"].append(
                {"epoch": epoch, "mean_rank": report.mean_rank, "hits_at_10": report.hits_at_10}
            )
            if log_fn:
                log_fn(
                    f"eval epoch={epoch} mean_rank={report.mean_rank:.1f} "
                    f"hits@10={report.hits_at_10:.2f}"
                )
            if report.hits_at_10 > best_metric:
                best_metric = report.hits_at_10
                best_epoch = epoch
            elif early_stop_patience and epoch - best_epoch >= early_stop_patience:
                history["stopped_epoch"] = epoch
                if log_fn:
                    log_fn(f"early stop at epoch {epoch} (best hits@10 at {best_epoch})")
                break

        if on_epoch and on_epoch(state, epoch, loss):
            history["stopped_epoch"] = epoch
            break
    return state.params, history
