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

A batch is stable-sorted by relation once, so each relation's pairs form
one contiguous slice that is projected and differentiated with a few
matmuls.  Gradients come back in one format for every parameter array:
the sorted unique ids of the touched rows and their gradient rows.

Block reassignment screens a relation side's concepts in float32, in
chunks under a fixed byte cap (:data:`BLOCK_CHUNK_BYTES`), each chunk with
one BLAS product per pass over its pairs.  A proven bound on each screened
cost (:mod:`conceptkb.bounds`) rules out every concept that cannot be among
the k cheapest; the few left are re-scored in float64, one concept at a
time, and the support is the stable bottom-k of those float64 costs.  They
agree with the scalar :func:`single_matrix_cost` to rounding, not bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import _NORM_LIMIT, _error_bound, _matrix_norm
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


# byte cap of the float32 (B, c, n) buffer that the block screen projects a
# chunk of c concepts into; 32 MiB holds 167 concepts of 500 pairs at n=100
BLOCK_CHUNK_BYTES = 32 * 2**20


class TrainingError(RuntimeError):
    """Non-finite loss or another unrecoverable optimization failure."""


def hinge_loss(pos_energy: float, neg_energy: float, gamma: float) -> float:
    """max(gamma + pos - neg, 0)."""
    return max(gamma + pos_energy - neg_energy, 0.0)


def _norms(u: np.ndarray, ell: int) -> np.ndarray:
    if ell == 1:
        return np.abs(u).sum(axis=-1)
    return np.sqrt((u * u).sum(axis=-1))


def _norm_grad(u: np.ndarray, norms: np.ndarray, ell: int) -> np.ndarray:
    """Subgradient of the norm; 0 at the nondifferentiable points."""
    if ell == 1:
        return np.sign(u)
    safe = np.where(norms > 0, norms, 1.0)
    return np.where(norms[..., None] > 0, u / safe[..., None], 0.0)


def _slices(bounds: np.ndarray):
    """``(j, start, end)`` of every relation slice of the sorted batch."""
    return zip(range(len(bounds) - 1), bounds[:-1].tolist(), bounds[1:].tolist())


def _forward(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray):
    """Shared forward pass over a batch of (positive, corrupted) pairs.

    The pairs are stable-sorted by relation once (``order``), so relation
    ``uniq[j]`` owns the slice ``bounds[j]:bounds[j + 1]`` of every per-pair
    array, and ``slot`` holds each sorted pair's ``j``.  ``ids`` (2, 2, B)
    and the gathered rows ``x`` (2, 2, B, n) hold the head side, then the
    tail side, each as positives then corrupted partners; ``p`` holds the
    projections of ``x`` in the same layout, ``u`` (2, B, n) the positive
    and corrupted difference vectors.
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 3)
    order = np.argsort(pos[:, 1], kind="stable")
    r = pos[order, 1]
    uniq, starts, slot = np.unique(r, return_index=True, return_inverse=True)
    bounds = np.append(starts, len(order))
    ids = np.stack([pos[order], neg[order]])[..., [0, 2]].transpose(2, 0, 1)
    x = params.entity_emb[ids]
    n = params.n

    comp = None
    if hp.model == "transe":
        p = x
    else:
        comp = (compose(params, hp, SIDE_HEAD, uniq), compose(params, hp, SIDE_TAIL, uniq))
        p = np.empty_like(x)
        for j, s, e in _slices(bounds):
            for side, (_, _, W) in enumerate(comp):
                p[side, :, s:e] = (x[side, :, s:e].reshape(-1, n) @ W[j].T).reshape(2, -1, n)

    u = p[0] + params.relation_emb[r] - p[1]
    energies = _norms(u, hp.ell)
    margins = hp.gamma + energies[0] - energies[1]
    active = margins > 0
    # maximum() propagates NaN energies into the loss so the caller's
    # finite check can abort with diagnostics
    loss = float(np.maximum(margins, 0.0).sum())

    # hinged penalty keeping projected positive entities near unit norm
    q = None
    if hp.proj_penalty > 0 and comp is not None:
        slack = (p[:, 0] * p[:, 0]).sum(axis=-1) - 1.0
        loss += hp.proj_penalty * (
            float(np.clip(slack[0], 0, None).sum()) + float(np.clip(slack[1], 0, None).sum())
        )
        q = 2.0 * hp.proj_penalty * p[:, 0] * (slack > 0)[..., None]

    if hp.attention_mode == "dense_l1" and comp is not None:
        mass = (np.abs(params.head_scores[uniq]).sum(axis=1)
                + np.abs(params.tail_scores[uniq]).sum(axis=1))
        loss += float((hp.l1_coef * mass * np.diff(bounds)).sum())

    return {
        "order": order, "uniq": uniq, "bounds": bounds, "slot": slot, "comp": comp, "loss": loss,
        "ids": ids, "x": x, "p": p, "u": u, "energies": energies, "active": active, "q": q,
    }


def batch_loss(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray) -> float:
    """Total batch objective (hinge terms plus any penalties)."""
    return _forward(params, hp, pos, neg)["loss"]


def batch_gradients(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray):
    """Subgradients of :func:`batch_loss` w.r.t. the dense partition.

    Returns ``(loss, grads)``.  ``grads`` maps the name of every parameter
    array the model trains (only the two embeddings for transe) to
    ``(ids, rows)``: the sorted unique ids of the rows the batch touches and
    their gradients.  Each relation slice of the sorted batch costs one
    matmul per side for the entity rows and one for the ``(n, n)`` adjoint
    ``S`` that feeds its concepts and scores.  Every sum runs in the order
    of the unsorted batch, so the result does not depend on the sort.
    """
    fw = _forward(params, hp, pos, neg)
    n = params.n
    uniq, bounds, comp = fw["uniq"], fw["bounds"], fw["comp"]
    g = _norm_grad(fw["u"], fw["energies"], hp.ell) * fw["active"][:, None]
    # coefficients of the gathered entity rows: +g_pos, -g_neg on the head
    # side and -g_pos, +g_neg on the tail side, plus the penalty on positives
    coef = np.stack([g, -g]) * np.array([1.0, -1.0])[:, None, None]
    if fw["q"] is not None:
        coef[:, 0] += fw["q"]

    if comp is None:
        rows = coef
    else:
        rows = np.empty_like(coef)
        D = params.concept_tensor
        sparse = hp.attention_mode == "sparse"
        cids = np.unique(np.concatenate([act[alpha != 0] for act, alpha, _ in comp]))
        concept = np.zeros((len(cids), n, n))
        # one concept at a time, in place: a stacked fancy-index add is slower
        planes, tmp = list(concept), np.empty((n, n))
        slots = [np.searchsorted(cids, act).tolist() for act, _, _ in comp]
        weights = [alpha.tolist() for _, alpha, _ in comp]
        scores = np.zeros((2, len(uniq), params.m))
        for j, s, e in _slices(bounds):
            for side, (act, alpha, W) in enumerate(comp):
                c = coef[side, :, s:e].reshape(-1, n)
                rows[side, :, s:e] = (c @ W[j]).reshape(2, -1, n)
                S = c.T @ fw["x"][side, :, s:e].reshape(-1, n)
                for k, w in zip(slots[side][j], weights[side][j]):
                    if w:
                        planes[k] += np.multiply(S, w, out=tmp)
                if hp.attention_mode == "dense_l1":
                    sign = np.sign((params.head_scores, params.tail_scores)[side][uniq[j]])
                    scores[side, j] = np.einsum("ijk,jk->i", D, S) + hp.l1_coef * (e - s) * sign
                else:
                    # softmax backward; only sparse mode gathers its concepts
                    a = (np.einsum("ijk,jk->i", D[act[j]], S) if sparse
                         else np.einsum("ijk,jk->i", D, S)[act[j]])
                    scores[side, j, act[j]] = alpha[j] / hp.tau * (a - alpha[j] @ a)

    # entity rows summed in the unsorted batch order: heads, tails,
    # corrupted heads, corrupted tails
    inv = np.argsort(fw["order"])
    uids, uinv = np.unique(fw["ids"][:, :, inv].transpose(1, 0, 2), return_inverse=True)
    ent = np.zeros((len(uids), n))
    np.add.at(ent, uinv.ravel(), rows[:, :, inv].transpose(1, 0, 2, 3).reshape(-1, n))
    # relation rows in sorted order, which is the batch order within a relation
    rel = np.zeros((len(uniq), n))
    np.add.at(rel, fw["slot"], g[0] - g[1])
    grads = {"entity_emb": (uids, ent), "relation_emb": (uniq, rel)}
    if comp is not None:
        grads.update(concept_tensor=(cids, concept),
                     head_scores=(uniq, scores[0]), tail_scores=(uniq, scores[1]))
    return fw["loss"], grads


def apply_gradients(params: ModelParams, hp: Hyperparams, grads: dict) -> None:
    """One lr-scaled step, then renormalize every touched entity row.

    ``grads`` is the mapping :func:`batch_gradients` returns.  Rows whose
    step is exactly zero are left alone: they are already unit norm from
    the previous step, so skipping keeps null updates bitwise null instead
    of churning last bits through a redundant renormalize.  A stepped row
    whose norm is not finite (an overflowing step) raises
    :class:`TrainingError` before any parameter changes.  In dense_l1 mode
    the stepped score rows are clipped at zero.
    """
    lr = hp.lr
    uids, ent_acc = grads["entity_emb"]
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

    for name, (ids, rows) in grads.items():
        if name == "entity_emb":
            continue
        arr = getattr(params, name)
        # row by row, in place: a fancy-index update copies every row twice
        for i, row in zip(ids.tolist(), rows):
            arr[i] -= lr * row
        if hp.attention_mode == "dense_l1" and name.endswith("_scores"):
            arr[ids] = np.maximum(arr[ids], 0.0)


@dataclass
class TrainState:
    """Mutable optimization state threaded through epochs."""

    params: ModelParams
    rng: np.random.Generator
    block_rng: np.random.Generator
    sampler: DomainSampler
    epoch: int = 0


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
    return total / n_train


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
    concepts32: np.ndarray,
    concept_norms: np.ndarray,
):
    """Screen the m single-concept costs of one relation side in float32.

    Returns ``(screened, delta, rescore)``: the screened costs, a bound
    ``delta`` on each one's distance from its float64 cost, and a function
    that gives the float64 costs of the concept ids it is passed.
    ``concepts32`` is the concept tensor in float32 and ``concept_norms``
    holds :func:`_matrix_norm` of every concept.

    Concept i's difference vectors are ``D_i e - offset``, where ``e`` is
    the scored side's entity and ``offset`` folds in the other side:
    ``P_tail t - r`` when scoring heads, ``P_head h + r`` when scoring tails
    (the negated difference, with the same norm).

    The screen scores the concepts in chunks of as many as fit a float32
    (B, c, n) buffer of :data:`BLOCK_CHUNK_BYTES`, so memory does not grow
    with the number of pairs B when ``block_budget`` is None.  Each pass
    (positives, then corrupted pairs) projects its B entities through a
    chunk's c concepts as one float32 GEMM ``e @ D[chunk].reshape(c·n, n).T``
    into that buffer, subtracts the offset and reduces over n into the
    pass's (B, m) energies; the hinges and their sum are formed in float64.

    The bound: by :func:`_error_bound`, each screened energy is within
    δ_b = _error_bound(n, ‖|D_i|‖, ‖e_b‖, ‖offset_b‖) of its float64
    re-score, with u·B_b (B_b = ‖|D_i|‖‖e_b‖ + ‖offset_b‖) to spare.  The
    hinge max(γ + x - y, 0) is 1-Lipschitz in x and in y, so the exact
    hinge sums of the two sets of energies differ by at most Σ δ_b over
    both passes.  Forming each hinge and summing B of them in float64, in
    any order, errs by at most γ'_{B+1}·Σ_b(γ + x_b + y_b) with
    γ'_k = k2⁻⁵³ / (1 - k2⁻⁵³); for both costs together, and B under 2²⁶,
    that is less than the uB_b left over plus (B + 2)·2⁻⁵²·Bγ.  So
    ``delta`` = Σ δ_b + (B + 2)·2⁻⁵²·Bγ, and since ``_error_bound`` is
    affine in the two vector norms, Σ δ_b is 2B times its value at their
    means.  Raises :class:`TrainingError`, naming the relation side, when
    a concept, an entity row or an offset is not finite or too large for
    the screen.
    """
    pos, neg = _block_pairs(store, r, side, hp, hp.block_budget, seed, sampler)
    ent = params.entity_emb
    D = params.concept_tensor
    m, n, B = params.m, params.n, len(pos)
    other = SIDE_TAIL if side == SIDE_HEAD else SIDE_HEAD
    w_other = compose(params, hp, other, [r])[2][0]
    rv = -params.relation_emb[r] if side == SIDE_HEAD else params.relation_emb[r]
    var, fixed = (0, 2) if side == SIDE_HEAD else (2, 0)
    passes = []
    for pairs in (pos, neg):
        offset = ent[pairs[:, fixed]] @ w_other.T
        offset += rv
        passes.append((ent[pairs[:, var]], offset))
    ent_norms = np.concatenate([_norms(e, hp.ell) for e, _ in passes])
    offset_norms = np.concatenate([_norms(offset, hp.ell) for _, offset in passes])
    w_max, e_max, f_max = (float(np.max(a, initial=0.0))
                           for a in (concept_norms, ent_norms, offset_norms))
    if not (w_max <= _NORM_LIMIT and e_max <= _NORM_LIMIT and w_max * e_max + f_max <= _NORM_LIMIT):
        raise TrainingError(f"relation {r} {side}: a concept, entity row or offset is not finite "
                            "or too large to score")

    chunk = min(m, max(1, BLOCK_CHUNK_BYTES // (4 * B * n)))
    flat = np.empty(B * chunk * n, dtype=np.float32)
    energies = np.empty((2, B, m), dtype=np.float32)
    for k, (e, offset) in enumerate(passes):
        e32 = e.astype(np.float32)
        offset32 = offset.astype(np.float32)[:, None]
        for lo in range(0, m, chunk):
            c = min(chunk, m - lo)
            buf = flat[: B * c * n].reshape(B, c * n)
            np.matmul(e32, concepts32[lo:lo + c].reshape(c * n, n).T, out=buf)
            u = buf.reshape(B, c, n)
            u -= offset32
            # einsum sums over n in one pass, 2x faster than sum() here
            out = energies[k, :, lo:lo + c]
            if hp.ell == 1:
                np.einsum("bcn->bc", np.abs(u, out=u), out=out)
            else:
                np.sqrt(np.einsum("bcn,bcn->bc", u, u, out=out), out=out)
    del flat  # freed before the float64 hinges are formed
    hinge = energies[0].astype(np.float64)
    hinge += hp.gamma
    hinge -= energies[1]
    screened = np.maximum(hinge, 0.0, out=hinge).sum(axis=0)
    delta = (2 * B * _error_bound(n, concept_norms, ent_norms.mean(), offset_norms.mean())
             + (B + 2) * 2.0**-52 * B * hp.gamma)

    def rescore(ids) -> np.ndarray:
        """Float64 costs of the concepts ``ids``, each projected by its own
        GEMM so that its bits do not depend on which others share the call."""
        costs = np.empty(len(ids))
        for j, i in enumerate(np.asarray(ids).tolist()):
            x, y = (_norms(e @ D[i].T - offset, hp.ell) for e, offset in passes)
            costs[j] = np.maximum(hp.gamma + x - y, 0.0).sum()
        return costs

    return screened, delta, rescore


def block_update(params: ModelParams, store: TripleStore, hp: Hyperparams, seed: int = 0) -> int:
    """Reassign every relation's head and tail supports to the k cheapest
    concepts; returns how many relation sides changed support.

    Costs for both sides are computed against the pre-update attentions
    (a simultaneous update), and ties keep the lower concept index.
    Relations absent from training keep their current supports.

    Each side is screened in float32 (:func:`_side_costs`), which bounds
    every cost to ĉᵢ ± Δᵢ.  With T the k-th smallest ĉᵢ + Δᵢ, at least k
    concepts cost at most T, so a concept with ĉᵢ - Δᵢ > T costs more than
    the k-th smallest and cannot be among the bottom k, ties included.
    The rest are re-scored in float64 and the support is the stable
    bottom-k of those costs: the one the float64 costs of all m concepts
    would give.  Raises :class:`TrainingError` on parameters the screen
    cannot take.
    """
    sampler = DomainSampler(store, hp.domain_lambda)
    concepts32 = params.concept_tensor.astype(np.float32)
    concept_norms = np.array([_matrix_norm(d, hp.ell) for d in params.concept_tensor])
    new_head: dict[int, np.ndarray] = {}
    new_tail: dict[int, np.ndarray] = {}
    for r in store.by_relation:
        for side, out in ((SIDE_HEAD, new_head), (SIDE_TAIL, new_tail)):
            screened, delta, rescore = _side_costs(store, r, side, params, hp, seed, sampler,
                                                   concepts32, concept_norms)
            # bounds stepped outward, so that rounding them cannot narrow the band
            upper = np.nextafter(screened + delta, np.inf)
            limit = np.partition(upper, hp.k - 1)[hp.k - 1]
            band = np.flatnonzero(np.nextafter(screened - delta, -np.inf) <= limit)
            out[r] = np.sort(band[np.argsort(rescore(band), kind="stable")[: hp.k]])
    changed = 0
    for assign, new in ((params.head_assign, new_head), (params.tail_assign, new_tail)):
        for r, chosen in new.items():
            row = np.zeros_like(assign[r])
            row[chosen] = 1
            changed += not np.array_equal(row, assign[r])
            assign[r] = row
    return changed


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
    workers: int = 1,
) -> tuple[ModelParams, dict]:
    """Full optimization loop: SGD epochs interleaved with block updates.

    Block updates run every ``hp.block_every`` epochs while the epoch count
    has not passed ``hp.effective_block_stop()`` (they only apply to the
    sparse-attention shared-concept model).  Optional validation metrics
    are recorded every ``eval_every`` epochs; with ``early_stop_patience``
    > 0 training stops once hits@10 has not improved for that many epochs.
    ``on_epoch(state, epoch, loss)`` may return True to stop early.
    ``workers`` is the validation thread count.  Parameters that ranking
    or block scoring cannot take raise :class:`TrainingError`.
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
            changed = block_update(state.params, store, hp, seed=bseed)
            history["block_updates"].append({"epoch": epoch, "seed": bseed, "changed_sides": changed})

        if eval_every and eval_split is not None and len(eval_split) and epoch % eval_every == 0:
            try:
                report = evaluate(eval_split, state.params, hp, store, workers=workers)
            except ValueError as exc:
                raise TrainingError(f"validation at epoch {epoch}: {exc}") from None
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
