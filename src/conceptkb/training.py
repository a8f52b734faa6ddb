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
matmuls.  One pass walks the sorted batch in windows of consecutive
relations: a window's head and tail projections are composed, used for its
forward projections, its entity-row gradients and its adjoints, and
dropped before the next window's are composed, so at most
:data:`SGD_WINDOW_BYTES` of composed matrices are alive at a time, next to
the concept gradients of the whole batch.  The supports, the per-pair
margins and penalty slacks and the loss sums cover the whole batch, so no
bit depends on the window size.  Each relation side's score gradient
reads its support concepts in sparse mode through a strided view of the
concept tensor when the support holds one or two, and the softmax backward
runs once per window and side over the window's (J, c) block.  Gradients
come back in one format for every parameter array: the sorted unique ids
of the touched rows and their gradient rows.  One batch's gradients are
alive at a time: :func:`sgd_epoch` drops them before the next batch's are
built.

Block reassignment screens a relation side's concepts in float32, in
chunks under a byte cap (:data:`BLOCK_CHUNK_BYTES`, L2-sized when BLAS
runs on one thread), each chunk with one BLAS product per pass over its
pairs.  A proven bound on each screened cost (:mod:`conceptkb.bounds`)
rules out every concept that cannot be among the k cheapest; when more
than k are left, they are re-scored in float64, one concept at a time,
and the support is the stable bottom-k of those float64 costs.  They
agree with the scalar :func:`single_matrix_cost` to rounding, not
bitwise.  The relation sides are independent and may run on threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import _NORM_LIMIT, _error_bound, _matrix_norm, _max_row_norm
from .data import TripleStore
from .model import (
    SIDE_HEAD,
    SIDE_TAIL,
    Hyperparams,
    ModelParams,
    compose,
    init_params,
    projections,
    single_matrix_energy,
    supports,
)
from .sampling import DomainSampler, corrupt_batch
from .threads import blas_threads, map_ordered


# byte cap of the float32 (B, c, n) buffer that the block screen projects a
# chunk of c concepts into.  With BLAS on one thread it is 1 MiB, which fits a
# 2 MiB L2 beside the GEMM's operands and holds 5 concepts of 500 pairs at
# n=100.  A multithreaded BLAS hands every GEMM to its threads, so there fewer,
# larger products are faster: 32 MiB, 167 concepts of 500 pairs
BLOCK_CHUNK_BYTES = 2**20 if blas_threads() == 1 else 32 * 2**20
# byte cap of the composed (n, n) projections, both sides, alive at a time in
# one SGD window; 4 MiB holds 26 relations at n=100 and all 18 at n=50
SGD_WINDOW_BYTES = 4 * 2**20


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


def _support_planes(D: np.ndarray, ids: list[int]) -> np.ndarray:
    """``D[ids]``: for one or two concepts a strided view, which saves the
    gather's copy and gives the einsums that read it the same bytes; wider
    supports are gathered."""
    if len(ids) == 1:
        return D[ids[0]:ids[0] + 1]
    if len(ids) == 2:
        return D[ids[0]::ids[1] - ids[0]][:2]
    return D[ids]


def _softmax_backward(weights: np.ndarray, a: np.ndarray, tau: float) -> np.ndarray:
    """The score-gradient rows ``α/τ·(a − α·a)`` of a block of relations.

    Row j of ``weights`` and ``a`` (J, c) holds relation j's support weights
    α and ``a_i = ⟨D_i, S⟩`` of its support concepts.  ``np.vecdot`` gives
    each row's ``α·a`` the bytes of ``α @ a``, so every row is the one a
    relation-at-a-time backward gives.
    """
    return weights / tau * (a - np.vecdot(weights, a)[:, None])


def _batch_pass(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray,
                backward: bool):
    """The loss of a batch of (positive, corrupted) pairs and, with
    ``backward``, its gradients; see :func:`batch_gradients`.

    The pairs are stable-sorted by relation once (``order``), so relation
    ``uniq[j]`` owns the slice ``bounds[j]:bounds[j + 1]`` of every per-pair
    array.  ``ids`` (2, 2, B) and the gathered rows ``x`` (2, 2, B', n) hold
    the head side, then the tail side, each as positives then corrupted
    partners; ``p`` holds the projections of ``x`` in the same layout and
    ``u`` (2, B', n) the positive and corrupted difference vectors, for the
    B' pairs of one window.

    The backward pass gives each relation side of a window its adjoint ``S``
    and ``a_i = ⟨D_i, S⟩`` for the concepts of its support; sparse mode
    reads those concepts through :func:`_support_planes`, a view for
    supports of one or two.  The window's ``a`` rows form one (J, c) block
    per side, since in dense mode an underflowing softmax can give the head
    and the tail unequal widths c, and :func:`_softmax_backward` turns each
    block into score-gradient rows at once.
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 3)
    order = np.argsort(pos[:, 1], kind="stable")
    r = pos[order, 1]
    uniq, starts, slot = np.unique(r, return_index=True, return_inverse=True)
    bounds = np.append(starts, len(order)).tolist()
    ids = np.stack([pos[order], neg[order]])[..., [0, 2]].transpose(2, 0, 1)
    n, B, U = params.n, len(order), len(uniq)
    shared = hp.model != "transe"
    penalty = hp.proj_penalty > 0 and shared
    margins = np.empty(B)
    slack = np.empty((2, B)) if penalty else None
    if backward:
        rows = np.empty((2, 2, B, n))
        rel_rows = np.empty((B, n))

    # one window holds as many consecutive relations as fit their composed
    # head and tail projections in SGD_WINDOW_BYTES; transe composes none
    per = max(1, SGD_WINDOW_BYTES // (2 * 8 * n * n)) if shared else max(U, 1)
    if shared:
        # supports and weights of the whole batch, so that the padding and
        # the concept ids do not depend on the window
        alphas, acts, wts = zip(*(supports(params, hp, side, uniq) for side in (SIDE_HEAD, SIDE_TAIL)))
    if backward and shared:
        D = params.concept_tensor
        sparse = hp.attention_mode == "sparse"
        softmax = hp.attention_mode != "dense_l1"
        cids = np.unique(np.concatenate([act[w != 0] for act, w in zip(acts, wts)]))
        concept = np.zeros((len(cids), n, n))
        # one concept at a time, in place: a stacked fancy-index add is slower
        planes, tmp = list(concept), np.empty((n, n))
        slots = [np.searchsorted(cids, act).tolist() for act in acts]
        weights = [w.tolist() for w in wts]
        act_ids = [act.tolist() for act in acts]
        scores = np.zeros((2, U, params.m))

    for j0 in range(0, U, per):
        W = p = blocks = None  # the last window's arrays go before the next window's are made
        j1 = min(j0 + per, U)
        s0, e0 = bounds[j0], bounds[j1]
        # each relation of the window with its slice of the window's pairs
        spans = [(j, bounds[j] - s0, bounds[j + 1] - s0) for j in range(j0, j1)]
        x = params.entity_emb[ids[:, :, s0:e0]]
        if shared:
            W = [projections(params, hp, alphas[side][j0:j1], acts[side][j0:j1], wts[side][j0:j1])
                 for side in range(2)]
            # each slice's gathered rows of one side as one (2L, n) block, for
            # its forward projection and again for its adjoint
            blocks = [[x[side, :, s:e].reshape(-1, n) for _, s, e in spans] for side in range(2)]
            p = np.empty_like(x)
            for side in range(2):
                for (_, s, e), xb, proj in zip(spans, blocks[side], W[side]):
                    p[side, :, s:e] = (xb @ proj.T).reshape(2, -1, n)
        else:
            p = x

        u = p[0] + params.relation_emb[r[s0:e0]] - p[1]
        energies = _norms(u, hp.ell)
        margin = margins[s0:e0]
        np.subtract(hp.gamma + energies[0], energies[1], out=margin)
        # hinged penalty keeping projected positive entities near unit norm
        if penalty:
            np.subtract((p[:, 0] * p[:, 0]).sum(axis=-1), 1.0, out=slack[:, s0:e0])
        if not backward:
            continue

        g = _norm_grad(u, energies, hp.ell) * (margin > 0)[:, None]
        np.subtract(g[0], g[1], out=rel_rows[s0:e0])
        # coefficients of the gathered entity rows: +g_pos, -g_neg on the head
        # side and -g_pos, +g_neg on the tail side, plus the penalty on positives
        coef = np.stack([g, -g]) * np.array([1.0, -1.0])[:, None, None]
        if penalty:
            coef[:, 0] += 2.0 * hp.proj_penalty * p[:, 0] * (slack[:, s0:e0] > 0)[..., None]
        if not shared:
            rows[:, :, s0:e0] = coef
            continue
        rows_w = rows[:, :, s0:e0]
        if softmax:
            grad_in = [np.empty((j1 - j0, act.shape[1])) for act in acts]
        for i, (j, s, e) in enumerate(spans):
            for side in range(2):
                c = coef[side, :, s:e].reshape(-1, n)
                rows_w[side, :, s:e] = (c @ W[side][i]).reshape(2, -1, n)
                S = c.T @ blocks[side][i]
                for k, w in zip(slots[side][j], weights[side][j]):
                    if w:
                        planes[k] += np.multiply(S, w, out=tmp)
                if not softmax:
                    sign = np.sign((params.head_scores, params.tail_scores)[side][uniq[j]])
                    scores[side, j] = np.einsum("ijk,jk->i", D, S) + hp.l1_coef * (e - s) * sign
                elif sparse:
                    grad_in[side][i] = np.einsum("ijk,jk->i", _support_planes(D, act_ids[side][j]), S)
                else:
                    grad_in[side][i] = np.einsum("ijk,jk->i", D, S)[acts[side][j]]
        if softmax:
            for side, a in enumerate(grad_in):
                scores[side, np.arange(j0, j1)[:, None], acts[side][j0:j1]] = _softmax_backward(
                    wts[side][j0:j1], a, hp.tau)

    # maximum() propagates NaN energies into the loss so the caller's
    # finite check can abort with diagnostics
    loss = float(np.maximum(margins, 0.0).sum())
    if penalty:
        loss += hp.proj_penalty * (
            float(np.clip(slack[0], 0, None).sum()) + float(np.clip(slack[1], 0, None).sum())
        )
    if hp.attention_mode == "dense_l1" and shared:
        mass = (np.abs(params.head_scores[uniq]).sum(axis=1)
                + np.abs(params.tail_scores[uniq]).sum(axis=1))
        loss += float((hp.l1_coef * mass * np.diff(bounds)).sum())
    if not backward:
        return loss, None

    # entity rows summed in the unsorted batch order: heads, tails,
    # corrupted heads, corrupted tails
    inv = np.argsort(order)
    uids, uinv = np.unique(ids[:, :, inv].transpose(1, 0, 2), return_inverse=True)
    ent = np.zeros((len(uids), n))
    np.add.at(ent, uinv.ravel(), rows[:, :, inv].transpose(1, 0, 2, 3).reshape(-1, n))
    # relation rows in sorted order, which is the batch order within a relation
    rel = np.zeros((U, n))
    np.add.at(rel, slot, rel_rows)
    grads = {"entity_emb": (uids, ent), "relation_emb": (uniq, rel)}
    if shared:
        grads.update(concept_tensor=(cids, concept),
                     head_scores=(uniq, scores[0]), tail_scores=(uniq, scores[1]))
    return loss, grads


def batch_loss(params: ModelParams, hp: Hyperparams, pos: np.ndarray, neg: np.ndarray) -> float:
    """Total batch objective (hinge terms plus any penalties)."""
    return _batch_pass(params, hp, pos, neg, backward=False)[0]


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
    return _batch_pass(params, hp, pos, neg, backward=True)


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
        if arr.ndim == 3:
            # concept planes one at a time, in place: a fancy-index update
            # copies every (n, n) plane twice
            for i, plane in zip(ids.tolist(), rows):
                arr[i] -= lr * plane
            continue
        stepped = arr[ids] - lr * rows
        if hp.attention_mode == "dense_l1" and name.endswith("_scores"):
            np.maximum(stepped, 0.0, out=stepped)
        arr[ids] = stepped


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
    one corrupted partner drawn under the configured sampling mode.  Raises
    :class:`TrainingError` on a non-finite batch loss, and after the epoch
    on parameters that ranking and block scoring cannot take.
    """
    n_train = len(store.train)
    order = state.rng.permutation(n_train) if n_train else None
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
        # released before the next batch's gradients are built
        del grads
        total += loss
    state.epoch += 1
    _check_scorable(state.params, hp, state.epoch)
    return total / max(n_train, 1)


def _check_scorable(params: ModelParams, hp: Hyperparams, epoch: int) -> None:
    """Raise :class:`TrainingError`, naming the array, when an entity or
    relation row's ell norm, or in a shared-concept model a concept's
    :func:`_matrix_norm`, is not finite or above the :data:`_NORM_LIMIT`
    that ranking and block scoring take."""
    arrays = [("entity_emb", params.entity_emb), ("relation_emb", params.relation_emb)]
    if hp.model != "transe":
        arrays.append(("concept_tensor", params.concept_tensor))
    for name, arr in arrays:
        norm = (_max_row_norm(arr, hp.ell) if arr.ndim == 2
                else float(np.max([_matrix_norm(d, hp.ell) for d in arr])))
        if not norm <= _NORM_LIMIT:
            raise TrainingError(
                f"after epoch {epoch}, {name} has a row of norm {norm!r}: not finite or above "
                f"the 2**60 that ranking and block scoring take (lr={hp.lr})"
            )


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
    (B, c, n) buffer of :data:`BLOCK_CHUNK_BYTES`, which with a
    single-threaded BLAS is small enough to stay in a core's L2 cache, so
    memory does not grow with the number of pairs B when ``block_budget``
    is None.  The chunk width can move the screened bits, but not past
    ``delta``, which holds for any summation order.  Each pass (positives,
    then corrupted pairs) projects its B entities through a chunk's c
    concepts as one float32 GEMM ``e @ D[chunk].reshape(c·n, n).T`` into
    that buffer, subtracts the offset and reduces over n into the pass's
    (B, m) energies; the hinges and their sum are formed in float64.

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


def block_update(params: ModelParams, store: TripleStore, hp: Hyperparams, seed: int = 0,
                 workers: int = 1) -> int:
    """Reassign every relation's head and tail supports to the k cheapest
    concepts; returns how many relation sides changed support.

    Costs for both sides are computed against the pre-update attentions
    (a simultaneous update), and ties keep the lower concept index.
    Relations absent from training keep their current supports.

    Each side is screened in float32 (:func:`_side_costs`), which bounds
    every cost to ĉᵢ ± Δᵢ.  With T the k-th smallest ĉᵢ + Δᵢ, at least k
    concepts cost at most T, so a concept with ĉᵢ - Δᵢ > T costs more than
    the k-th smallest and cannot be among the bottom k, ties included.  The
    band of concepts with ĉᵢ - Δᵢ ≤ T therefore holds the float64 bottom-k
    of all m concepts.  When it holds exactly k, it is that bottom-k, in
    ascending order, and nothing is re-scored.  Otherwise its concepts are
    re-scored in float64 and the support is the stable bottom-k of those
    costs: the one the float64 costs of all m concepts would give.

    With ``workers`` > 1 the sides, each with its own generator and
    buffers, are scored on that many threads.  Results are taken in task
    order and written back in relation order, so the supports, the count
    and the side a :class:`TrainingError` names (the first failing one in
    relation order) do not depend on ``workers``.  Raises
    :class:`TrainingError` on parameters the screen cannot take, before any
    support changes.
    """
    sampler = DomainSampler(store, hp.domain_lambda)
    concepts32 = params.concept_tensor.astype(np.float32)
    concept_norms = np.array([_matrix_norm(d, hp.ell) for d in params.concept_tensor])

    def side_support(task: tuple[int, str]) -> np.ndarray:
        r, side = task
        screened, delta, rescore = _side_costs(store, r, side, params, hp, seed, sampler,
                                               concepts32, concept_norms)
        # bounds stepped outward, so that rounding them cannot narrow the band
        upper = np.nextafter(screened + delta, np.inf)
        limit = np.partition(upper, hp.k - 1)[hp.k - 1]
        band = np.flatnonzero(np.nextafter(screened - delta, -np.inf) <= limit)
        if len(band) == hp.k:
            return band
        return np.sort(band[np.argsort(rescore(band), kind="stable")[: hp.k]])

    tasks = [(r, side) for r in store.by_relation for side in (SIDE_HEAD, SIDE_TAIL)]
    chosen = map_ordered(side_support, tasks, workers)
    changed = 0
    for (r, side), support in zip(tasks, chosen):
        assign = params.head_assign if side == SIDE_HEAD else params.tail_assign
        row = np.zeros_like(assign[r])
        row[support] = 1
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
    ``workers`` is the thread count of validation and of block updates.
    Each block update's record holds its wall time in ``seconds``.
    Parameters that ranking or block scoring cannot take raise
    :class:`TrainingError`.
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
            t0 = time.perf_counter()
            changed = block_update(state.params, store, hp, seed=bseed, workers=workers)
            wall = time.perf_counter() - t0
            history["block_updates"].append(
                {"epoch": epoch, "seed": bseed, "changed_sides": changed, "seconds": wall})

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
