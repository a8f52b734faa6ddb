"""Independent references that the batch kernels are checked against.

The scalar per-triple energies score one triple with plain vector
arithmetic: one projection per side, composed concept by concept, then the
translation norm.  The library's own scoring runs through column tables and
GEMMs; these stay simple on purpose so that a test can compare the two.

The SGD byte oracle, :func:`oracle_batch_gradients` and
:func:`oracle_apply_gradients`, is the batch pass and parameter step as
they stood before the pass took a relation's head and tail through one
stacked product and summed rows with ``np.bincount``: a relation-sorted
batch with one matmul per side and ``np.add.at`` scatters, kept verbatim
with the supports and projections it used.  Every later form of the pass
must give its loss, gradients and stepped parameters byte for byte.
"""

import numpy as np

from conceptkb.model import (
    SIDE_HEAD,
    SIDE_TAIL,
    Hyperparams,
    ModelParams,
    attention_vector,
    project,
    vec_norm,
)
from conceptkb.training import TrainingError


def energy_itransf(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Translation energy in the attention-composed projection spaces."""
    alpha_h = attention_vector(params, hp, r, SIDE_HEAD)
    alpha_t = attention_vector(params, hp, r, SIDE_TAIL)
    ph = project(alpha_h, params.concept_tensor, params.entity_emb[h])
    pt = project(alpha_t, params.concept_tensor, params.entity_emb[t])
    return vec_norm(ph + params.relation_emb[r] - pt, hp.ell)


def energy_transe(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Plain translation energy ``|h + r - t|`` in the chosen norm."""
    u = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
    return vec_norm(u, hp.ell)


def energy_stranse(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Two-matrix baseline energy: slice 2r projects the head, 2r+1 the tail."""
    if params.m != 2 * params.n_relations:
        raise ValueError("params do not hold per-relation matrix pairs (m != 2*|R|)")
    w1 = params.concept_tensor[2 * r]
    w2 = params.concept_tensor[2 * r + 1]
    u = w1 @ params.entity_emb[h] + params.relation_emb[r] - w2 @ params.entity_emb[t]
    return vec_norm(u, hp.ell)


def energy(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Energy under the configured model family."""
    if hp.model == "transe":
        return energy_transe(h, r, t, params, hp)
    return energy_itransf(h, r, t, params, hp)


# --- SGD byte oracle, verbatim ------------------------------------------------

SGD_WINDOW_BYTES = 4 * 2**20


def attention(
    params: ModelParams, hp: Hyperparams, side: str, rels: np.ndarray | None = None
) -> np.ndarray:
    """Attention rows of one side for ``rels`` (all relations by default).

    One masked softmax over the ``(len(rels), m)`` scores: the mask is the
    support in sparse mode and all ones in dense mode; dense_l1 returns the
    raw weights clipped at zero.  Like :func:`sparse_softmax`, raises on an
    empty support.
    """
    rows = slice(None) if rels is None else rels
    scores = params.scores(side)[rows]
    if hp.attention_mode == "dense_l1":
        return np.maximum(scores, 0.0)
    if hp.attention_mode == "dense":
        z = scores / hp.tau
    else:
        mask = params.assign(side)[rows] != 0
        if not mask.any(axis=1).all():
            raise ValueError("support has no active entries")
        z = np.where(mask, scores / hp.tau, -np.inf)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def supports(
    params: ModelParams, hp: Hyperparams, side: str, rels
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attention of the ``side`` of the relations in ``rels`` and its support.

    Returns ``(alpha, act, weights)``.  ``alpha`` (U, m) holds the attention
    rows.  ``act`` (U, c) holds each relation's concepts of nonzero
    attention in ascending order; ``c`` is the widest row's count, and
    shorter rows are padded with concepts of zero weight.  ``weights``
    (U, c) is their attention.
    """
    alpha = attention(params, hp, side, np.asarray(rels, dtype=np.int64))
    live = alpha != 0
    counts = live.sum(axis=1)
    c = int(counts.max(initial=0))
    if (counts == c).all():
        # no row is padded: its concepts are its nonzero columns, in order
        act = np.nonzero(live)[1].reshape(len(alpha), c)
    else:
        act = np.argsort(~live, axis=1, kind="stable")[:, :c]
    return alpha, act, alpha[np.arange(len(act))[:, None], act]


def projections(
    params: ModelParams, hp: Hyperparams, alpha: np.ndarray, act: np.ndarray, weights: np.ndarray
) -> list[np.ndarray]:
    """The ``(n, n)`` projections of rows of :func:`supports`.  In sparse
    mode each costs c n^2 (c is at most the support size) and its bits do
    not depend on the other rows; the dense modes contract all m concepts
    of every row at once."""
    D = params.concept_tensor
    if hp.attention_mode != "sparse":
        return list(np.tensordot(alpha, D, axes=(1, 0)))
    # one small array per relation: faster than a stacked gather, and the
    # heap reuses it batch after batch
    W = []
    for idx, w in zip(act.tolist(), weights.tolist()):
        proj = D[idx[0]] * w[0]
        for i, wi in zip(idx[1:], w[1:]):
            proj += D[i] * wi
        W.append(proj)
    return W


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


def oracle_batch_gradients(params: ModelParams, hp: Hyperparams, pos, neg):
    """``(loss, grads)`` of the verbatim pass."""
    return _batch_pass(params, hp, pos, neg, backward=True)


def oracle_apply_gradients(params: ModelParams, hp: Hyperparams, grads: dict) -> None:
    """The verbatim step."""
    apply_gradients(params, hp, grads)
