"""Correctness checks of the engine's outputs, recomputed with plain numpy.

Every check recomputes its reference from the generated arrays or from the
parameters, through the model's definition (support-restricted softmax,
composed projections, L1/L2 translation energies), never through the
engine's own batch code and never from a stored copy of earlier output.
A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import numpy as np

from conceptkb import single_matrix_cost

REL_TOL = 1e-9


class CheckError(Exception):
    """The engine produced an output that disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- store -----------------------------------------------------------------

def store_ids(vocab, n_entities: int, n_relations: int):
    """Maps from generator ids (names ``e<i>``/``r<i>``) to store ids."""
    ent = np.array([vocab.entity_index[f"e{i}"] for i in range(n_entities)], dtype=np.int64)
    rel = np.array([vocab.relation_index[f"r{i}"] for i in range(n_relations)], dtype=np.int64)
    return ent, rel


def to_store(split: np.ndarray, ent: np.ndarray, rel: np.ndarray) -> np.ndarray:
    return np.stack([ent[split[:, 0]], rel[split[:, 1]], ent[split[:, 2]]], axis=1)


def triple_keys(triples: np.ndarray, n_entities: int) -> np.ndarray:
    """Sorted distinct int64 keys of (h, r, t) rows."""
    t = np.asarray(triples, dtype=np.int64)
    return np.unique((t[:, 1] * n_entities + t[:, 0]) * n_entities + t[:, 2])


def check_store(store, splits, n_entities: int, n_relations: int) -> None:
    """Split sizes, per-relation counts, domains, tph/hpt and the number of
    distinct known triples against a recomputation from ``splits``, the
    generated (train, valid, test) arrays in store ids."""
    train, valid, test = splits
    _require(store.n_entities == n_entities and store.n_relations == n_relations,
             f"store has {store.n_entities} entities / {store.n_relations} relations, "
             f"generated {n_entities} / {n_relations}")
    for name, got, want in (("train", store.train, train), ("valid", store.valid, valid),
                            ("test", store.test, test)):
        _require(got.shape == want.shape and np.array_equal(got, want),
                 f"{name} split differs from the generated triples")
    counts = np.bincount(train[:, 1], minlength=n_relations)
    _require(sorted(store.by_relation) == np.flatnonzero(counts).tolist(),
             "training relations differ")
    heads = np.unique(train[:, 1] * n_entities + train[:, 0])
    tails = np.unique(train[:, 1] * n_entities + train[:, 2])
    n_heads = np.bincount(heads // n_entities, minlength=n_relations)
    n_tails = np.bincount(tails // n_entities, minlength=n_relations)
    h_start = np.searchsorted(heads // n_entities, np.arange(n_relations + 1))
    t_start = np.searchsorted(tails // n_entities, np.arange(n_relations + 1))
    for r, rows in store.by_relation.items():
        _require(len(rows) == counts[r], f"relation {r}: {len(rows)} rows, expected {counts[r]}")
        _require(np.array_equal(store.head_domain[r], heads[h_start[r]:h_start[r + 1]] % n_entities),
                 f"relation {r}: head domain differs")
        _require(np.array_equal(store.tail_domain[r], tails[t_start[r]:t_start[r + 1]] % n_entities),
                 f"relation {r}: tail domain differs")
    seen = counts > 0
    tph = np.zeros(n_relations)
    hpt = np.zeros(n_relations)
    tph[seen] = counts[seen] / n_heads[seen]
    hpt[seen] = counts[seen] / n_tails[seen]
    _require(np.allclose(store.tph, tph, rtol=REL_TOL, atol=0)
             and np.allclose(store.hpt, hpt, rtol=REL_TOL, atol=0), "tph/hpt differ")
    n_known = len(triple_keys(np.concatenate(splits), n_entities))
    _require(len(store.all_known) == n_known,
             f"{len(store.all_known)} known triples, expected {n_known}")


# --- model reference ---------------------------------------------------------

def composed(params, hp, r: int, side: str) -> np.ndarray:
    """(n, n) projection of one relation side from the support-restricted
    softmax of its scores."""
    scores = (params.head_scores if side == "head" else params.tail_scores)[r]
    support = np.flatnonzero((params.head_assign if side == "head" else params.tail_assign)[r])
    z = scores[support] / hp.tau
    alpha = np.exp(z - z.max())
    alpha /= alpha.sum()
    return np.einsum("i,ijk->jk", alpha, params.concept_tensor[support])


def _norm(u: np.ndarray, ell: int) -> np.ndarray:
    return np.abs(u).sum(axis=-1) if ell == 1 else np.sqrt((u * u).sum(axis=-1))


def objective(params, hp, pos: np.ndarray, neg: np.ndarray) -> float:
    """Hinge objective plus the projected-norm penalty of a batch."""
    ent, rv = params.entity_emb, params.relation_emb
    hinge = 0.0
    penalty = 0.0
    for r in np.unique(pos[:, 1]):
        rows = pos[:, 1] == r
        w_h, w_t = composed(params, hp, r, "head"), composed(params, hp, r, "tail")
        ph, pt = ent[pos[rows, 0]] @ w_h.T, ent[pos[rows, 2]] @ w_t.T
        ph2, pt2 = ent[neg[rows, 0]] @ w_h.T, ent[neg[rows, 2]] @ w_t.T
        e_pos = _norm(ph + rv[r] - pt, hp.ell)
        e_neg = _norm(ph2 + rv[r] - pt2, hp.ell)
        hinge += np.maximum(hp.gamma + e_pos - e_neg, 0.0).sum()
        penalty += (np.maximum((ph * ph).sum(axis=1) - 1.0, 0.0).sum()
                    + np.maximum((pt * pt).sum(axis=1) - 1.0, 0.0).sum())
    return float(hinge + hp.proj_penalty * penalty)


# --- SGD -----------------------------------------------------------------------

def check_params(params) -> None:
    """Every parameter finite, every entity row of unit L2 norm."""
    for name in ("entity_emb", "relation_emb", "concept_tensor", "head_scores", "tail_scores"):
        _require(np.isfinite(getattr(params, name)).all(), f"{name} has non-finite entries")
    norms = np.linalg.norm(params.entity_emb, axis=1)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    _require(abs(norms[worst] - 1.0) <= REL_TOL, f"entity row {worst} has norm {norms[worst]!r}")


def check_epoch_loss(loss: float) -> None:
    _require(np.isfinite(loss) and loss > 0, f"epoch mean loss {loss!r} is not finite and positive")


def check_batch_loss(params, hp, pos, neg, loss: float) -> None:
    """The loss ``batch_gradients`` returned equals the reference objective."""
    want = objective(params, hp, pos, neg)
    _require(abs(loss - want) <= REL_TOL * abs(want),
             f"batch loss {loss!r}, reference objective {want!r}")


# --- block update ----------------------------------------------------------------

def check_supports(before_head, before_tail, params, updated, k: int) -> None:
    """Updated relations have exactly k active concepts per side; all other
    relations keep their supports."""
    updated = np.asarray(sorted(updated), dtype=np.int64)
    for name, before, after in (("head", before_head, params.head_assign),
                                ("tail", before_tail, params.tail_assign)):
        active = after[updated].sum(axis=1)
        bad = updated[active != k]
        _require(not len(bad), f"{name} supports of relations {bad[:5].tolist()} "
                               f"do not have {k} active concepts")
        rest = np.ones(len(after), dtype=bool)
        rest[updated] = False
        _require(np.array_equal(after[rest], before[rest]),
                 f"{name} supports outside the updated relations changed")


def bottom_k_costs(snapshot, store, hp, r: int, side: str, seed: int) -> np.ndarray:
    """Scalar ``single_matrix_cost`` of every concept on a pre-update snapshot."""
    return np.array([single_matrix_cost(side, r, i, store, snapshot, hp, hp.block_budget, seed)
                     for i in range(snapshot.m)])


def check_bottom_k(costs: np.ndarray, chosen: np.ndarray, k: int) -> None:
    """``chosen`` is the stable bottom-k of ``costs``; concepts whose cost is
    within the relative tolerance of the k-th smallest may swap places."""
    order = np.argsort(costs, kind="stable")
    kth = costs[order[k - 1]]
    tol = REL_TOL * max(abs(kth), 1e-300)
    must = set(np.flatnonzero(costs < kth - tol).tolist())
    may = set(np.flatnonzero(costs <= kth + tol).tolist())
    got = set(np.asarray(chosen).tolist())
    _require(len(got) == k and must <= got <= may,
             f"support {sorted(got)} is not the bottom-{k} {sorted(order[:k].tolist())} "
             f"of the single-concept costs")


# --- ranking --------------------------------------------------------------------------

def rank_bracket(params, hp, queries, known_keys: np.ndarray):
    """Lowest and highest filtered rank each (triple, side) query may get.

    Energies come from :func:`composed`; known triples other than the query
    are filtered out.  Candidates within the relative tolerance of the true
    energy count as wins for the low end and as losses for the high end;
    exact ties with a lower id count as losses at both ends.
    """
    ent, rv = params.entity_emb, params.relation_emb
    E = len(ent)
    cand = np.arange(E, dtype=np.int64)
    lo, hi = [], []
    by_relation: dict[int, list] = {}
    for (h, r, t), side in queries:
        by_relation.setdefault(int(r), []).append((int(h), int(t), side))
    for r, group in by_relation.items():
        ph = ent @ composed(params, hp, r, "head").T
        pt = ent @ composed(params, hp, r, "tail").T
        for h, t, side in group:
            if side == "head":
                energies = _norm(ph + (rv[r] - pt[t]), hp.ell)
                keys, true_id = (r * E + cand) * E + t, h
            else:
                energies = _norm((ph[h] + rv[r]) - pt, hp.ell)
                keys, true_id = (r * E + h) * E + cand, t
            pos = np.minimum(np.searchsorted(known_keys, keys), len(known_keys) - 1)
            open_ = known_keys[pos] != keys
            open_[true_id] = False
            e_true = energies[true_id]
            tol = REL_TOL * abs(e_true)
            tie_low = (energies == e_true) & (cand < true_id)
            lo.append(1 + int((open_ & ((energies < e_true - tol) | tie_low)).sum()))
            hi.append(1 + int((open_ & (energies <= e_true + tol)).sum()))
    return np.array(lo), np.array(hi)


def check_ranking(report, raw_report, params, hp, queries, known_keys) -> None:
    """Filtered mean rank at most the raw one; mean rank and hits@10 of
    ``report`` inside the bracket recomputed for ``queries``."""
    _require(report.mean_rank <= raw_report.mean_rank,
             f"filtered mean rank {report.mean_rank} above raw {raw_report.mean_rank}")
    lo, hi = rank_bracket(params, hp, queries, known_keys)
    _require(report.n_queries == len(lo), f"{report.n_queries} queries ranked, {len(lo)} asked")
    slack = 1e-9
    _require(lo.mean() - slack <= report.mean_rank <= hi.mean() + slack,
             f"mean rank {report.mean_rank} outside [{lo.mean()}, {hi.mean()}]")
    h_lo, h_hi = 100.0 * (hi <= 10).mean(), 100.0 * (lo <= 10).mean()
    _require(h_lo - slack <= report.hits_at_10 <= h_hi + slack,
             f"hits@10 {report.hits_at_10} outside [{h_lo}, {h_hi}]")
