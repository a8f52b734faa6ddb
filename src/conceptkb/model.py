"""Learnable parameters, attention vectors, projections, and energies.

The shared-concept model keeps a single stack of ``m`` projection matrices.
Each relation composes them into head- and tail-side projections through a
support-restricted softmax: a binary assignment vector marks which concepts
a relation may use (at most ``k``), and a temperature softmax over the
pre-softmax scores distributes weight inside that support.  Setting the
support to all ones recovers dense attention; a per-relation pair of
dedicated slices with one-hot supports recovers the two-matrix baseline,
and identity slices recover plain translation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

SAMPLING_MODES = ("uniform", "bernoulli", "domain")
ATTENTION_MODES = ("sparse", "dense", "dense_l1")
MODELS = ("itransf", "transe", "stranse")
SIDE_HEAD = "head"
SIDE_TAIL = "tail"


class InitError(ValueError):
    """Raised when warm-start parameters do not fit the requested shapes."""


@dataclass
class Hyperparams:
    """All tunable knobs of the engine.

    ``block_stop`` of None means "half of the total epochs"; resolve it via
    :meth:`effective_block_stop`.  ``block_budget`` caps the number of
    training triples sampled per relation when scoring single-concept
    costs; None means no cap.
    """

    n: int = 50
    m: int = 30
    k: int = 2
    gamma: float = 5.0
    tau: float = 0.25
    ell: int = 1
    lr: float = 0.01
    batch_size: int = 20
    epochs: int = 2000
    block_every: int = 5
    block_stop: Optional[int] = None
    init_noise_sd: float = 0.005
    sampling_mode: str = "bernoulli"
    domain_lambda: float = 0.001
    domain_side_rule: str = "bernoulli"
    attention_mode: str = "sparse"
    l1_coef: float = 0.001
    proj_penalty: float = 1.0
    model: str = "itransf"
    block_budget: Optional[int] = 500

    def __post_init__(self):
        if not (1 <= self.k <= self.m):
            raise ValueError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.ell not in (1, 2):
            raise ValueError(f"ell must be 1 or 2, got {self.ell}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling_mode {self.sampling_mode!r}")
        if self.domain_side_rule not in ("bernoulli", "uniform"):
            raise ValueError(f"unknown domain_side_rule {self.domain_side_rule!r}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"unknown attention_mode {self.attention_mode!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")

    def effective_block_stop(self) -> int:
        return self.epochs // 2 if self.block_stop is None else self.block_stop

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(**d)

    def with_updates(self, **kw) -> "Hyperparams":
        return replace(self, **kw)


@dataclass
class ModelParams:
    """All learnable arrays.

    entity_emb     (|E|, n)  entity rows, unit L2 norm after every step
    relation_emb   (|R|, n)  relation translation rows
    concept_tensor (m, n, n) stacked concept projection matrices
    head_scores    (|R|, m)  pre-softmax scores, head side
    tail_scores    (|R|, m)  pre-softmax scores, tail side
    head_assign    (|R|, m)  binary concept supports, head side
    tail_assign    (|R|, m)  binary concept supports, tail side
    """

    entity_emb: np.ndarray
    relation_emb: np.ndarray
    concept_tensor: np.ndarray
    head_scores: np.ndarray
    tail_scores: np.ndarray
    head_assign: np.ndarray
    tail_assign: np.ndarray

    @property
    def n_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation_emb.shape[0]

    @property
    def n(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def m(self) -> int:
        return self.concept_tensor.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(
            entity_emb=self.entity_emb.copy(),
            relation_emb=self.relation_emb.copy(),
            concept_tensor=self.concept_tensor.copy(),
            head_scores=self.head_scores.copy(),
            tail_scores=self.tail_scores.copy(),
            head_assign=self.head_assign.copy(),
            tail_assign=self.tail_assign.copy(),
        )

    def scores(self, side: str) -> np.ndarray:
        return self.head_scores if side == SIDE_HEAD else self.tail_scores

    def assign(self, side: str) -> np.ndarray:
        return self.head_assign if side == SIDE_HEAD else self.tail_assign


def stranse_assignments(n_relations: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint one-hot supports: relation r owns slice 2r (head), 2r+1 (tail)."""
    if m != 2 * n_relations:
        raise InitError(f"two-matrix baseline needs m == 2*|R| ({2 * n_relations}), got {m}")
    head = np.zeros((n_relations, m), dtype=np.uint8)
    tail = np.zeros((n_relations, m), dtype=np.uint8)
    head[np.arange(n_relations), 2 * np.arange(n_relations)] = 1
    tail[np.arange(n_relations), 2 * np.arange(n_relations) + 1] = 1
    return head, tail


def init_params(
    n_entities: int,
    n_relations: int,
    hp: Hyperparams,
    seed: int,
    warm_start: ModelParams | None = None,
) -> ModelParams:
    """Build the initial parameter set.

    Concept matrices start as identity plus elementwise Normal(0, sd^2)
    noise.  Embeddings are uniform in [-6/sqrt(n), 6/sqrt(n)] and then
    row-normalized, unless copied from ``warm_start`` (a translation-model
    checkpoint trained by this same engine); warm-started entity rows are
    renormalized on copy.  Scores start at zero, which makes attention
    uniform over each support; supports are random exactly-k-hot rows
    except for the two-matrix baseline, which gets its fixed disjoint
    one-hot layout.
    """
    ss = np.random.SeedSequence(seed)
    rng_emb, rng_concept, rng_assign = (np.random.default_rng(c) for c in ss.spawn(3))

    n, m = hp.n, hp.m
    if warm_start is not None:
        if warm_start.entity_emb.shape != (n_entities, n) or warm_start.relation_emb.shape != (n_relations, n):
            raise InitError(
                "warm-start shape mismatch: have entities "
                f"{warm_start.entity_emb.shape}, relations {warm_start.relation_emb.shape}; "
                f"need ({n_entities}, {n}) and ({n_relations}, {n})"
            )
        entity = warm_start.entity_emb.copy()
        relation = warm_start.relation_emb.copy()
    else:
        bound = 6.0 / np.sqrt(n)
        entity = rng_emb.uniform(-bound, bound, size=(n_entities, n))
        relation = rng_emb.uniform(-bound, bound, size=(n_relations, n))
        relation /= np.linalg.norm(relation, axis=1, keepdims=True)
    entity /= np.linalg.norm(entity, axis=1, keepdims=True)

    concept = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    if hp.init_noise_sd > 0:
        concept += rng_concept.normal(0.0, hp.init_noise_sd, size=(m, n, n))

    if hp.attention_mode == "dense_l1":
        # raw nonnegative weights play the role of attention; start uniform
        head_scores = np.full((n_relations, m), 1.0 / m)
        tail_scores = np.full((n_relations, m), 1.0 / m)
    else:
        head_scores = np.zeros((n_relations, m))
        tail_scores = np.zeros((n_relations, m))

    if hp.model == "stranse":
        head_assign, tail_assign = stranse_assignments(n_relations, m)
    else:
        head_assign = np.zeros((n_relations, m), dtype=np.uint8)
        tail_assign = np.zeros((n_relations, m), dtype=np.uint8)
        for r in range(n_relations):
            head_assign[r, rng_assign.choice(m, size=hp.k, replace=False)] = 1
            tail_assign[r, rng_assign.choice(m, size=hp.k, replace=False)] = 1

    return ModelParams(
        entity_emb=entity,
        relation_emb=relation,
        concept_tensor=concept,
        head_scores=head_scores,
        tail_scores=tail_scores,
        head_assign=head_assign,
        tail_assign=tail_assign,
    )


def sparse_softmax(v: np.ndarray, support: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax restricted to the support's nonzero entries.

    Entries off the support are exactly zero.  The max over active scores
    is subtracted before exponentiation; mathematically a no-op, required
    for stability.
    """
    v = np.asarray(v, dtype=float)
    mask = np.asarray(support) != 0
    if not mask.any():
        raise ValueError("support has no active entries")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    out = np.zeros_like(v)
    active = v[mask] / tau
    e = np.exp(active - active.max())
    out[mask] = e / e.sum()
    return out


def project(alpha: np.ndarray, concept_tensor: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Apply the attention-composed projection to one vector.

    Computed as the sum over active concepts of ``alpha_i * (D_i @ e)``, so
    the cost scales with the number of nonzero attention entries, not m.
    """
    alpha = np.asarray(alpha, dtype=float)
    (active,) = np.nonzero(alpha)
    out = np.zeros_like(np.asarray(e, dtype=float))
    for i in active:
        out += alpha[i] * (concept_tensor[i] @ e)
    return out


def attention_vector(params: ModelParams, hp: Hyperparams, r: int, side: str) -> np.ndarray:
    """Attention weights of one relation side under the current mode; the
    scalar reference for :func:`attention`, used by the scalar energies.

    sparse:   softmax over the assignment support
    dense:    softmax over all m concepts
    dense_l1: the raw nonnegative weights, no normalization
    """
    scores = params.scores(side)[r]
    if hp.attention_mode == "sparse":
        return sparse_softmax(scores, params.assign(side)[r], hp.tau)
    if hp.attention_mode == "dense":
        return sparse_softmax(scores, np.ones_like(scores), hp.tau)
    return np.maximum(scores, 0.0)


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


def compose(
    params: ModelParams, hp: Hyperparams, side: str, rels
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Compose the ``side`` projections of the relations in ``rels``.

    Returns ``(act, weights, W)``.  ``act`` (U, c) holds each relation's
    concepts of nonzero attention in ascending order; ``c`` is the widest
    row's count, and shorter rows are padded with concepts of zero weight.
    ``weights`` (U, c) is their attention and ``W`` the list of the U
    ``(n, n)`` projections.  In sparse mode each costs c n^2 (c is at most
    the support size); the dense modes contract all m concepts at once.
    """
    alpha = attention(params, hp, side, np.asarray(rels, dtype=np.int64))
    zero = alpha == 0
    c = int((~zero).sum(axis=1).max(initial=0))
    act = np.argsort(zero, axis=1, kind="stable")[:, :c]
    weights = np.take_along_axis(alpha, act, axis=1)
    D = params.concept_tensor
    if hp.attention_mode != "sparse":
        return act, weights, list(np.tensordot(alpha, D, axes=(1, 0)))
    # one small array per relation: faster than a stacked gather, and the
    # heap reuses it batch after batch
    W = []
    for idx, w in zip(act.tolist(), weights.tolist()):
        proj = D[idx[0]] * w[0]
        for i, wi in zip(idx[1:], w[1:]):
            proj += D[i] * wi
        W.append(proj)
    return act, weights, W


def vec_norm(u: np.ndarray, ell: int) -> float:
    if ell == 1:
        return float(np.abs(u).sum())
    return float(np.sqrt(u @ u))


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


def single_matrix_energy(
    side: str, i: int, h: int, r: int, t: int, params: ModelParams, hp: Hyperparams
) -> float:
    """Energy with one side's projection replaced by the bare concept ``i``.

    The other side keeps its current attention-composed projection; this is
    the quantity whose per-relation hinge sum drives support reassignment.
    """
    if side == SIDE_HEAD:
        ph = params.concept_tensor[i] @ params.entity_emb[h]
        alpha_t = attention_vector(params, hp, r, SIDE_TAIL)
        pt = project(alpha_t, params.concept_tensor, params.entity_emb[t])
    else:
        alpha_h = attention_vector(params, hp, r, SIDE_HEAD)
        ph = project(alpha_h, params.concept_tensor, params.entity_emb[h])
        pt = params.concept_tensor[i] @ params.entity_emb[t]
    return vec_norm(ph + params.relation_emb[r] - pt, hp.ell)


def energy(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Energy under the configured model family."""
    if hp.model == "transe":
        return energy_transe(h, r, t, params, hp)
    return energy_itransf(h, r, t, params, hp)


@dataclass
class AttentionSnapshot:
    """Per-relation head/tail attention rows, (|R|, m) each."""

    head: np.ndarray
    tail: np.ndarray

    @property
    def n_relations(self) -> int:
        return self.head.shape[0]

    @property
    def m(self) -> int:
        return self.head.shape[1]


def attention_snapshot(params: ModelParams, hp: Hyperparams) -> AttentionSnapshot:
    """Collect every relation's attention vectors under the current mode."""
    return AttentionSnapshot(
        head=attention(params, hp, SIDE_HEAD), tail=attention(params, hp, SIDE_TAIL)
    )
