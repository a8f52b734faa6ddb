"""Corrupted-triple generation: uniform, Bernoulli, and domain sampling.

A corrupted triple replaces exactly one side of a training fact.  The side
is chosen uniformly or by the Bernoulli rule (replace the head with
probability tph/(tph+hpt) for the triple's relation).  Under domain
sampling the replacement entity is drawn from the relation's observed
head/tail domain with a per-relation probability ``p_r`` and from the full
entity set otherwise; ``p_r`` grows with the domain sizes, shrinks with
the relation's frequency, and is capped at one half so that in-domain
draws never dominate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .data import TripleStore

P_CAP = 0.5


def domain_probability(store: TripleStore, r: int, lam: float) -> float:
    """min(lam * |tail domain| * |head domain| / |N_r|, 0.5) for relation r."""
    rows = store.by_relation.get(r)
    if rows is None or len(rows) == 0:
        raise ValueError(f"relation {r} does not occur in the training split")
    m_h = len(store.head_domain[r])
    m_t = len(store.tail_domain[r])
    return min(lam * m_t * m_h / len(rows), P_CAP)


@dataclass
class DomainSampler:
    """Seeded corruption state: per-relation in-domain probabilities + rng."""

    store: TripleStore
    lam: float = 0.001
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    p_r: np.ndarray = field(init=False)

    def __post_init__(self):
        if isinstance(self.rng, (int, np.integer)):
            self.rng = np.random.default_rng(self.rng)
        p = np.zeros(self.store.n_relations)
        for r in self.store.by_relation:
            p[r] = domain_probability(self.store, r, self.lam)
        self.p_r = p

    def reseeded(self, rng: np.random.Generator) -> "DomainSampler":
        """A sampler with the same probabilities that draws from ``rng``."""
        out = copy.copy(self)
        out.rng = rng
        return out


def _head_probability(store: TripleStore, r: int) -> float:
    tph = store.tph[r]
    hpt = store.hpt[r]
    denom = tph + hpt
    return 0.5 if denom == 0 else tph / denom


def _draw_replacement(
    rng: np.random.Generator,
    n_entities: int,
    original: int,
    domain: np.ndarray | None,
) -> int:
    """Uniform draw from the pool, resampling collisions with the original.

    A domain pool that only contains the original entity falls back to the
    full entity set.
    """
    if domain is not None:
        if len(domain) == 1 and int(domain[0]) == original:
            domain = None
        else:
            while True:
                cand = int(domain[rng.integers(len(domain))])
                if cand != original:
                    return cand
    while True:
        cand = int(rng.integers(n_entities))
        if cand != original:
            return cand


def corrupt(
    triple,
    store: TripleStore,
    mode: str,
    sampler: DomainSampler,
    domain_side: str = "bernoulli",
) -> tuple[int, int, int]:
    """Produce one corrupted triple that differs from the source.

    mode "uniform": side fair coin, replacement uniform over all entities.
    mode "bernoulli": side by the tph/(tph+hpt) rule, replacement uniform.
    mode "domain": side by ``domain_side`` ("bernoulli" or "uniform"), then
    with probability p_r the replacement is drawn from the matching domain
    set and from the full entity set otherwise.
    """
    h, r, t = (int(x) for x in triple)
    rng = sampler.rng
    if store.n_entities < 2:
        raise ValueError("cannot corrupt triples with fewer than two entities")

    if mode == "uniform" or (mode == "domain" and domain_side == "uniform"):
        replace_head = rng.random() < 0.5
    else:
        replace_head = rng.random() < _head_probability(store, r)

    domain = None
    if mode == "domain" and rng.random() < sampler.p_r[r]:
        domain = store.head_domain.get(r) if replace_head else store.tail_domain.get(r)

    if replace_head:
        return (_draw_replacement(rng, store.n_entities, h, domain), r, t)
    return (h, r, _draw_replacement(rng, store.n_entities, t, domain))


def corrupt_batch(
    triples: np.ndarray,
    store: TripleStore,
    mode: str,
    sampler: DomainSampler,
    domain_side: str = "bernoulli",
) -> np.ndarray:
    """Vectorized corruption of a (B, 3) batch; same distribution as
    :func:`corrupt`, independent draw stream."""
    if store.n_entities < 2:
        raise ValueError("cannot corrupt triples with fewer than two entities")
    triples = np.asarray(triples)
    B = len(triples)
    rng = sampler.rng
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]

    if mode == "uniform" or (mode == "domain" and domain_side == "uniform"):
        replace_head = rng.random(B) < 0.5
    else:
        tph = store.tph[r]
        hpt = store.hpt[r]
        denom = tph + hpt
        p_head = np.where(denom > 0, tph / np.where(denom > 0, denom, 1.0), 0.5)
        replace_head = rng.random(B) < p_head

    in_domain = np.zeros(B, dtype=bool)
    if mode == "domain":
        in_domain = rng.random(B) < sampler.p_r[r]

    original = np.where(replace_head, h, t)
    new = np.empty(B, dtype=np.int64)

    # domain-pool draws, entry by entry (pools have ragged sizes)
    for b in np.nonzero(in_domain)[0]:
        pool = store.head_domain.get(int(r[b])) if replace_head[b] else store.tail_domain.get(int(r[b]))
        new[b] = _draw_replacement(rng, store.n_entities, int(original[b]), pool)

    free = np.nonzero(~in_domain)[0]
    if len(free):
        draws = rng.integers(store.n_entities, size=len(free))
        collide = draws == original[free]
        while collide.any():
            draws[collide] = rng.integers(store.n_entities, size=int(collide.sum()))
            collide = draws == original[free]
        new[free] = draws

    out = triples.copy()
    out[replace_head, 0] = new[replace_head]
    out[~replace_head, 2] = new[~replace_head]
    return out
