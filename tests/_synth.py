"""Synthetic knowledge bases shared across test modules."""

import numpy as np

from conceptkb.data import build_store


def decode_triples(triples, vocab):
    """Ids back to the tab-separated lines that ``load_triples`` reads."""
    ent, rel = vocab.entity_names, vocab.relation_names
    return [f"{ent[h]}\t{rel[r]}\t{ent[t]}" for h, r, t in np.asarray(triples).tolist()]


def unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def random_kb(seed, n_entities=20, n_relations=4, n_train=80, n_valid=10, n_test=10):
    """Uniformly random triples split three ways (duplicates allowed across
    splits, mirroring real benchmark leakage into the filter set)."""
    rng = np.random.default_rng(seed)

    def draw(count):
        return np.stack(
            [
                rng.integers(n_entities, size=count),
                rng.integers(n_relations, size=count),
                rng.integers(n_entities, size=count),
            ],
            axis=1,
        ).astype(np.int64)

    train, valid, test = draw(n_train), draw(n_valid), draw(n_test)
    store = build_store(train, valid, test, n_entities=n_entities, n_relations=n_relations)
    return store


def cluster_kb(seed=123, n_entities=50, dim=8, rels_per_cluster=5, per_rel=120):
    """Facts generated from two known ground-truth projection matrices.

    The ground truths are cyclic coordinate shifts, crossed between the
    sides: cluster 0 facts satisfy shift(h, 1) + r = shift(t, 2), cluster
    1 facts shift(h, 2) + r = shift(t, 1).  The head/tail generator ratios
    (one step backward vs forward around the cycle) are distinct and far
    from the identity, so neither the shared entity geometry nor a single
    common projection can absorb both clusters.  Relations inside a
    cluster are statistical copies (same generator pair, same
    translation).  Returns (store, relations-per-cluster).
    """
    rng = np.random.default_rng(seed)
    ent = unit_rows(rng, (n_entities, dim))
    trans = 0.5 * unit_rows(rng, (2, dim))
    triples = set()
    n_rel = 2 * rels_per_cluster
    for j in range(n_rel):
        c = j // rels_per_cluster
        rv = trans[c]
        for _ in range(per_rel):
            h = int(rng.integers(n_entities))
            if c == 0:
                target = np.roll(ent[h], 1) + rv
                scores = np.abs(np.roll(ent, 2, axis=1) - target).sum(axis=1)
            else:
                target = np.roll(ent[h], 2) + rv
                scores = np.abs(np.roll(ent, 1, axis=1) - target).sum(axis=1)
            t = int(rng.choice(np.argsort(scores)[:3]))
            triples.add((h, j, t))
    arr = np.array(sorted(triples), dtype=np.int64)
    store = build_store(arr, n_entities=n_entities, n_relations=n_rel)
    return store, rels_per_cluster


def structured_kb(seed, n_entities=300, n_relations=12, per_rel=200, dim=10):
    """A learnable KB with translation structure and a long-tailed relation
    frequency profile, split into train/valid/test."""
    rng = np.random.default_rng(seed)
    ent = unit_rows(rng, (n_entities, dim))
    rvecs = 0.8 * unit_rows(rng, (n_relations, dim))
    triples = []
    for j in range(n_relations):
        count = max(10, int(per_rel / (1 + j)))  # long tail
        for _ in range(count):
            h = int(rng.integers(n_entities))
            target = ent[h] + rvecs[j]
            cand = np.argsort(np.abs(ent - target).sum(axis=1))[:3]
            t = int(rng.choice(cand))
            triples.append((h, j, t))
    arr = np.array(triples, dtype=np.int64)
    rng.shuffle(arr)
    n = len(arr)
    train, valid, test = arr[: int(0.8 * n)], arr[int(0.8 * n): int(0.9 * n)], arr[int(0.9 * n):]
    return build_store(train, valid, test, n_entities=n_entities, n_relations=n_relations)
