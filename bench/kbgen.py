"""Deterministic synthetic knowledge bases of WN18 and FB15k shape.

The real corpora are not bundled, so the benchmark generates stand-ins of
the same shape from a seed.  Relation frequencies follow a Zipf law with
exact (seed-independent) per-split counts, so every seed gives the same
workload size.  Entity popularity is Zipf-skewed over a seeded entity
order, and every relation side draws from its own domain, a popularity-
biased entity subset much smaller than the entity set; filter lists and
domain pools are therefore ragged, as in the real corpora.  Triples are
distinct across all three splits, and every entity occurs at least once,
so the loaded vocabulary has exactly ``n_entities`` entries.

Only the entity, relation and split counts of ``WN18`` and ``FB15K`` are
those of the published corpora.  The exponents, the fan-out ranges and the
domain cap were chosen, not fitted to per-relation statistics of the real
data (see ``bench/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    relation_zipf: float  # exponent of the relation frequency law
    entity_zipf: float    # exponent of the entity popularity law
    max_fanout: float     # per-relation tph/hpt are log-uniform in [1, max_fanout]


WN18 = Shape("wn18", 40_943, 18, 141_442, 5_000, 5_000, 1.0, 0.6, 4.0)
FB15K = Shape("fb15k", 14_951, 1_345, 483_142, 50_000, 59_071, 1.0, 0.6, 12.0)


@dataclass
class KB:
    """Generated splits as (N, 3) arrays of generator ids (h, r, t)."""

    shape: Shape
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


def apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer shares of ``total`` proportional to ``weights``
    (largest-remainder rounding)."""
    raw = total * weights / weights.sum()
    counts = np.floor(raw).astype(np.int64)
    counts[np.argsort(counts - raw, kind="stable")[: total - int(counts.sum())]] += 1
    return counts


def zipf_counts(total: int, n: int, s: float, minimum: int = 0) -> np.ndarray:
    """Exact counts summing to ``total``, proportional to rank**-s, each at
    least ``minimum``."""
    return minimum + apportion(total - minimum * n, np.arange(1, n + 1, dtype=float) ** -s)


def _pick_distinct(rng, n_entities, popularity_cdf, size, must, exclude_mask):
    """``must`` followed by popularity draws, ``size`` distinct entities."""
    chosen = list(must)
    taken = exclude_mask
    taken[must] = True
    need = size - len(chosen)
    while need > 0:
        draws = np.searchsorted(popularity_cdf, rng.random(2 * need + 8), side="right")
        draws = np.minimum(draws, n_entities - 1)
        _, first = np.unique(draws, return_index=True)
        fresh = [int(e) for e in draws[np.sort(first)] if not taken[e]][:need]
        taken[fresh] = True
        chosen.extend(fresh)
        need = size - len(chosen)
    taken[chosen] = False
    return np.asarray(chosen, dtype=np.int64)


def generate(shape: Shape, seed: int) -> KB:
    """Build the three splits of ``shape`` from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCB]))
    E, R = shape.n_entities, shape.n_relations
    c_train = zipf_counts(shape.n_train, R, shape.relation_zipf, minimum=1)
    c_valid = zipf_counts(shape.n_valid, R, shape.relation_zipf)
    c_test = zipf_counts(shape.n_test, R, shape.relation_zipf)
    total = c_train + c_valid + c_test

    # entity popularity: Zipf over a seeded order of the ids
    pop = np.empty(E)
    pop[rng.permutation(E)] = np.arange(1, E + 1, dtype=float) ** -shape.entity_zipf
    cdf = np.cumsum(pop / pop.sum())

    # domain sizes from seeded tails-per-head / heads-per-tail ratios
    log_max = np.log(shape.max_fanout)
    tph = np.exp(rng.uniform(0.0, log_max, size=R))
    hpt = np.exp(rng.uniform(0.0, log_max, size=R))
    cap = E // 4
    if cap * cap < 2 * total.max():
        raise ValueError(f"{shape.name}: too few entities for {total.max()} distinct pairs")
    d_head = np.clip(np.round(total / tph), 1, cap).astype(np.int64)
    d_tail = np.clip(np.round(total / hpt), 1, cap).astype(np.int64)
    # room for distinct pairs: |H| * |T| >= 2 * count
    for d, other in ((d_head, d_tail), (d_tail, d_head)):
        tight = d * other < 2 * total
        d[tight] = np.minimum(cap, np.ceil(2 * total[tight] / other[tight])).astype(np.int64)

    # every entity is placed in at least one domain, in proportion to size
    sizes = np.concatenate([d_head, d_tail])
    quota = np.minimum(apportion(E, sizes.astype(float)), sizes)
    placed = rng.permutation(E)
    offsets = np.concatenate([[0], np.cumsum(quota)])
    unplaced = placed[offsets[-1]:]

    scratch = np.zeros(E, dtype=bool)
    rows = []
    for r in range(R):
        c = int(total[r])
        doms = []
        for j, d in ((r, d_head[r]), (R + r, d_tail[r])):
            must = placed[offsets[j]:offsets[j + 1]]
            if j == 0 and len(unplaced):
                must = np.concatenate([must, unplaced])
            doms.append(_pick_distinct(rng, E, cdf, max(int(d), len(must)), must, scratch))
        heads_dom, tails_dom = doms
        # each domain member once, the rest skewed towards the domain front
        h_pos = np.concatenate([rng.permutation(len(heads_dom))[: c],
                                _skewed(rng, len(heads_dom), max(0, c - len(heads_dom)))])
        t_pos = np.concatenate([rng.permutation(len(tails_dom))[: c],
                                _skewed(rng, len(tails_dom), max(0, c - len(tails_dom)))])
        h = heads_dom[rng.permutation(h_pos)]
        t = tails_dom[rng.permutation(t_pos)]
        keys = h * E + t
        for _ in range(1000):
            _, first = np.unique(keys, return_index=True)
            dup = np.ones(c, dtype=bool)
            dup[first] = False
            if not dup.any():
                break
            h[dup] = heads_dom[rng.integers(len(heads_dom), size=int(dup.sum()))]
            t[dup] = tails_dom[rng.integers(len(tails_dom), size=int(dup.sum()))]
            keys = h * E + t
        else:
            raise RuntimeError(f"relation {r}: could not draw {c} distinct pairs")
        rows.append(np.stack([h, np.full(c, r, dtype=np.int64), t], axis=1))

    train, valid, test = [], [], []
    for r, block in enumerate(rows):
        block = block[rng.permutation(len(block))]
        a, b = int(c_train[r]), int(c_train[r] + c_valid[r])
        train.append(block[:a])
        valid.append(block[a:b])
        test.append(block[b:])
    train, valid, test = (np.concatenate(s) for s in (train, valid, test))
    _cover_entities(rng, E, train, valid, test)
    train, valid, test = (s[rng.permutation(len(s))] for s in (train, valid, test))
    return KB(shape, train, valid, test)


def _skewed(rng, n, size):
    """Domain positions with density falling off towards the domain end."""
    return np.minimum((n * rng.random(size) ** 2).astype(np.int64), n - 1)


def _cover_entities(rng, E, train, valid, test):
    """Give every entity that dropped out a training triple of its own, by
    replacing the tail of a random training triple without breaking
    distinctness."""
    seen = np.zeros(E, dtype=bool)
    for s in (train, valid, test):
        seen[s[:, 0]] = True
        seen[s[:, 2]] = True
    missing = np.flatnonzero(~seen)
    if not len(missing):
        return
    known = set()
    for s in (train, valid, test):
        known.update((s[:, 1] * E * E + s[:, 0] * E + s[:, 2]).tolist())
    # only tails that occur more than once may be replaced
    counts = np.zeros(E, dtype=np.int64)
    for s in (train, valid, test):
        np.add.at(counts, s[:, 0], 1)
        np.add.at(counts, s[:, 2], 1)
    for e in missing:
        while True:
            i = int(rng.integers(len(train)))
            h, r, t = (int(x) for x in train[i])
            key = r * E * E + h * E + int(e)
            if counts[t] > 1 and key not in known:
                break
        known.discard(r * E * E + h * E + t)
        known.add(key)
        counts[t] -= 1
        counts[e] += 1
        train[i, 2] = e


def write_kb(kb: KB, out_dir: Path) -> None:
    """Write ``train/valid/test.txt`` as tab-separated name triples."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in (("train.txt", kb.train), ("valid.txt", kb.valid), ("test.txt", kb.test)):
        lines = [f"e{h}\tr{r}\te{t}\n" for h, r, t in split.tolist()]
        (out_dir / name).write_text("".join(lines), encoding="utf-8")
