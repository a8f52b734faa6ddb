"""Filtered link-prediction ranking: mean rank and hits@10.

For every query triple, one side is hidden and every entity in the
knowledge base is scored as its replacement.  The filtered rank discounts
candidates that would form another known-true triple (from any split);
ties on energy count against the true entity only when the tying
candidate has the lower id, which makes ranks independent of iteration
order.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FrequencyBins, TripleStore, Vocab
from .model import SIDE_HEAD, SIDE_TAIL, Hyperparams, ModelParams, compose

HITS_CUTOFF = 10
_ENERGY_BLOCK = 4096  # candidate rows per block of energies


@dataclass
class RelationMetrics:
    mean_rank: float
    hits_at_10: float
    count: int


@dataclass
class EvalReport:
    """Aggregated ranking metrics, globally and per relation/bin."""

    mean_rank: float
    hits_at_10: float
    per_relation: dict[int, RelationMetrics]
    per_bin: dict[int, float] | None
    direction: str
    n_queries: int
    filtered: bool = True

    def to_dict(self) -> dict:
        return {
            "mean_rank": self.mean_rank,
            "hits_at_10": self.hits_at_10,
            "direction": self.direction,
            "n_queries": self.n_queries,
            "filtered": self.filtered,
            "per_relation": {
                str(r): {"mean_rank": m.mean_rank, "hits_at_10": m.hits_at_10, "count": m.count}
                for r, m in sorted(self.per_relation.items())
            },
            "per_bin": None if self.per_bin is None else {str(b): v for b, v in sorted(self.per_bin.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(
            mean_rank=d["mean_rank"],
            hits_at_10=d["hits_at_10"],
            per_relation={
                int(r): RelationMetrics(v["mean_rank"], v["hits_at_10"], v["count"])
                for r, v in d["per_relation"].items()
            },
            per_bin=None if d.get("per_bin") is None else {int(b): v for b, v in d["per_bin"].items()},
            direction=d["direction"],
            n_queries=d["n_queries"],
            filtered=d.get("filtered", True),
        )


def _candidate_energies(params: ModelParams, hp: Hyperparams, r: int, side: str, others: np.ndarray):
    """Yield, for each fixed entity of ``others``, the energies of all |E|
    substitutions on ``side`` of relation r.

    The projected entity table of ``side`` lives only while the generator
    runs; the fixed entities are projected one at a time, so an energy does
    not depend on which other queries share the call.
    """
    ent = params.entity_emb
    rv = params.relation_emb[r]
    if hp.model == "transe":
        table = ent
        w_other = None
    else:
        other_side = SIDE_TAIL if side == SIDE_HEAD else SIDE_HEAD
        table = ent @ compose(params, hp, side, [r])[2][0].T
        w_other = compose(params, hp, other_side, [r])[2][0]
    for o in others.tolist():
        p = ent[o] if w_other is None else w_other @ ent[o]
        fixed = rv - p if side == SIDE_HEAD else p + rv
        out = np.empty(len(table))
        # candidates in blocks: the temporary stays small and is reused
        # from the heap instead of faulting in a table-sized one per query
        for lo in range(0, len(table), _ENERGY_BLOCK):
            block = table[lo:lo + _ENERGY_BLOCK]
            buf = np.add(block, fixed) if side == SIDE_HEAD else np.subtract(fixed, block)
            if hp.ell == 1:
                np.abs(buf, out=buf)
            else:
                buf *= buf
            buf.sum(axis=1, out=out[lo:lo + _ENERGY_BLOCK])
        if hp.ell == 2:
            np.sqrt(out, out=out)
        yield out


def _known(store: TripleStore, r: int) -> np.ndarray:
    """Known triples of relation r across the three splits."""
    return np.concatenate([s[s[:, 1] == r] for s in (store.train, store.valid, store.test)])


def _rank_side(
    params: ModelParams,
    hp: Hyperparams,
    r: int,
    side: str,
    triples: np.ndarray,
    known: np.ndarray | None,
) -> list[int]:
    """Ranks of the true ``side`` entity of every triple of relation r.

    ``known`` holds the relation's known triples for filtering, or None for
    raw ranks.
    """
    true_col, other_col = (0, 2) if side == SIDE_HEAD else (2, 0)
    ranks = []
    energies = _candidate_energies(params, hp, r, side, triples[:, other_col])
    for (true_id, other), e in zip(triples[:, [true_col, other_col]].tolist(), energies):
        e_true = e[true_id]
        ahead = e < e_true
        ahead[:true_id] |= e[:true_id] == e_true
        if known is not None:
            ahead[known[known[:, other_col] == other, true_col]] = False
        ranks.append(1 + int(ahead.sum()))
    return ranks


def rank_query(
    triple,
    side: str,
    params: ModelParams,
    store: TripleStore,
    hp: Hyperparams,
    filtered: bool = True,
) -> int:
    """Filtered (or raw) rank of the true entity for one query."""
    h, r, t = (int(x) for x in triple)
    known = _known(store, r) if filtered else None
    return _rank_side(params, hp, r, side, np.array([[h, r, t]], dtype=np.int64), known)[0]


def evaluate(
    split: np.ndarray,
    params: ModelParams,
    hp: Hyperparams,
    store: TripleStore,
    direction: str = "both",
    filtered: bool = True,
    bins: FrequencyBins | None = None,
    workers: int = 1,
) -> EvalReport:
    """Rank every triple of ``split`` on the requested side(s) and aggregate.

    Queries are ranked one relation at a time, so at most one projected
    entity table per worker is alive.  Mean rank and hits@10 weight every
    query equally; the optional per-bin table averages the per-relation
    hits@10 inside each frequency bin, so every relation counts once
    regardless of its test frequency.
    """
    split = np.asarray(split, dtype=np.int64).reshape(-1, 3)
    sides = {
        "both": (SIDE_HEAD, SIDE_TAIL),
        SIDE_HEAD: (SIDE_HEAD,),
        SIDE_TAIL: (SIDE_TAIL,),
    }[direction]

    def rank_relation(r: int) -> tuple[np.ndarray, list[list[int]]]:
        rows = np.flatnonzero(split[:, 1] == r)
        known = _known(store, r) if filtered else None
        return rows, [_rank_side(params, hp, r, side, split[rows], known) for side in sides]

    relations = np.unique(split[:, 1]).tolist()
    if workers > 1 and len(relations) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(rank_relation, relations))
    else:
        groups = [rank_relation(r) for r in relations]
    # ranks[i, j]: row i of the split on side j
    ranks = np.zeros((len(split), len(sides)), dtype=np.int64)
    for rows, side_ranks in groups:
        ranks[rows] = np.array(side_ranks, dtype=np.int64).T
    ranks = ranks.ravel()
    rels = np.repeat(split[:, 1], len(sides))
    hits = ranks <= HITS_CUTOFF

    per_relation: dict[int, RelationMetrics] = {}
    for r in np.unique(rels):
        mask = rels == r
        per_relation[int(r)] = RelationMetrics(
            mean_rank=float(ranks[mask].mean()),
            hits_at_10=float(hits[mask].mean() * 100.0),
            count=int(mask.sum()),
        )

    per_bin = None
    if bins is not None:
        per_bin = {}
        for b in range(bins.n_bins):
            members = [r for r in per_relation if bins.bin_of_relation.get(r) == b]
            if members:
                per_bin[b] = float(np.mean([per_relation[r].hits_at_10 for r in members]))

    return EvalReport(
        mean_rank=float(ranks.mean()) if len(ranks) else 0.0,
        hits_at_10=float(hits.mean() * 100.0) if len(ranks) else 0.0,
        per_relation=per_relation,
        per_bin=per_bin,
        direction=direction,
        n_queries=len(ranks),
        filtered=filtered,
    )


def report_json(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")


def load_report(path: str | Path) -> EvalReport:
    return EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def report_text(report: EvalReport, vocab: Vocab | None = None) -> str:
    """Aligned-column human rendering of a report."""
    lines = [
        f"queries      {report.n_queries}",
        f"direction    {report.direction}",
        f"setting      {'filtered' if report.filtered else 'raw'}",
        f"mean rank    {report.mean_rank:.2f}",
        f"hits@10      {report.hits_at_10:.2f}",
    ]
    if report.per_bin:
        lines.append("")
        lines.append("bin  relation-avg hits@10")
        for b, v in sorted(report.per_bin.items()):
            lines.append(f"{b:<4d} {v:.2f}")
    if report.per_relation:
        name = (lambda r: vocab.relation_names[r]) if vocab else (lambda r: str(r))
        width = max(len(name(r)) for r in report.per_relation)
        lines.append("")
        lines.append(f"{'relation':<{width}}  {'count':>6}  {'mean rank':>10}  {'hits@10':>8}")
        for r, m in sorted(report.per_relation.items()):
            lines.append(
                f"{name(r):<{width}}  {m.count:>6d}  {m.mean_rank:>10.2f}  {m.hits_at_10:>8.2f}"
            )
    return "\n".join(lines) + "\n"


def per_relation_csv(report: EvalReport, path: str | Path, vocab: Vocab | None = None) -> None:
    """One row per relation: id, optional name, count, mean rank, hits@10."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["relation", "count", "mean_rank", "hits_at_10"]
        if vocab is not None:
            header.insert(1, "name")
        writer.writerow(header)
        for r, m in sorted(report.per_relation.items()):
            row = [r, m.count, repr(m.mean_rank), repr(m.hits_at_10)]
            if vocab is not None:
                row.insert(1, vocab.relation_names[r])
            writer.writerow(row)
