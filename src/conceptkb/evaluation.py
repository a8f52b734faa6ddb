"""Filtered link-prediction ranking: mean rank and hits@10.

For every query triple, one side is hidden and every entity in the
knowledge base is scored as its replacement.  The filtered rank discounts
candidates that would form another known-true triple (from any split);
ties on energy count against the true entity only when the tying
candidate has the lower id, which makes ranks independent of iteration
order.

Candidates are screened in float32 and decided in float64.  Each relation
side's candidates are projected with one float32 GEMM into an (n, |E|)
table, one column per entity, and a query's screened energies are a few
elementwise passes and a sum over the n rows, each running |E| long.  A
proven bound δ (:mod:`conceptkb.bounds`) covers every error of the
screen: a candidate screened more than δ below the true entity's float64
energy is ahead of it, one more than δ above is not, and only the few
within δ are re-scored in float64 and compared with the tie rule above.
Ranks are therefore those that the float64 re-score would give if it
scored every candidate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .bounds import _NORM_LIMIT, _error_bound, _matrix_norm, _max_row_norm
from .data import DataError, FrequencyBins, TripleStore, Vocab
from .model import SIDE_HEAD, SIDE_TAIL, Hyperparams, ModelParams, compose
from .threads import map_ordered

HITS_CUTOFF = 10
# widest of the near-equal blocks candidate columns are split into.  Below about
# 2,700 columns the broadcast add goes through numpy's buffered iterator and runs 2-3x slower.
_ENERGY_BLOCK = 4096
_OUTWARD = np.array([-np.inf, np.inf], dtype=np.float32)


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


def _rescore(ent: np.ndarray, w: np.ndarray | None, fixed: np.ndarray, ids, ell: int) -> np.ndarray:
    """Float64 energies of the candidates ``ids`` against ``fixed``.

    A candidate's bits do not depend on which others share the call, so two
    equal entity rows tie exactly wherever they sit.  Each candidate is
    projected by its own matrix-vector product (one GEMM over a gather sums
    a column differently by width and position), and the n coordinates are
    summed down the columns of a C-ordered (n, k) array, one add per row.
    numpy sums a lone column pairwise, so one candidate is scored twice.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        return np.empty(0)
    cols = np.repeat(ids, 2) if len(ids) == 1 else ids
    if w is None:
        diff = ent[cols].T.copy()
    else:
        diff = np.stack([w @ ent[c] for c in cols.tolist()], axis=1)
    diff += fixed[:, None]
    if ell == 1:
        np.abs(diff, out=diff)
    else:
        diff *= diff
    out = diff.sum(axis=0)
    if ell == 2:
        np.sqrt(out, out=out)
    return out[:len(ids)]


def _candidate_energies(
    params: ModelParams,
    hp: Hyperparams,
    r: int,
    side: str,
    others: np.ndarray,
    ent32: np.ndarray,
    ent_norm: float,
):
    """Yield, for each fixed entity of ``others``, ``(screened, delta,
    rescore)``: the float32 energies of all |E| substitutions on ``side``
    of relation r, the bound δ on their error, and a function that gives
    the float64 energies of the candidate ids it is passed.

    ``ent32`` is the entity rows as a float32 (n, |E|) table and
    ``ent_norm`` their largest ell-norm.  The screen table of ``side`` is
    column-major, one column per candidate, so every elementwise pass and
    the sum over the n coordinates run |E| long.  It lives only while the
    generator runs; the fixed entities are projected one at a time, so an
    energy does not depend on which other queries share the call.  Raises
    ValueError, naming the relation side, when the table or a fixed vector
    is not finite or too large for float32.
    """
    ent = params.entity_emb
    rv = params.relation_emb[r]
    if hp.model == "transe":
        w = w_other = None
    else:
        other_side = SIDE_TAIL if side == SIDE_HEAD else SIDE_HEAD
        w = compose(params, hp, side, [r])[2][0]
        w_other = compose(params, hp, other_side, [r])[2][0]
    w_norm = 1.0 if w is None else _matrix_norm(w, hp.ell)
    if not (w_norm <= _NORM_LIMIT and ent_norm <= _NORM_LIMIT):
        raise ValueError(f"relation {r} {side}: the candidate table is not finite "
                         "or too large to rank")
    table = ent32 if w is None else w.astype(np.float32) @ ent32
    n_cand = table.shape[1]
    # candidates in column blocks: one small buffer serves every block and
    # query instead of a table-sized temporary per query
    n_blocks = -(-n_cand // _ENERGY_BLOCK)
    width = -(-n_cand // n_blocks)
    buf = np.empty((table.shape[0], width), dtype=np.float32)
    for o in others.tolist():
        p = ent[o] if w_other is None else w_other @ ent[o]
        # a tail candidate's difference p + r - c is negated, c - (p + r):
        # the same norm, bit for bit, since fl(a - b) = -fl(b - a)
        fixed = rv - p if side == SIDE_HEAD else -(p + rv)
        fixed_norm = np.linalg.norm(fixed, ord=hp.ell)
        if not w_norm * ent_norm + fixed_norm <= _NORM_LIMIT:
            raise ValueError(f"relation {r} {side}: the fixed vector of entity {o} is not finite "
                             "or too large to rank")
        fixed32 = fixed.astype(np.float32)[:, None]
        out = np.empty(n_cand, dtype=np.float32)
        for lo in range(0, n_cand, width):
            block = table[:, lo:lo + width]
            diff = buf[:, :block.shape[1]]
            np.add(block, fixed32, out=diff)
            if hp.ell == 1:
                np.abs(diff, out=diff)
            else:
                diff *= diff
            diff.sum(axis=0, out=out[lo:lo + width])
        if hp.ell == 2:
            np.sqrt(out, out=out)
        delta = _error_bound(hp.n, w_norm, ent_norm, fixed_norm)
        yield out, delta, partial(_rescore, ent, w, fixed, ell=hp.ell)


def _known(store: TripleStore, r: int) -> np.ndarray:
    """Sorted keys ``h·E + t`` of relation r's known triples, cut from the
    store's filter index."""
    span = store.n_entities**2
    lo, hi = np.searchsorted(store.all_known, [r * span, (r + 1) * span])
    return store.all_known[lo:hi] - r * span


def _rank_side(
    params: ModelParams,
    hp: Hyperparams,
    r: int,
    side: str,
    triples: np.ndarray,
    store: TripleStore | None,
    ent32: np.ndarray,
    ent_norm: float,
) -> list[int]:
    """Ranks of the true ``side`` entity of every triple of relation r.

    ``store`` supplies the known triples to filter by, or is None for raw
    ranks.  The float32 screen settles every candidate more than δ from the
    true entity's float64 energy; the rest are re-scored in float64.
    """
    true_col, other_col = (0, 2) if side == SIDE_HEAD else (2, 0)
    others = triples[:, other_col]
    if store is not None:
        n = store.n_entities
        keys = _known(store, r)  # h·E + t: already other·E + true for tails
        if side == SIDE_HEAD:
            h, t = np.divmod(keys, n)
            keys = np.sort(t * n + h)
        # each query's filtered entities are the keys in [other·E, other·E + E)
        starts = np.searchsorted(keys, others * n)
        ends = np.searchsorted(keys, others * n + n)
    ranks = []
    energies = _candidate_energies(params, hp, r, side, others, ent32, ent_norm)
    true_ids = triples[:, true_col].tolist()
    for i, (true_id, (screened, delta, rescore)) in enumerate(zip(true_ids, energies)):
        e_true = rescore([true_id])[0]
        # float32 thresholds one step outside e_true ± δ, so that rounding
        # them cannot narrow the band
        edges = np.array([e_true - delta, e_true + delta], dtype=np.float32)
        lo, hi = np.nextafter(edges, _OUTWARD)
        ahead = screened < lo
        band = screened <= hi
        if store is not None:
            known = keys[starts[i]:ends[i]] % n
            ahead[known] = False
            band[known] = False
        band ^= ahead  # the candidates within δ of e_true
        band[true_id] = False
        ids = np.flatnonzero(band)
        e = rescore(ids)
        close = (e < e_true) | ((e == e_true) & (ids < true_id))
        ranks.append(1 + int(np.count_nonzero(ahead)) + int(np.count_nonzero(close)))
    return ranks


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

    Queries are ranked one relation at a time, so at most one float32
    candidate table per worker is alive, beside one float32 copy of the
    entity rows that the workers share.  Mean rank and hits@10 weight every
    query equally; the optional per-bin table averages the per-relation
    hits@10 inside each frequency bin, so every relation counts once
    regardless of its test frequency.  Raises ValueError, naming the
    relation side, when a candidate table or fixed vector is not finite.
    """
    split = np.asarray(split, dtype=np.int64).reshape(-1, 3)
    sides = {
        "both": (SIDE_HEAD, SIDE_TAIL),
        SIDE_HEAD: (SIDE_HEAD,),
        SIDE_TAIL: (SIDE_TAIL,),
    }[direction]

    filter_by = store if filtered else None
    ent32 = np.ascontiguousarray(params.entity_emb.T, dtype=np.float32)
    ent_norm = _max_row_norm(params.entity_emb, hp.ell)

    def rank_relation(r: int) -> tuple[np.ndarray, list[list[int]]]:
        rows = np.flatnonzero(split[:, 1] == r)
        return rows, [_rank_side(params, hp, r, side, split[rows], filter_by, ent32, ent_norm)
                      for side in sides]

    relations = np.unique(split[:, 1]).tolist()
    groups = map_ordered(rank_relation, relations, workers)
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

    return EvalReport(
        mean_rank=float(ranks.mean()) if len(ranks) else 0.0,
        hits_at_10=float(hits.mean() * 100.0) if len(ranks) else 0.0,
        per_relation=per_relation,
        per_bin=None if bins is None else bin_hits(per_relation, bins),
        direction=direction,
        n_queries=len(ranks),
        filtered=filtered,
    )


def bin_hits(per_relation: dict[int, RelationMetrics], bins: FrequencyBins) -> dict[int, float]:
    """Per-relation hits@10 averaged inside each frequency bin, so every
    relation counts once; bins holding none of the relations are left out."""
    out = {}
    for b in range(bins.n_bins):
        members = [m.hits_at_10 for r, m in per_relation.items() if bins.bin_of_relation.get(r) == b]
        if members:
            out[b] = float(np.mean(members))
    return out


def report_json(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")


def load_report(path: str | Path) -> EvalReport:
    try:
        return EvalReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is not an eval report: {type(exc).__name__}: {exc}") from None


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
