"""Plot-ready data files: attention heatmaps, frequency curves, bin tables,
and the per-relation metrics of an eval report.

Every export is a pure function of its inputs and writes an RFC-4180-style
CSV; all but the per-relation table also write a JSON mirror next to it
(same stem, ``.json`` suffix).  Numeric cells use full round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .data import FrequencyBins, TripleStore, Vocab
from .evaluation import EvalReport, bin_hits


class ExportError(ValueError):
    """Bad export request (unknown relation names, mismatched binning)."""


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json_mirror(path: Path, header: list[str], rows: list[list]) -> None:
    doc = {"columns": header, "rows": rows}
    path.with_suffix(".json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


def export_attention(
    head: np.ndarray,
    tail: np.ndarray,
    vocab: Vocab,
    path: str | Path,
    relations: list[str] | None = None,
) -> Path:
    """One row per (relation, side) with the m attention weights, taken
    from the (|R|, m) rows ``head`` and ``tail`` of :func:`model.attention`.

    ``relations`` optionally restricts the export to the named relations;
    an unknown name raises with the list of valid ones.
    """
    path = Path(path)
    if relations is None:
        rel_ids = list(range(len(head)))
    else:
        rel_ids = []
        for name in relations:
            if name not in vocab.relation_index:
                valid = ", ".join(vocab.relation_names)
                raise ExportError(f"unknown relation {name!r}; valid relations: {valid}")
            rel_ids.append(vocab.relation_index[name])
    header = ["relation_side"] + [f"c{i}" for i in range(head.shape[1])]
    rows = []
    for r in rel_ids:
        name = vocab.relation_names[r]
        rows.append([f"{name}(H)"] + [_fmt(w) for w in head[r]])
        rows.append([f"{name}(T)"] + [_fmt(w) for w in tail[r]])
    _write_csv(path, header, rows)
    _write_json_mirror(path, header, rows)
    return path


def export_frequency(store: TripleStore, path: str | Path, vocab: Vocab | None = None) -> Path:
    """Relations sorted by descending training frequency with natural-log
    frequency alongside."""
    path = Path(path)
    freqs = sorted(
        ((r, len(rows)) for r, rows in store.by_relation.items()),
        key=lambda item: (-item[1], item[0]),
    )
    header = ["relation", "frequency", "log_frequency"]
    if vocab is not None:
        header.insert(1, "name")
    rows = []
    for r, f in freqs:
        row = [r, f, _fmt(math.log(f))]
        if vocab is not None:
            row.insert(1, vocab.relation_names[r])
        rows.append(row)
    _write_csv(path, header, rows)
    _write_json_mirror(path, header, rows)
    return path


def export_bin_comparison(
    reports: dict[str, EvalReport],
    bins: FrequencyBins,
    path: str | Path,
) -> Path:
    """Relation-averaged hits@10 per frequency bin, one column per model.

    All reports must cover relations known to the binning; a relation
    outside it means the reports and bins came from different data.
    """
    path = Path(path)
    if not reports:
        raise ExportError("no reports to compare")
    for name, report in reports.items():
        missing = [r for r in report.per_relation if r not in bins.bin_of_relation]
        if missing:
            raise ExportError(
                f"report {name!r} covers relations absent from the binning: {missing[:5]}"
            )
    names = list(reports)
    header = ["bin"] + names
    hits = [bin_hits(reports[name].per_relation, bins) for name in names]
    rows = [[b] + [_fmt(h[b]) if b in h else "" for h in hits] for b in range(bins.n_bins)]
    _write_csv(path, header, rows)
    _write_json_mirror(path, header, rows)
    return path


def per_relation_csv(report: EvalReport, path: str | Path, vocab: Vocab | None = None) -> None:
    """One row per relation: id, optional name, count, mean rank, hits@10."""
    header = ["relation", "count", "mean_rank", "hits_at_10"]
    if vocab is not None:
        header.insert(1, "name")
    rows = []
    for r, m in sorted(report.per_relation.items()):
        row = [r, m.count, repr(m.mean_rank), repr(m.hits_at_10)]
        if vocab is not None:
            row.insert(1, vocab.relation_names[r])
        rows.append(row)
    _write_csv(Path(path), header, rows)
