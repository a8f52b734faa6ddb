"""Triple ingestion, vocabularies, and per-relation training statistics.

Triple files are UTF-8 text with one fact per line, the three fields
separated by single tabs: ``head<TAB>relation<TAB>tail``.  Entities and
relations are mapped to dense integer ids; all derived statistics
(per-relation triple lists, head/tail domains, tails-per-head and
heads-per-tail means) are computed from the training split only, while
the filter set covers all three splits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Triple = tuple[int, int, int]

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"


class DataError(Exception):
    """Base class for ingestion failures (maps to the CLI data exit code)."""


class TripleParseError(DataError):
    """A line of a triple file does not have exactly three tab-separated fields."""


class VocabularyError(DataError):
    """A symbol is not present in a frozen vocabulary."""


@dataclass
class Vocab:
    """Bidirectional mapping between surface strings and dense integer ids."""

    entity_names: list[str] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    entity_index: dict[str, int] = field(default_factory=dict)
    relation_index: dict[str, int] = field(default_factory=dict)

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def add_entity(self, name: str) -> int:
        idx = self.entity_index.get(name)
        if idx is None:
            idx = len(self.entity_names)
            self.entity_names.append(name)
            self.entity_index[name] = idx
        return idx

    def add_relation(self, name: str) -> int:
        idx = self.relation_index.get(name)
        if idx is None:
            idx = len(self.relation_names)
            self.relation_names.append(name)
            self.relation_index[name] = idx
        return idx

    def entity_hash(self) -> str:
        h = hashlib.sha256()
        for name in self.entity_names:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def relation_hash(self) -> str:
        h = hashlib.sha256()
        for name in self.relation_names:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {"entities": list(self.entity_names), "relations": list(self.relation_names)}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        v = cls()
        for name in d["entities"]:
            v.add_entity(name)
        for name in d["relations"]:
            v.add_relation(name)
        return v


def load_triples(
    path: str | Path,
    vocab: Vocab | None = None,
    extend: bool | None = None,
) -> tuple[np.ndarray, Vocab]:
    """Read a tab-separated triple file and integer-encode it.

    With no vocab, a fresh one is built.  With a vocab and ``extend=True``
    unseen symbols are appended; with ``extend=False`` (the default when a
    vocab is supplied) any unseen symbol raises :class:`VocabularyError`,
    which is the right behavior when encoding valid/test files against a
    checkpoint vocabulary.

    Returns the triples as an ``(N, 3)`` int64 array of (head, relation,
    tail) ids together with the (possibly extended) vocab.
    """
    if vocab is None:
        vocab = Vocab()
        extend = True
    elif extend is None:
        extend = False

    path = Path(path)
    rows: list[tuple[int, int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            head, rel, tail = fields
            if extend:
                h = vocab.add_entity(head)
                r = vocab.add_relation(rel)
                t = vocab.add_entity(tail)
            else:
                try:
                    h = vocab.entity_index[head]
                except KeyError:
                    raise VocabularyError(f"{path}:{lineno}: unknown entity {head!r}") from None
                try:
                    r = vocab.relation_index[rel]
                except KeyError:
                    raise VocabularyError(f"{path}:{lineno}: unknown relation {rel!r}") from None
                try:
                    t = vocab.entity_index[tail]
                except KeyError:
                    raise VocabularyError(f"{path}:{lineno}: unknown entity {tail!r}") from None
            rows.append((h, r, t))
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), 3), vocab


def decode_triples(triples: np.ndarray, vocab: Vocab) -> list[str]:
    """Inverse of :func:`load_triples`: ids back to tab-separated lines."""
    ent, rel = vocab.entity_names, vocab.relation_names
    return [f"{ent[h]}\t{rel[r]}\t{ent[t]}" for h, r, t in np.asarray(triples)]


@dataclass
class TripleStore:
    """Immutable bundle of encoded splits and training-split statistics.

    ``by_relation`` maps each training relation to its (M, 3) triple rows;
    ``head_domain`` / ``tail_domain`` hold the sorted unique entities seen
    on each side of that relation in training.  ``all_known`` is the filter
    set over all three splits.  ``tph`` / ``hpt`` are the per-relation mean
    tails-per-head and heads-per-tail used by Bernoulli side selection.
    """

    n_entities: int
    n_relations: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    by_relation: dict[int, np.ndarray]
    head_domain: dict[int, np.ndarray]
    tail_domain: dict[int, np.ndarray]
    all_known: set[Triple]
    tph: np.ndarray
    hpt: np.ndarray

    def train_relations(self) -> list[int]:
        return sorted(self.by_relation)


def build_store(
    train: np.ndarray,
    valid: np.ndarray | None = None,
    test: np.ndarray | None = None,
    n_entities: int | None = None,
    n_relations: int | None = None,
) -> TripleStore:
    """Derive all per-relation indices and statistics from encoded splits.

    ``n_entities`` / ``n_relations`` default to the largest id seen plus
    one; pass the vocab sizes explicitly so entities that occur in only
    one split still count as ranking candidates.
    """
    train = np.asarray(train, dtype=np.int64).reshape(-1, 3)
    valid = np.zeros((0, 3), dtype=np.int64) if valid is None else np.asarray(valid, dtype=np.int64).reshape(-1, 3)
    test = np.zeros((0, 3), dtype=np.int64) if test is None else np.asarray(test, dtype=np.int64).reshape(-1, 3)

    splits = [s for s in (train, valid, test) if len(s)]
    max_e = max((int(max(s[:, 0].max(), s[:, 2].max())) for s in splits), default=-1)
    max_r = max((int(s[:, 1].max()) for s in splits), default=-1)
    n_entities = max_e + 1 if n_entities is None else n_entities
    n_relations = max_r + 1 if n_relations is None else n_relations

    by_relation: dict[int, np.ndarray] = {}
    head_domain: dict[int, np.ndarray] = {}
    tail_domain: dict[int, np.ndarray] = {}
    tph = np.zeros(n_relations)
    hpt = np.zeros(n_relations)
    if len(train):
        order = np.argsort(train[:, 1], kind="stable")
        srt = train[order]
        rel_ids, starts = np.unique(srt[:, 1], return_index=True)
        bounds = list(starts) + [len(srt)]
        for i, r in enumerate(rel_ids):
            rows = srt[bounds[i]:bounds[i + 1]]
            r = int(r)
            by_relation[r] = rows
            heads = np.unique(rows[:, 0])
            tails = np.unique(rows[:, 2])
            head_domain[r] = heads
            tail_domain[r] = tails
            tph[r] = len(rows) / len(heads)
            hpt[r] = len(rows) / len(tails)

    all_known: set[Triple] = set()
    for s in (train, valid, test):
        all_known.update(map(tuple, s.tolist()))

    return TripleStore(
        n_entities=n_entities,
        n_relations=n_relations,
        train=train,
        valid=valid,
        test=test,
        by_relation=by_relation,
        head_domain=head_domain,
        tail_domain=tail_domain,
        all_known=all_known,
        tph=tph,
        hpt=hpt,
    )


def load_dataset(data_dir: str | Path) -> tuple[TripleStore, Vocab]:
    """Load ``train.txt`` / ``valid.txt`` / ``test.txt`` from a directory.

    The vocabulary is built over the union of the three splits so every
    entity participates as a ranking candidate.
    """
    data_dir = Path(data_dir)
    train_path = data_dir / TRAIN_FILE
    if not train_path.exists():
        raise DataError(f"no {TRAIN_FILE} in {data_dir}")
    train, vocab = load_triples(train_path)
    valid_path = data_dir / VALID_FILE
    test_path = data_dir / TEST_FILE
    valid = np.zeros((0, 3), dtype=np.int64)
    test = np.zeros((0, 3), dtype=np.int64)
    if valid_path.exists():
        valid, vocab = load_triples(valid_path, vocab, extend=True)
    if test_path.exists():
        test, vocab = load_triples(test_path, vocab, extend=True)
    store = build_store(train, valid, test, vocab.n_entities, vocab.n_relations)
    return store, vocab


@dataclass
class FrequencyBins:
    """Partition of training relations by equal-length log-frequency intervals."""

    bin_of_relation: dict[int, int]
    boundaries: list[float]

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) - 1


def bins_from_frequencies(freqs: dict[int, float], n_bins: int = 3) -> FrequencyBins:
    """Assign each relation to the equal-length log-frequency interval its
    frequency falls in.  Values on an interior edge go to the lower bin; the
    top edge belongs to the last bin.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if not freqs:
        return FrequencyBins({}, [0.0] * (n_bins + 1))
    if any(f < 1 for f in freqs.values()):
        raise ValueError("every relation must have frequency >= 1")
    logs = {r: math.log(f) for r, f in freqs.items()}
    lo = min(logs.values())
    hi = max(logs.values())
    width = (hi - lo) / n_bins
    edges = [lo + j * width for j in range(n_bins + 1)]
    tol = 1e-9
    assignment = {}
    for r, lf in logs.items():
        if width == 0.0:
            assignment[r] = 0
            continue
        b = 0
        for j in range(1, n_bins):
            if lf > edges[j] + tol:
                b = j
            else:
                break
        assignment[r] = b
    return FrequencyBins(assignment, edges)


def bin_relations(store: TripleStore, n_bins: int = 3) -> FrequencyBins:
    """Bucket the training relations of ``store`` by log frequency."""
    freqs = {r: float(len(rows)) for r, rows in store.by_relation.items()}
    return bins_from_frequencies(freqs, n_bins)


def relation_statistics(store: TripleStore, vocab: Vocab | None = None) -> list[dict]:
    """Per-relation summary rows (id, frequency, domain sizes, tph, hpt)."""
    rows = []
    for r in store.train_relations():
        row = {
            "relation": r,
            "frequency": int(len(store.by_relation[r])),
            "head_domain_size": int(len(store.head_domain[r])),
            "tail_domain_size": int(len(store.tail_domain[r])),
            "tph": float(store.tph[r]),
            "hpt": float(store.hpt[r]),
        }
        if vocab is not None:
            row["name"] = vocab.relation_names[r]
        rows.append(row)
    return rows


def dump_statistics(store: TripleStore, vocab: Vocab, path: str | Path) -> None:
    """Write the vocab and per-relation statistics as a JSON document."""
    doc = {
        "n_entities": store.n_entities,
        "n_relations": store.n_relations,
        "n_train": int(len(store.train)),
        "n_valid": int(len(store.valid)),
        "n_test": int(len(store.test)),
        "vocab": vocab.to_dict(),
        "relations": relation_statistics(store, vocab),
    }
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")
