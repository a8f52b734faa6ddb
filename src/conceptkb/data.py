"""Triple ingestion, vocabularies, and per-relation training statistics.

Triple files are UTF-8 text with one fact per line, the three fields
separated by single tabs: ``head<TAB>relation<TAB>tail``.  Lines end in
LF, CRLF or a lone CR (universal newlines); each non-blank line holds
exactly two tabs; blank lines are skipped but counted in line numbers.
Entities and relations are mapped to dense integer ids; all derived
statistics (per-relation triple lists, head/tail domains, tails-per-head
and heads-per-tail means) are computed from the training split only,
while the filter index covers all three splits.  That index holds each
known triple ``(h, r, t)`` as the int64 key ``(r·E + h)·E + t`` over ``E``
entities, so a store needs ``n_relations · n_entities² < 2**63``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
        return _intern(self.entity_index, self.entity_names, name)

    def add_relation(self, name: str) -> int:
        return _intern(self.relation_index, self.relation_names, name)

    def entity_hash(self) -> str:
        return _names_hash(self.entity_names)

    def relation_hash(self) -> str:
        return _names_hash(self.relation_names)


def _names_hash(names: list[str]) -> str:
    """SHA-256 of the names in order, each NUL-terminated."""
    return hashlib.sha256(b"".join(name.encode("utf-8") + b"\x00" for name in names)).hexdigest()


def _intern(index: dict[str, int], names: list[str], name: str, where: str | None = None,
            kind: str = "entity") -> int:
    """The id of ``name``.  A new name is appended to ``names``, or, with
    ``where`` given (a frozen vocabulary), raises :class:`VocabularyError`."""
    idx = index.get(name)
    if idx is None:
        if where is not None:
            raise VocabularyError(f"{where}: unknown {kind} {name!r}")
        idx = index[name] = len(names)
        names.append(name)
    return idx


def load_triples(
    path: str | Path,
    vocab: Vocab | None = None,
    extend: bool | None = None,
) -> tuple[np.ndarray, Vocab]:
    """Read a tab-separated triple file and integer-encode it.

    Lines end in LF, CRLF or a lone CR; each non-blank line holds exactly
    two tabs; blank lines are skipped but counted.  An error names the file
    and the first faulty line; an unreadable file raises :class:`DataError`.

    With no vocab, a fresh one is built.  With a vocab and ``extend=True``
    unseen symbols are appended; with ``extend=False`` (the default when a
    vocab is supplied) any unseen symbol raises :class:`VocabularyError`,
    which is the right behavior when encoding valid/test files against a
    checkpoint vocabulary.

    Returns the triples as an ``(N, 3)`` int64 array of (head, relation,
    tail) ids together with the (possibly extended) vocab.
    """
    if vocab is None:
        vocab, extend = Vocab(), True

    path = Path(path)
    ent_index, ent_names = vocab.entity_index, vocab.entity_names
    rel_index, rel_names = vocab.relation_index, vocab.relation_names
    ids: list[int] = []  # flat (h, r, t, h, r, t, ...)
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 3:
                    if fields == [""]:
                        continue
                    raise TripleParseError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                head, rel, tail = fields
                h, r, t = ent_index.get(head), rel_index.get(rel), ent_index.get(tail)
                if h is None or r is None or t is None:
                    where = None if extend else f"{path}:{lineno}"
                    h = _intern(ent_index, ent_names, head, where)
                    r = _intern(rel_index, rel_names, rel, where, "relation")
                    t = _intern(ent_index, ent_names, tail, where)
                ids += (h, r, t)
    except UnicodeDecodeError as exc:
        raise TripleParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None
    return np.array(ids, dtype=np.int64).reshape(-1, 3), vocab


@dataclass
class TripleStore:
    """Immutable bundle of encoded splits and training-split statistics.

    ``by_relation`` maps each training relation to its (M, 3) triple rows;
    ``head_domain`` / ``tail_domain`` hold the sorted unique entities seen
    on each side of that relation in training.  ``all_known`` is the filter
    index over all three splits: the sorted, distinct int64 keys
    ``(r·E + h)·E + t`` of the known triples, with ``E = n_entities``; the
    keys fit int64 only while ``n_relations · n_entities² < 2**63``, which
    :func:`build_store` enforces.  ``tph`` / ``hpt`` are the per-relation
    mean tails-per-head and heads-per-tail; ``head_prob``, tph/(tph+hpt) or
    0.5 without training triples, is the Bernoulli rule's head probability.
    """

    n_entities: int
    n_relations: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    by_relation: dict[int, np.ndarray]
    head_domain: dict[int, np.ndarray]
    tail_domain: dict[int, np.ndarray]
    all_known: np.ndarray
    tph: np.ndarray
    hpt: np.ndarray
    head_prob: np.ndarray


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
    n_entities = max_e + 1 if n_entities is None else int(n_entities)
    n_relations = max_r + 1 if n_relations is None else int(n_relations)
    if n_relations * n_entities**2 >= 2**63:
        raise DataError(
            f"{n_relations} relations and {n_entities} entities overflow the int64 "
            "triple keys: need n_relations * n_entities**2 < 2**63"
        )
    # an id outside its range would alias another triple's key
    min_id = min((int(s.min()) for s in splits), default=0)
    if min_id < 0 or max_e >= n_entities or max_r >= n_relations:
        raise DataError(f"triple ids out of range for {n_entities} entities and {n_relations} relations")

    # by_relation slices from one stable sort; domains cut from sorted distinct keys r·E + h, r·E + t
    srt = np.take(train, np.argsort(train[:, 1], kind="stable"), axis=0)
    starts = np.flatnonzero(np.diff(srt[:, 1], prepend=-1))
    rels = srt[starts, 1]
    counts = np.diff(starts, append=len(srt))
    tph, hpt = np.zeros(n_relations), np.zeros(n_relations)
    domains = []
    for col, mean in ((0, tph), (2, hpt)):
        keys = _sorted_unique(srt[:, 1] * n_entities + srt[:, col])
        cuts = np.searchsorted(keys, rels * n_entities)
        mean[rels] = counts / np.diff(cuts, append=len(keys))
        domains.append(dict(zip(rels.tolist(), np.split(keys % n_entities, cuts[1:]))))

    known = np.concatenate([train, valid, test])
    all_known = _sorted_unique((known[:, 1] * n_entities + known[:, 0]) * n_entities + known[:, 2])

    return TripleStore(
        n_entities=n_entities,
        n_relations=n_relations,
        train=train,
        valid=valid,
        test=test,
        by_relation=dict(zip(rels.tolist(), np.split(srt, starts[1:]))),
        head_domain=domains[0],
        tail_domain=domains[1],
        all_known=all_known,
        tph=tph,
        hpt=hpt,
        head_prob=np.where(tph + hpt > 0, tph / np.where(tph + hpt > 0, tph + hpt, 1.0), 0.5),
    )


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of non-negative int keys, by a sort and a neighbour
    mask.  numpy 2.4 answers a bare ``np.unique`` from a hash table, which
    is about 40x slower at 592k keys."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


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
    # a bin is the count of interior edges, widened by 1e-9, below the value
    bins = np.searchsorted(np.add(edges[1:-1], 1e-9), list(logs.values()))
    return FrequencyBins(dict(zip(logs, bins.tolist())), edges)


def bin_relations(store: TripleStore, n_bins: int = 3) -> FrequencyBins:
    """Bucket the training relations of ``store`` by log frequency."""
    freqs = {r: float(len(rows)) for r, rows in store.by_relation.items()}
    return bins_from_frequencies(freqs, n_bins)

