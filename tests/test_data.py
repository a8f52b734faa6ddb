import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synth import decode_triples
from conceptkb.data import (
    DataError,
    TripleParseError,
    Vocab,
    VocabularyError,
    bin_relations,
    bins_from_frequencies,
    build_store,
    load_dataset,
    load_triples,
)


def write_triples(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_load_triples(path, vocab=None, extend=None):
    """Plain per-line parser with its own vocabulary updates, the oracle
    for :func:`load_triples`."""

    def add(index, names, name):
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    if vocab is None:
        vocab = Vocab()
        extend = True
    elif extend is None:
        extend = False
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
                    h = add(vocab.entity_index, vocab.entity_names, head)
                    r = add(vocab.relation_index, vocab.relation_names, rel)
                    t = add(vocab.entity_index, vocab.entity_names, tail)
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
    except UnicodeDecodeError as exc:
        raise TripleParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), 3), vocab


def _parse_outcome(parse, path, vocab, extend):
    """The array and both name lists, or the exception type and message."""
    try:
        triples, vocab = parse(path, vocab, extend)
    except DataError as exc:
        return type(exc), str(exc)
    assert triples.dtype == np.int64 and triples.ndim == 2 and triples.shape[1] == 3
    assert vocab.entity_index == {n: i for i, n in enumerate(vocab.entity_names)}
    assert vocab.relation_index == {n: i for i, n in enumerate(vocab.relation_names)}
    return triples.tobytes(), len(triples), vocab.entity_names, vocab.relation_names


# few names, so lines share them; empty, non-ASCII and line-break-like ones
_NAMES = st.sampled_from(["a", "b", "", "é", "名前", "x y", "\x0b", "\u2028"])
# mostly three fields; a line of zero fields is blank
_LINE = st.sampled_from([3] * 12 + [0, 0, 2, 4]).flatmap(
    lambda k: st.lists(_NAMES, min_size=k, max_size=k)).map("\t".join)
_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _triple_file(draw):
    lines = draw(st.lists(st.tuples(_LINE, _ENDING), max_size=12))
    data = "".join(line + end for line, end in lines).encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestLoadTriples:
    def test_two_lines(self, tmp_path):
        f = tmp_path / "train.txt"
        write_triples(f, ["a\tr1\tb", "b\tr1\tc"])
        triples, vocab = load_triples(f)
        assert triples.shape == (2, 3)
        assert vocab.n_entities == 3
        assert vocab.n_relations == 1
        assert triples.tolist() == [[0, 0, 1], [1, 0, 2]]

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("a\tr\tb\n\n\nc\tr\td\n", encoding="utf-8")
        triples, _ = load_triples(f)
        assert len(triples) == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "bad.txt"
        write_triples(f, ["a\tr\tb", "only two\tfields"])
        with pytest.raises(TripleParseError, match="bad.txt:2"):
            load_triples(f)

    def test_frozen_vocab_rejects_unknown(self, tmp_path):
        f1 = tmp_path / "train.txt"
        write_triples(f1, ["a\tr\tb"])
        _, vocab = load_triples(f1)
        f2 = tmp_path / "test.txt"
        write_triples(f2, ["a\tr\tzzz"])
        with pytest.raises(VocabularyError, match="zzz"):
            load_triples(f2, vocab)

    def test_extend_grows_vocab(self, tmp_path):
        f1 = tmp_path / "train.txt"
        write_triples(f1, ["a\tr\tb"])
        _, vocab = load_triples(f1)
        f2 = tmp_path / "valid.txt"
        write_triples(f2, ["c\tr2\ta"])
        _, vocab = load_triples(f2, vocab, extend=True)
        assert vocab.n_entities == 3
        assert vocab.n_relations == 2

    def test_vocab_round_trip(self):
        v = Vocab()
        for name in ["x", "y", "z"]:
            v.add_entity(name)
        for i, name in enumerate(v.entity_names):
            assert v.entity_index[name] == i

    def test_decode_round_trip(self, tmp_path):
        lines = ["a\tr1\tb", "b\tr1\tc", "c\tr2\ta"]
        f = tmp_path / "t.txt"
        write_triples(f, lines)
        triples, vocab = load_triples(f)
        assert decode_triples(triples, vocab) == lines

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_encode_decode_property(self, tmp_path_factory, rows):
        lines = [f"e{h}\trel{r}\te{t}" for h, r, t in rows]
        path = tmp_path_factory.mktemp("rt") / "t.txt"
        write_triples(path, lines)
        triples, vocab = load_triples(path)
        assert decode_triples(triples, vocab) == lines


class TestLoaderOracle:
    """``load_triples`` against the plain per-line reference parser."""

    @given(first=_triple_file(), second=_triple_file(), extend=st.sampled_from([None, True, False]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, tmp_path_factory, first, second, extend):
        root = tmp_path_factory.mktemp("oracle")
        (root / "train.txt").write_bytes(first)
        (root / "test.txt").write_bytes(second)
        start = _parse_outcome(reference_load_triples, root / "train.txt", None, None)
        assert _parse_outcome(load_triples, root / "train.txt", None, None) == start
        try:
            _, vocab = reference_load_triples(root / "train.txt")
        except DataError:
            vocab = Vocab()
        for vocab_arg in (vocab, None):
            want = _parse_outcome(reference_load_triples, root / "test.txt", copy.deepcopy(vocab_arg), extend)
            got = _parse_outcome(load_triples, root / "test.txt", copy.deepcopy(vocab_arg), extend)
            assert got == want

    @pytest.mark.parametrize("lines, error, lineno", [
        (["a\tr\tb", "zzz\tr\tb", "too\tfew"], VocabularyError, 2),
        (["a\tr\tb", "too\tfew", "zzz\tr\tb"], TripleParseError, 2),
        (["a\tq\tzzz", "a\tr\tzzz"], VocabularyError, 1),
        (["", "a\tr\tb\tc", "a\tr\tzzz"], TripleParseError, 2),
    ], ids=["vocab-then-fields", "fields-then-vocab", "relation-before-tail", "blank-counted"])
    def test_earlier_fault_wins(self, tmp_path, lines, error, lineno):
        (tmp_path / "train.txt").write_text("a\tr\tb\n", encoding="utf-8")
        write_triples(tmp_path / "test.txt", lines)
        _, vocab = load_triples(tmp_path / "train.txt")
        with pytest.raises(error, match=f"test.txt:{lineno}: ") as got:
            load_triples(tmp_path / "test.txt", copy.deepcopy(vocab))
        with pytest.raises(error) as want:
            reference_load_triples(tmp_path / "test.txt", vocab)
        assert str(got.value) == str(want.value)

    def test_unreadable_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_triples(tmp_path)
        with pytest.raises(DataError, match="missing.txt"):
            load_triples(tmp_path / "missing.txt")


def reference_store(train, valid, test, n_entities, n_relations):
    """Per-relation set-based recomputation of every ``build_store`` field."""
    rels = sorted({r for _, r, _ in train})
    by_relation = {r: [row for row in train if row[1] == r] for r in rels}
    heads = {r: sorted({h for h, _, _ in rows}) for r, rows in by_relation.items()}
    tails = {r: sorted({t for _, _, t in rows}) for r, rows in by_relation.items()}
    tph = [len(by_relation[r]) / len(heads[r]) if r in by_relation else 0.0 for r in range(n_relations)]
    hpt = [len(by_relation[r]) / len(tails[r]) if r in by_relation else 0.0 for r in range(n_relations)]
    known = sorted({(r * n_entities + h) * n_entities + t for h, r, t in train + valid + test})
    return by_relation, heads, tails, tph, hpt, known


@st.composite
def _random_kb(draw):
    n_entities = draw(st.integers(1, 9))
    n_relations = draw(st.integers(1, 6))
    row = st.lists(st.tuples(st.integers(0, n_entities - 1), st.integers(0, n_relations - 1),
                             st.integers(0, n_entities - 1)).map(list), max_size=30)
    train, valid, test = draw(row), draw(row), draw(row)
    return train, valid, test, n_entities, n_relations + draw(st.integers(0, 3))


class TestStoreOracle:
    @given(kb=_random_kb())
    @settings(max_examples=300, deadline=None)
    def test_every_field_matches_reference(self, kb):
        train, valid, test, n_entities, n_relations = kb
        arrays = [np.array(s, dtype=np.int64).reshape(-1, 3) for s in (train, valid, test)]
        store = build_store(*arrays, n_entities=n_entities, n_relations=n_relations)
        by_relation, heads, tails, tph, hpt, known = reference_store(train, valid, test,
                                                                     n_entities, n_relations)
        assert (store.n_entities, store.n_relations) == (n_entities, n_relations)
        assert list(store.by_relation) == list(by_relation)
        for r, rows in by_relation.items():
            assert store.by_relation[r].dtype == np.int64
            assert store.by_relation[r].tolist() == rows
        for got, want in ((store.head_domain, heads), (store.tail_domain, tails)):
            assert list(got) == list(want)
            for r, dom in want.items():
                assert got[r].dtype == np.int64 and got[r].tolist() == dom
        assert store.tph.tobytes() == np.array(tph).tobytes()
        assert store.hpt.tobytes() == np.array(hpt).tobytes()
        # the Bernoulli rule's head probability, 0.5 for a relation without training triples
        want = [a / (a + b) if a + b > 0 else 0.5 for a, b in zip(tph, hpt)]
        assert store.head_prob.tobytes() == np.array(want).tobytes()
        assert store.all_known.dtype == np.int64 and store.all_known.tolist() == known

    def test_empty_train(self):
        store = build_store(np.empty((0, 3), dtype=np.int64), np.array([[0, 1, 2]]), None,
                            n_entities=4, n_relations=3)
        assert store.by_relation == {} and store.head_domain == {} and store.tail_domain == {}
        assert store.tph.tolist() == [0.0] * 3 and store.hpt.tolist() == [0.0] * 3
        assert store.head_prob.tolist() == [0.5] * 3
        assert store.all_known.tolist() == [(1 * 4 + 0) * 4 + 2]


class TestBuildStore:
    def test_domains_and_counts(self):
        train = np.array([[0, 0, 1], [2, 0, 1]], dtype=np.int64)
        store = build_store(train)
        assert set(store.head_domain[0].tolist()) == {0, 2}
        assert set(store.tail_domain[0].tolist()) == {1}
        assert len(store.by_relation[0]) == 2

    def test_tph_hpt(self):
        train = np.array([[0, 0, 1], [0, 0, 2]], dtype=np.int64)
        store = build_store(train)
        assert store.tph[0] == 2.0
        assert store.hpt[0] == 1.0

    def test_by_relation_partitions_train(self, tiny_store):
        total = sum(len(rows) for rows in tiny_store.by_relation.values())
        assert total == len(tiny_store.train)

    def test_domain_soundness(self, tiny_store):
        for h, r, t in tiny_store.train:
            assert h in tiny_store.head_domain[r]
            assert t in tiny_store.tail_domain[r]

    def test_all_known_covers_every_split(self, tiny_store):
        n = tiny_store.n_entities
        want = sorted({(r * n + h) * n + t
                       for split in (tiny_store.train, tiny_store.valid, tiny_store.test)
                       for h, r, t in split.tolist()})
        assert tiny_store.all_known.dtype == np.int64
        assert tiny_store.all_known.tolist() == want

    def test_key_overflow_raises(self):
        with pytest.raises(DataError, match="4294967296 entities"):
            build_store(np.array([[0, 0, 1]]), n_entities=2**32)

    @pytest.mark.parametrize("row", [[0, 0, 5], [-1, 0, 1], [0, 2, 1]])
    def test_out_of_range_id_raises(self, row):
        with pytest.raises(DataError, match="out of range"):
            build_store(np.array([[0, 0, 1]]), np.array([row]), n_entities=3, n_relations=2)

    def test_all_known_counts_each_triple_once(self):
        train = np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int64)  # duplicate row
        store = build_store(train)
        assert len(store.all_known) == 1

    def test_derived_statistics_from_train_only(self, tiny_store):
        # valid contains (5, 2, 3) but tail 3 must not enter tail_domain[2]
        assert 3 not in tiny_store.tail_domain[2]


class TestBinRelations:
    def test_equal_log_intervals(self):
        freqs = {i: math.e**i for i in range(7)}
        bins = bins_from_frequencies(freqs, 3)
        assert bins.boundaries == pytest.approx([0.0, 2.0, 4.0, 6.0])
        assignment = [bins.bin_of_relation[i] for i in range(7)]
        # boundary values fall to the lower bin, final edge to the last bin
        assert assignment == [0, 0, 0, 1, 1, 2, 2]

    def test_single_relation(self):
        bins = bins_from_frequencies({5: 17.0}, 3)
        assert bins.bin_of_relation[5] == 0

    def test_zero_width_range(self):
        bins = bins_from_frequencies({0: 1, 1: 1, 2: 1}, 3)
        assert set(bins.bin_of_relation.values()) == {0}

    def test_every_relation_assigned_once(self, tiny_store):
        bins = bin_relations(tiny_store, 3)
        assert set(bins.bin_of_relation) == set(tiny_store.by_relation)

    def test_bad_bin_count(self, tiny_store):
        with pytest.raises(ValueError):
            bin_relations(tiny_store, 0)


def _benchmark_dir(name):
    import os
    from pathlib import Path

    env = os.environ.get("CONCEPTKB_DATA")
    for base in ([Path(env)] if env else []) + [Path("data")]:
        for cand in (base / name, base / name.upper(), base):
            if (cand / "train.txt").exists() and name in str(cand).lower():
                return cand
    return None


class TestBenchmarkCounts:
    """Exact corpus statistics; run only when the benchmark files exist."""

    def test_wn18_counts(self):
        root = _benchmark_dir("wn18")
        if root is None:
            pytest.skip("WN18 files not available in this environment")
        store, vocab = load_dataset(root)
        assert len(store.train) == 141_442
        assert vocab.n_entities == 40_943
        assert vocab.n_relations == 18
        assert len(store.valid) == 5_000
        assert len(store.test) == 5_000
        assert sum(len(v) for v in store.by_relation.values()) == 141_442
        assert len(store.by_relation) == 18

    def test_fb15k_counts(self):
        root = _benchmark_dir("fb15k")
        if root is None:
            pytest.skip("FB15k files not available in this environment")
        store, vocab = load_dataset(root)
        assert vocab.n_entities == 14_951
        assert vocab.n_relations == 1_345
        assert len(store.train) == 483_142
        assert len(store.valid) == 50_000
        assert len(store.test) == 59_071


class TestDataset:
    def test_load_dataset_union_vocab(self, tmp_path):
        write_triples(tmp_path / "train.txt", ["a\tr\tb", "b\tr\tc"])
        write_triples(tmp_path / "valid.txt", ["a\tr\td"])
        write_triples(tmp_path / "test.txt", ["e\tr\ta"])
        store, vocab = load_dataset(tmp_path)
        assert vocab.n_entities == 5  # union across splits
        assert store.n_entities == 5
        assert len(store.train) == 2 and len(store.valid) == 1 and len(store.test) == 1
