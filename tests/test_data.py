import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptkb.data import (
    DataError,
    TripleParseError,
    Vocab,
    VocabularyError,
    bin_relations,
    bins_from_frequencies,
    build_store,
    decode_triples,
    load_dataset,
    load_triples,
)


def write_triples(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
