import json

import numpy as np
import pytest

from conceptkb.data import Vocab, bin_relations, bins_from_frequencies
from conceptkb.evaluation import EvalReport, RelationMetrics, evaluate
from conceptkb.export import (
    ExportError,
    export_attention,
    export_bin_comparison,
    export_frequency,
)
from conceptkb.model import SIDE_HEAD, SIDE_TAIL, Hyperparams, attention, init_params


def head_tail(params, hp):
    """The head and tail attention rows of every relation."""
    return attention(params, hp, SIDE_HEAD), attention(params, hp, SIDE_TAIL)


@pytest.fixture
def vocab3():
    v = Vocab()
    for i in range(7):
        v.add_entity(f"e{i}")
    for name in ("parent_of", "located_in", "similar_to"):
        v.add_relation(name)
    return v


class TestExportAttention:
    def test_k1_rows_are_one_hot(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=5, k=1, epochs=1)
        params = init_params(7, 3, hp, seed=0)
        snap = head_tail(params, hp)
        out = export_attention(*snap, vocab3, tmp_path / "att.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "relation_side," + ",".join(f"c{i}" for i in range(5))
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            weights = [float(x) for x in line.split(",")[1:]]
            assert sorted(weights) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_symmetric_fixture_rows_equal(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=2, epochs=1)
        params = init_params(7, 3, hp, seed=1)
        params.tail_scores[:] = params.head_scores
        params.tail_assign[:] = params.head_assign
        snap = head_tail(params, hp)
        out = export_attention(*snap, vocab3, tmp_path / "att.csv")
        lines = out.read_text().strip().splitlines()[1:]
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines}
        for name in vocab3.relation_names:
            assert rows[f"{name}(H)"] == rows[f"{name}(T)"]

    def test_dense_l1_rows_not_normalized(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=2, epochs=1, attention_mode="dense_l1")
        params = init_params(7, 3, hp, seed=2)
        params.head_scores[:] = 0.3
        params.tail_scores[:] = 0.3
        snap = head_tail(params, hp)
        out = export_attention(*snap, vocab3, tmp_path / "att.csv")
        line = out.read_text().strip().splitlines()[1]
        weights = [float(x) for x in line.split(",")[1:]]
        assert sum(weights) == pytest.approx(0.9)

    def test_relation_filter(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=1, epochs=1)
        params = init_params(7, 3, hp, seed=3)
        snap = head_tail(params, hp)
        out = export_attention(*snap, vocab3, tmp_path / "att.csv", relations=["similar_to"])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("similar_to(H)")

    def test_unknown_relation_lists_valid_names(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=1, epochs=1)
        params = init_params(7, 3, hp, seed=4)
        snap = head_tail(params, hp)
        with pytest.raises(ExportError, match="parent_of"):
            export_attention(*snap, vocab3, tmp_path / "att.csv", relations=["nope"])

    def test_reexport_byte_identical(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=2, epochs=1)
        params = init_params(7, 3, hp, seed=5)
        snap = head_tail(params, hp)
        a = export_attention(*snap, vocab3, tmp_path / "a.csv").read_bytes()
        b = export_attention(*snap, vocab3, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_json_mirror(self, tmp_path, vocab3):
        hp = Hyperparams(n=4, m=3, k=1, epochs=1)
        params = init_params(7, 3, hp, seed=6)
        snap = head_tail(params, hp)
        export_attention(*snap, vocab3, tmp_path / "att.csv")
        doc = json.loads((tmp_path / "att.json").read_text())
        assert doc["columns"][0] == "relation_side"
        assert len(doc["rows"]) == 6


class TestExportFrequency:
    def test_sorted_with_log_column(self, tmp_path, tiny_store):
        out = export_frequency(tiny_store, tmp_path / "freq.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "relation,frequency,log_frequency"
        freqs = [int(line.split(",")[1]) for line in lines[1:]]
        assert freqs == sorted(freqs, reverse=True)
        logs = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(logs, np.log(freqs))

    def test_uniform_frequencies_log_zero(self, tmp_path):
        from conceptkb.data import build_store

        train = np.array([[0, r, 1] for r in range(4)], dtype=np.int64)
        store = build_store(train)
        out = export_frequency(store, tmp_path / "freq.csv")
        logs = [float(line.split(",")[2]) for line in out.read_text().strip().splitlines()[1:]]
        assert logs == [0.0] * 4

    def test_row_count_matches_relations(self, tmp_path, tiny_store):
        out = export_frequency(tiny_store, tmp_path / "freq.csv")
        assert len(out.read_text().strip().splitlines()) == 1 + len(tiny_store.by_relation)


def report_with(hits):
    per_rel = {r: RelationMetrics(mean_rank=5.0, hits_at_10=h, count=4) for r, h in hits.items()}
    return EvalReport(mean_rank=5.0, hits_at_10=50.0, per_relation=per_rel,
                      per_bin=None, direction="both", n_queries=8)


class TestExportBinComparison:
    def test_single_model_single_bin(self, tmp_path):
        bins = bins_from_frequencies({0: 10.0, 1: 10.0}, 1)
        report = report_with({0: 80.0, 1: 60.0})
        out = export_bin_comparison({"main": report}, bins, tmp_path / "bins.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin,main"
        assert float(lines[1].split(",")[1]) == pytest.approx(70.0)

    def test_identical_reports_identical_columns(self, tmp_path):
        bins = bins_from_frequencies({0: 100.0, 1: 10.0, 2: 1.0}, 3)
        report = report_with({0: 90.0, 1: 70.0, 2: 50.0})
        out = export_bin_comparison({"a": report, "b": report}, bins, tmp_path / "bins.csv")
        for line in out.read_text().strip().splitlines()[1:]:
            _, col_a, col_b = line.split(",")
            assert col_a == col_b

    def test_binning_mismatch_rejected(self, tmp_path):
        bins = bins_from_frequencies({0: 10.0}, 2)
        report = report_with({0: 80.0, 5: 60.0})  # relation 5 unknown to bins
        with pytest.raises(ExportError, match="absent"):
            export_bin_comparison({"m": report}, bins, tmp_path / "bins.csv")

    def test_per_bin_values_track_eval_report(self, tmp_path, tiny_store, tiny_params, tiny_hp):
        bins = bin_relations(tiny_store, 2)
        report = evaluate(tiny_store.test, tiny_params, tiny_hp, tiny_store, bins=bins)
        out = export_bin_comparison({"model": report}, bins, tmp_path / "bins.csv")
        lines = out.read_text().strip().splitlines()[1:]
        for line in lines:
            b, val = line.split(",")
            if val:
                assert float(val) == pytest.approx(report.per_bin[int(b)])
