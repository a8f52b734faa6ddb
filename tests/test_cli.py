import dataclasses
import json
import os

import numpy as np
import pytest

import _synth
from conceptkb.checkpoint import load_checkpoint
from conceptkb.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main, read_config_file
from conceptkb.data import decode_triples, Vocab
from conceptkb.model import Hyperparams


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small learnable dataset written out in the tab-separated format."""
    store = _synth.structured_kb(5, n_entities=40, n_relations=5, per_rel=40, dim=6)
    vocab = Vocab()
    for i in range(store.n_entities):
        vocab.add_entity(f"e{i}")
    for i in range(store.n_relations):
        vocab.add_relation(f"r{i}")
    root = tmp_path_factory.mktemp("data")
    for name, split in (("train.txt", store.train), ("valid.txt", store.valid), ("test.txt", store.test)):
        (root / name).write_text("\n".join(decode_triples(split, vocab)) + "\n", encoding="utf-8")
    return root


TRAIN_ARGS = ["--n", "6", "--m", "4", "--k", "2", "--gamma", "1", "--lr", "0.05",
              "--batch-size", "16", "--epochs", "3", "--eval-every", "0",
              "--init-noise-sd", "0.05", "--seed", "7"]


def assert_one_line_exit(argv, code, capsys):
    """``main(argv)`` returns ``code`` with a one-line message and no
    traceback; returns the message."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.fixture
def evaluate_workers(monkeypatch):
    """Record the ``workers`` of every evaluate call the CLI makes."""
    import conceptkb.cli as cli
    import conceptkb.evaluation as evaluation

    seen = []
    real = evaluation.evaluate

    def recording(*args, workers=1, **kw):
        seen.append(workers)
        return real(*args, workers=workers, **kw)

    monkeypatch.setattr(evaluation, "evaluate", recording)
    monkeypatch.setattr(cli, "evaluate", recording)
    return seen


class TestTrainCommand:
    def test_dry_run_prints_resolved_config(self, capsys):
        code = main(["train", "--dataset", "wn18", "--dry-run"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        resolved = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert resolved["gamma"] == "5.0"
        assert resolved["n"] == "50"
        assert resolved["m"] == "30"
        assert resolved["tau"] == "0.25"
        assert resolved["batch_size"] == "20"
        assert resolved["lr"] == "0.01"

    def test_fb15k_defaults(self, capsys):
        main(["train", "--dataset", "fb15k", "--dry-run"])
        out = capsys.readouterr().out
        resolved = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert resolved["gamma"] == "1.0"
        assert resolved["n"] == "100"
        assert resolved["m"] == "300"
        assert resolved["batch_size"] == "1000"
        assert resolved["lr"] == "0.01"

    def test_epochs_zero_writes_init_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(data_dir), "--out", str(out),
                     *TRAIN_ARGS, "--epochs", "0"])
        assert code == EXIT_OK
        params, hp, meta = load_checkpoint(out / "checkpoint.npz")
        assert hp.epochs == 0
        from conceptkb.data import load_dataset

        _, vocab = load_dataset(data_dir)
        assert params.n_entities == vocab.n_entities
        assert (out / "config.cfg").exists()
        assert json.loads((out / "history.json").read_text())["epochs"] == []

    def test_training_run_writes_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
        assert code == EXIT_OK
        assert (out / "checkpoint.npz").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history["epochs"]) == 3
        log_lines = (out / "train.log").read_text().strip().splitlines()
        assert len(log_lines) == 3
        assert log_lines[0].startswith("epoch=1 loss=")

    def test_same_seed_identical_checkpoints(self, data_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--data-dir", str(data_dir), "--out", str(out_a), *TRAIN_ARGS])
        main(["train", "--data-dir", str(data_dir), "--out", str(out_b), *TRAIN_ARGS])
        a = (out_a / "checkpoint.npz").read_bytes()
        b = (out_b / "checkpoint.npz").read_bytes()
        assert a == b

    def test_workers_identical_checkpoints(self, data_dir, tmp_path):
        """Block updates on two threads write the serial run's checkpoint."""
        args = [*TRAIN_ARGS, "--epochs", "8", "--block-every", "2", "--block-stop", "8"]
        outs = [tmp_path / f"w{flag}" for flag in ("1", "2")]
        for out, flag in zip(outs, ("1", "2")):
            assert main(["train", "--data-dir", str(data_dir), "--out", str(out), *args,
                         "--workers", flag]) == EXIT_OK
        updates = json.loads((outs[0] / "history.json").read_text())["block_updates"]
        assert len(updates) == 4 and sum(u["changed_sides"] for u in updates) > 0
        assert (outs[0] / "checkpoint.npz").read_bytes() == (outs[1] / "checkpoint.npz").read_bytes()

    def test_reproducible_from_emitted_config(self, data_dir, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--data-dir", str(data_dir), "--out", str(out_a), *TRAIN_ARGS])
        code = main(["train", "--config", str(out_a / "config.cfg"), "--out", str(out_b)])
        assert code == EXIT_OK
        assert (out_a / "checkpoint.npz").read_bytes() == (out_b / "checkpoint.npz").read_bytes()

    def test_missing_data_dir_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("CONCEPTKB_DATA", raising=False)
        assert main(["train", "--epochs", "1"]) == EXIT_USAGE

    def test_env_var_supplies_data_dir(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CONCEPTKB_DATA", str(data_dir))
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), *TRAIN_ARGS, "--epochs", "0"])
        assert code == EXIT_OK

    def test_unreadable_dataset_is_data_error(self, tmp_path):
        assert main(["train", "--data-dir", str(tmp_path / "nowhere"), *TRAIN_ARGS]) == EXIT_DATA

    def test_key_overflow_is_data_error(self, data_dir, tmp_path, monkeypatch, capsys):
        import conceptkb.data as data

        real = data.build_store

        def huge(train, valid, test, n_entities, n_relations):
            return real(train, valid, test, 2**32, n_relations)

        monkeypatch.setattr(data, "build_store", huge)
        code = main(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "run"), *TRAIN_ARGS])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "int64" in err

    def test_invalid_flag_combination_fails_before_work(self, data_dir):
        # k > m must be rejected as a usage error without touching data
        assert main(["train", "--data-dir", str(data_dir), "--m", "2", "--k", "5"]) == EXIT_USAGE

    def test_config_file_precedence(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("gamma=3.5\nn=12\n", encoding="utf-8")
        main(["train", "--dataset", "wn18", "--config", str(cfg), "--gamma", "2.0", "--dry-run"])
        out = capsys.readouterr().out
        resolved = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert resolved["gamma"] == "2.0"   # explicit flag wins
        assert resolved["n"] == "12"        # config beats dataset default
        assert resolved["m"] == "30"        # dataset default survives

    @pytest.mark.parametrize("flag", ["2", "0"])
    def test_workers_reach_validation(self, data_dir, tmp_path, evaluate_workers, flag):
        code = main(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "run"),
                     *TRAIN_ARGS, "--epochs", "2", "--eval-every", "1", "--workers", flag])
        assert code == EXIT_OK
        assert evaluate_workers == [int(flag) or os.cpu_count() or 1] * 2

    @pytest.mark.parametrize("argv", [["train", "--dataset", "wn18", "--dry-run"],
                                      ["eval", "--split", "test"]])
    def test_negative_workers_flag_is_usage_error(self, data_dir, argv, capsys):
        err = assert_one_line_exit([*argv, "--data-dir", str(data_dir), "--workers", "-2"],
                                   EXIT_USAGE, capsys)
        assert err == "error: workers must be at least 0, got -2\n"

    def test_negative_workers_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("workers=-1\n", encoding="utf-8")
        err = assert_one_line_exit(["train", "--dataset", "wn18", "--config", str(cfg), "--dry-run"],
                                   EXIT_USAGE, capsys)
        assert err == "error: workers must be at least 0, got -1\n"

    def test_warm_start_flows_through(self, data_dir, tmp_path):
        donor_dir = tmp_path / "donor"
        main(["train", "--data-dir", str(data_dir), "--out", str(donor_dir),
              *TRAIN_ARGS, "--model", "transe", "--m", "1", "--k", "1", "--epochs", "1"])
        out = tmp_path / "warm"
        code = main(["train", "--data-dir", str(data_dir), "--out", str(out),
                     *TRAIN_ARGS, "--epochs", "0",
                     "--warm-start", str(donor_dir / "checkpoint.npz")])
        assert code == EXIT_OK
        donor, _, _ = load_checkpoint(donor_dir / "checkpoint.npz")
        warm, _, _ = load_checkpoint(out / "checkpoint.npz")
        expected = donor.entity_emb / np.linalg.norm(donor.entity_emb, axis=1, keepdims=True)
        np.testing.assert_array_equal(warm.entity_emb, expected)


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    main(["train", "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
    return out / "checkpoint.npz"


@pytest.fixture(scope="module")
def trained_k1(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained_k1")
    main(["train", "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS, "--k", "1"])
    return out / "checkpoint.npz"


class TestEvalCommand:
    def test_eval_writes_reports(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
                     "--split", "test", "--out", str(out), "--workers", "2"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["filtered"] is True
        assert "mean rank" in (out / "report.txt").read_text()

    def test_workers_auto(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
                     "--split", "valid", "--out", str(out), "--workers", "0"])
        assert code == EXIT_OK

    def test_raw_ranks_never_better(self, data_dir, trained, tmp_path):
        out_f = tmp_path / "filtered"
        out_r = tmp_path / "raw"
        main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
              "--split", "valid", "--out", str(out_f)])
        main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
              "--split", "valid", "--out", str(out_r), "--raw"])
        filtered = json.loads((out_f / "report.json").read_text())
        raw = json.loads((out_r / "report.json").read_text())
        assert raw["mean_rank"] >= filtered["mean_rank"]
        assert raw["filtered"] is False

    def test_bins_flag_adds_table(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
              "--split", "test", "--out", str(out), "--bins", "3"])
        report = json.loads((out / "report.json").read_text())
        assert report["per_bin"]

    def test_per_relation_csv(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        csv_path = tmp_path / "rel.csv"
        main(["eval", "--checkpoint", str(trained), "--data-dir", str(data_dir),
              "--split", "test", "--out", str(out), "--per-relation-csv", str(csv_path)])
        assert csv_path.read_text().startswith("relation,name,count")

    def test_memorizing_model_perfect_on_train(self, data_dir, tmp_path):
        # long enough training on an easy KB to memorize a thin split is
        # overkill here; instead assert the eval path runs on train
        out_dir = tmp_path / "run"
        main(["train", "--data-dir", str(data_dir), "--out", str(out_dir), *TRAIN_ARGS])
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                     "--data-dir", str(data_dir), "--split", "train", "--out", str(out)])
        assert code == EXIT_OK

    def test_vocab_mismatch_is_data_error(self, trained, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        (other / "train.txt").write_text("x\tr\ty\n", encoding="utf-8")
        code = main(["eval", "--checkpoint", str(trained), "--data-dir", str(other)])
        assert code == EXIT_DATA

    def test_missing_checkpoint_flag(self, data_dir):
        assert main(["eval", "--data-dir", str(data_dir)]) == EXIT_USAGE


class TestSweepCommand:
    def test_single_value_m_sweep(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "m", "--values", "3",
                     "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,mean_rank,hits_at_10,error"
        assert len(lines) == 2
        assert lines[1].split(",")[3] == ""

    def test_workers_reach_test_evaluation(self, data_dir, tmp_path, evaluate_workers):
        code = main(["sweep", "--axis", "m", "--values", "3", "--data-dir", str(data_dir),
                     "--out", str(tmp_path / "sweep"), *TRAIN_ARGS, "--workers", "2"])
        assert code == EXIT_OK
        assert evaluate_workers == [2]

    def test_mode_axis_records_epoch_time(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "mode", "--values", "sparse,dense",
                     "--data-dir", str(data_dir), "--out", str(out), *TRAIN_ARGS])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,mean_rank,hits_at_10,epoch_seconds,error"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[3]) > 0

    def test_lambda_sweep_rows(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "lambda", "--values", "0.0003,0.001,0.003",
                     "--data-dir", str(data_dir), "--out", str(out),
                     *TRAIN_ARGS, "--epochs", "1"])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_failed_run_recorded_and_sweep_continues(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        # m=1 forces k=2 > m: invalid, the second value trains fine
        code = main(["sweep", "--axis", "m", "--values", "1,3",
                     "--data-dir", str(data_dir), "--out", str(out),
                     *TRAIN_ARGS, "--epochs", "1"])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[-1] != ""   # error recorded
        assert lines[2].split(",")[-1] == ""   # second run clean

    def test_empty_values_usage_error(self, data_dir):
        assert main(["sweep", "--axis", "m", "--values", "",
                     "--data-dir", str(data_dir)]) == EXIT_USAGE


class TestExportCommand:
    def test_attention_export_one_hot_for_k1(self, data_dir, trained_k1, tmp_path):
        out = tmp_path / "att.csv"
        code = main(["export", "attention", "--checkpoint", str(trained_k1),
                     "--data-dir", str(data_dir), "--out", str(out)])
        assert code == EXIT_OK
        for line in out.read_text().strip().splitlines()[1:]:
            weights = sorted(float(x) for x in line.split(",")[1:])
            assert weights[-1] == 1.0 and sum(weights) == 1.0

    def test_frequency_export(self, data_dir, tmp_path):
        out = tmp_path / "freq.csv"
        code = main(["export", "frequency", "--data-dir", str(data_dir), "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 1 + 5

    def test_bins_export_requires_reports(self, data_dir):
        assert main(["export", "bins", "--data-dir", str(data_dir)]) == EXIT_USAGE

    def test_bins_export_from_eval_reports(self, data_dir, trained_k1, tmp_path):
        eval_out = tmp_path / "eval"
        main(["eval", "--checkpoint", str(trained_k1), "--data-dir", str(data_dir),
              "--split", "test", "--out", str(eval_out)])
        out = tmp_path / "bins.csv"
        code = main(["export", "bins", "--data-dir", str(data_dir),
                     "--report", f"model={eval_out / 'report.json'}",
                     "--bins", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin,model"
        assert len(lines) == 4

    def test_unknown_relation_filter(self, data_dir, trained_k1, tmp_path):
        code = main(["export", "attention", "--checkpoint", str(trained_k1),
                     "--data-dir", str(data_dir), "--out", str(tmp_path / "a.csv"),
                     "--relations", "not_a_relation"])
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\ngamma=2.5\nmodel=transe\nblock_stop=\n", encoding="utf-8")
        parsed = read_config_file(cfg)
        assert parsed == {"gamma": 2.5, "model": "transe", "block_stop": None}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(Exception):
            read_config_file(cfg)

    @pytest.mark.parametrize("key", ["n", "batch_size", "block_budget"])
    def test_size_below_one_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=0\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--dry-run"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {key} must be at least 1, got 0\n"

    def test_no_block_budget_is_legal(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("block_budget=\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        assert "block_budget=\n" in capsys.readouterr().out

    def test_non_numeric_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=abc\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--dry-run"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n must be an integer" in err and "'abc'" in err
        assert "Traceback" not in err


class TestBadInputFiles:
    def test_non_utf8_triples_are_data_error(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_bytes(b"a\tr\tb\n\xff\tr\tc\n")
        err = assert_one_line_exit(["train", "--data-dir", str(tmp_path), "--out",
                                    str(tmp_path / "run"), *TRAIN_ARGS], EXIT_DATA, capsys)
        assert str(tmp_path / "train.txt") in err

    @pytest.mark.parametrize("name", ["train.txt", "valid.txt"])
    def test_triple_file_directory_is_data_error(self, data_dir, tmp_path, capsys, name):
        for split in ("train.txt", "valid.txt", "test.txt"):
            (tmp_path / split).write_bytes((data_dir / split).read_bytes())
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        err = assert_one_line_exit(["train", "--data-dir", str(tmp_path), "--out",
                                    str(tmp_path / "run"), *TRAIN_ARGS], EXIT_DATA, capsys)
        assert str(tmp_path / name) in err

    def test_config_directory_is_usage_error(self, tmp_path, capsys):
        assert_one_line_exit(["train", "--config", str(tmp_path), "--dry-run"], EXIT_USAGE, capsys)

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"gamma=2\n\xff=1\n")
        assert_one_line_exit(["train", "--config", str(cfg), "--dry-run"], EXIT_USAGE, capsys)

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert_one_line_exit(["train", "--config", str(tmp_path / "none.cfg"), "--dry-run"],
                             EXIT_DATA, capsys)

    def test_checkpoint_without_relation_hash_is_data_error(self, data_dir, trained, tmp_path, capsys):
        with np.load(trained) as archive:
            arrays = dict(archive)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["relation_hash"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert_one_line_exit(["eval", "--checkpoint", str(bad), "--data-dir", str(data_dir),
                              "--out", str(tmp_path / "eval")], EXIT_DATA, capsys)

    def test_checkpoint_with_nan_concepts_is_data_error(self, data_dir, trained, tmp_path, capsys):
        """NaN concepts used to rank every true entity first (mean rank 1.0)."""
        with np.load(trained) as archive:
            arrays = dict(archive)
        arrays["concept_tensor"] = np.full_like(arrays["concept_tensor"], np.nan)
        bad = tmp_path / "nan.npz"
        np.savez(bad, **arrays)
        err = assert_one_line_exit(["eval", "--checkpoint", str(bad), "--data-dir", str(data_dir),
                                    "--out", str(tmp_path / "eval")], EXIT_DATA, capsys)
        assert "concept_tensor" in err
        assert not (tmp_path / "eval").exists()

    def test_checkpoint_with_huge_concepts_is_data_error(self, data_dir, trained, tmp_path, capsys):
        """Concepts of 1e30 are finite, so they load, but ranking cannot take them."""
        with np.load(trained) as archive:
            arrays = dict(archive)
        arrays["concept_tensor"] = np.full_like(arrays["concept_tensor"], 1e30)
        bad = tmp_path / "huge.npz"
        np.savez(bad, **arrays)
        err = assert_one_line_exit(["eval", "--checkpoint", str(bad), "--data-dir", str(data_dir),
                                    "--out", str(tmp_path / "eval")], EXIT_DATA, capsys)
        assert str(bad) in err and "too large to rank" in err
        assert not (tmp_path / "eval").exists()

    def huge_warm_start(self, trained, tmp_path):
        """The trained checkpoint with every relation vector entry at 1e30."""
        with np.load(trained) as archive:
            arrays = dict(archive)
        arrays["relation_emb"] = np.full_like(arrays["relation_emb"], 1e30)
        bad = tmp_path / "huge.npz"
        np.savez(bad, **arrays)
        return bad

    def test_huge_warm_start_fails_periodic_eval(self, data_dir, trained, tmp_path, capsys):
        """Relation vectors of 1e30 train without a non-finite loss, but
        the epoch's end refuses them before validation would."""
        bad = self.huge_warm_start(trained, tmp_path)
        err = assert_one_line_exit(["train", "--data-dir", str(data_dir), "--out", str(tmp_path / "run"),
                                    *TRAIN_ARGS, "--model", "transe", "--epochs", "1",
                                    "--eval-every", "1", "--warm-start", str(bad)],
                                   EXIT_RUNTIME, capsys)
        assert "after epoch 1, relation_emb" in err and "not finite or above" in err

    def test_huge_warm_start_fails_without_eval(self, data_dir, trained, tmp_path, capsys):
        """With validation off, the same run still ends in exit 4 and
        writes no checkpoint that ``eval`` would refuse."""
        bad = self.huge_warm_start(trained, tmp_path)
        out = tmp_path / "run"
        err = assert_one_line_exit(["train", "--data-dir", str(data_dir), "--out", str(out),
                                    *TRAIN_ARGS, "--model", "transe", "--epochs", "1",
                                    "--eval-every", "0", "--warm-start", str(bad)],
                                   EXIT_RUNTIME, capsys)
        assert "after epoch 1, relation_emb" in err
        assert not (out / "checkpoint.npz").exists()

    @pytest.mark.parametrize("text", ["not json", '{"mean_rank": 1.0}', None],
                             ids=["not-json", "no-key", "directory"])
    def test_bad_report_is_data_error(self, data_dir, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        if text is None:
            report.mkdir()
        else:
            report.write_text(text, encoding="utf-8")
        err = assert_one_line_exit(["export", "bins", "--data-dir", str(data_dir), "--report",
                                    f"model={report}", "--out", str(tmp_path / "bins.csv")],
                                   EXIT_DATA, capsys)
        assert str(report) in err
        assert not (tmp_path / "bins.csv").exists()


class TestOptionLists:
    """Every Hyperparams field has a flag on train and sweep and parses from
    a config file into its own type."""

    KINDS = {"int": int, "float": float, "str": str, "Optional[int]": int}

    def test_every_field_has_train_and_sweep_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        for command in ("train", "sweep"):
            dests = {a.dest for a in sub.choices[command]._actions}
            missing = [f.name for f in dataclasses.fields(Hyperparams) if f.name not in dests]
            assert not missing, f"{command} lacks flags for {missing}"

    def test_every_field_parses_to_its_type(self, tmp_path):
        fields = dataclasses.fields(Hyperparams)
        sample = {int: "3", float: "0.5"}
        cfg = tmp_path / "all.cfg"
        lines = [f"{f.name}={sample.get(self.KINDS[f.type], f.default)}\n" for f in fields]
        cfg.write_text("".join(lines), encoding="utf-8")
        parsed = read_config_file(cfg)
        for f in fields:
            assert type(parsed[f.name]) is self.KINDS[f.type], f.name
