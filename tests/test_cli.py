import json

import numpy as np
import pytest

import _synth
from conceptkb.checkpoint import load_checkpoint
from conceptkb.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main, read_config_file
from conceptkb.data import decode_triples, Vocab


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

    def test_non_numeric_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=abc\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--dry-run"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n must be an integer" in err and "'abc'" in err
        assert "Traceback" not in err
