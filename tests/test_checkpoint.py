import numpy as np
import pytest

from conceptkb.checkpoint import (
    CheckpointError,
    check_vocab,
    load_checkpoint,
    save_checkpoint,
)
from conceptkb.data import Vocab
from conceptkb.model import Hyperparams, init_params


@pytest.fixture
def vocab():
    v = Vocab()
    for i in range(9):
        v.add_entity(f"e{i}")
    for i in range(3):
        v.add_relation(f"r{i}")
    return v


def test_round_trip_bit_exact(tmp_path, vocab):
    hp = Hyperparams(n=6, m=4, k=2, epochs=5)
    params = init_params(9, 3, hp, seed=3)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, hp, vocab, extra={"seed": 3})
    loaded, hp2, meta = load_checkpoint(path)
    assert hp2 == hp
    assert meta["extra"]["seed"] == 3
    for field in ("entity_emb", "relation_emb", "concept_tensor",
                  "head_scores", "tail_scores", "head_assign", "tail_assign"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(params, field))
        assert getattr(loaded, field).dtype == getattr(params, field).dtype


def test_vocab_hash_check(tmp_path, vocab):
    hp = Hyperparams(n=4, m=2, k=1, epochs=1)
    params = init_params(9, 3, hp, seed=0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, hp, vocab)
    _, _, meta = load_checkpoint(path)
    check_vocab(meta, vocab)  # same vocab passes

    other = Vocab()
    for i in range(9):
        other.add_entity(f"x{i}")
    for i in range(3):
        other.add_relation(f"r{i}")
    with pytest.raises(CheckpointError, match="mismatch"):
        check_vocab(meta, other)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "nope.npz")


def test_version_guard(tmp_path, vocab):
    hp = Hyperparams(n=4, m=2, k=1, epochs=1)
    params = init_params(9, 3, hp, seed=0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, hp, vocab)

    import json

    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["format_version"] = 999
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _rewrite(path, edit):
    """Load the archive at ``path``, let ``edit`` change its arrays and
    metadata dict in place, and write it back."""
    import json

    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(arrays, meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.fixture
def saved(tmp_path, vocab):
    hp = Hyperparams(n=4, m=2, k=1, epochs=1)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, init_params(9, 3, hp, seed=0), hp, vocab)
    return path


def test_failed_save_keeps_previous_file(saved, monkeypatch):
    before = saved.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    hp = Hyperparams(n=4, m=2, k=1, epochs=2)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(saved, init_params(9, 3, hp, seed=1), hp)
    monkeypatch.undo()
    assert saved.read_bytes() == before
    assert [p.name for p in saved.parent.iterdir()] == [saved.name]
    load_checkpoint(saved)


@pytest.mark.parametrize("edit", [
    lambda arrays, meta: meta.pop("hyperparams"),
    lambda arrays, meta: meta["hyperparams"].update(k=7),
    lambda arrays, meta: meta["hyperparams"].update(bogus=1),
    lambda arrays, meta: meta.update(hyperparams=[1, 2]),
    lambda arrays, meta: meta["hyperparams"].update(gamma=float("nan")),
], ids=["missing", "invalid", "unknown-key", "not-a-dict", "non-finite"])
def test_bad_metadata_rejected(saved, edit):
    _rewrite(saved, edit)
    with pytest.raises(CheckpointError, match="hyperparameters"):
        load_checkpoint(saved)


@pytest.mark.parametrize("name", ["concept_tensor", "tail_scores", "head_assign"])
def test_shape_mismatch_rejected(saved, name):
    def edit(arrays, meta):
        arrays[name] = arrays[name][..., :-1]

    _rewrite(saved, edit)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(saved)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["entity_emb", "relation_emb", "concept_tensor", "head_scores",
                                  "tail_scores"])
def test_non_finite_array_rejected(saved, name, value):
    def edit(arrays, meta):
        arrays[name].flat[-1] = value

    _rewrite(saved, edit)
    with pytest.raises(CheckpointError, match=f"{name} holds NaN or infinite values"):
        load_checkpoint(saved)


def test_bad_checkpoint_is_data_exit_code(saved, tmp_path):
    from conceptkb.cli import EXIT_DATA, main

    _rewrite(saved, lambda arrays, meta: meta.pop("hyperparams"))
    assert main(["eval", "--checkpoint", str(saved), "--data-dir", str(tmp_path)]) == EXIT_DATA
