"""Self-describing checkpoint container.

A checkpoint is a single ``.npz`` archive holding every parameter array
plus a JSON metadata record (format version, hyperparameters, vocab
hashes, and any extra run information).  Arrays are stored as float64 and
reload bit-exact; a checkpoint holding a NaN or infinite value is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .data import Vocab
from .model import Hyperparams, ModelParams

FORMAT_VERSION = 1

_ARRAY_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))


class CheckpointError(Exception):
    """Unreadable, incompatible, or mismatched checkpoint."""


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    hp: Hyperparams,
    vocab: Vocab | None = None,
    extra: dict | None = None,
) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "hyperparams": hp.to_dict(),
        "entity_hash": vocab.entity_hash() if vocab is not None else None,
        "relation_hash": vocab.relation_hash() if vocab is not None else None,
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
    }
    if extra:
        meta["extra"] = extra
    arrays = {name: getattr(params, name) for name in _ARRAY_FIELDS}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target and rename, so an interrupted save never
    # leaves a partial file under the final name
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[ModelParams, Hyperparams, dict]:
    """Read a checkpoint back; returns (params, hyperparams, metadata)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            arrays = {name: archive[name] for name in _ARRAY_FIELDS}
    except (OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version!r}")
    try:
        hp = Hyperparams.from_dict(meta["hyperparams"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad hyperparameters in checkpoint {path}: {exc}") from exc
    params = ModelParams(**arrays)
    E, R, n, m = params.n_entities, params.n_relations, hp.n, hp.m
    want = {
        "entity_emb": (E, n),
        "relation_emb": (R, n),
        "concept_tensor": (m, n, n),
        "head_scores": (R, m),
        "tail_scores": (R, m),
        "head_assign": (R, m),
        "tail_assign": (R, m),
    }
    for name, shape in want.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"checkpoint {path}: {name} has shape {arrays[name].shape}, expected {shape} "
                f"for {E} entities, {R} relations, n={n}, m={m}"
            )
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"checkpoint {path}: {name} holds NaN or infinite values")
    return params, hp, meta


def check_vocab(meta: dict, vocab: Vocab) -> None:
    """Raise unless the checkpoint was trained against this exact vocab."""
    if meta.get("entity_hash") is None:
        return
    # a record without a relation hash cannot vouch for the relations
    if (meta["entity_hash"], meta.get("relation_hash")) != (vocab.entity_hash(), vocab.relation_hash()):
        raise CheckpointError(
            "vocabulary mismatch between checkpoint and data "
            "(different entity or relation inventories)"
        )
