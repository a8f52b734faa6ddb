"""Knowledge-base completion with shared concept projections.

A single stack of concept projection matrices is composed per relation by
support-restricted softmax attention; training alternates SGD on the
continuous parameters with discrete reassignment of the supports.  Plain
translation and per-relation two-matrix baselines, uniform/Bernoulli/
domain negative sampling, and the filtered ranking protocol round out the
engine.
"""

from .data import (
    DataError,
    FrequencyBins,
    TripleParseError,
    TripleStore,
    Vocab,
    VocabularyError,
    bin_relations,
    build_store,
    load_dataset,
    load_triples,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .evaluation import EvalReport, evaluate
from .model import AttentionSnapshot, Hyperparams, ModelParams, attention_snapshot, init_params
from .sampling import DomainSampler, corrupt_batch, domain_probability
from .training import (
    TrainingError,
    TrainState,
    block_update,
    make_state,
    sgd_epoch,
    single_matrix_cost,
    train,
)

__all__ = [
    "AttentionSnapshot",
    "CheckpointError",
    "DataError",
    "DomainSampler",
    "EvalReport",
    "FrequencyBins",
    "Hyperparams",
    "ModelParams",
    "TrainState",
    "TrainingError",
    "TripleParseError",
    "TripleStore",
    "Vocab",
    "VocabularyError",
    "attention_snapshot",
    "bin_relations",
    "block_update",
    "build_store",
    "corrupt_batch",
    "domain_probability",
    "evaluate",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "load_triples",
    "make_state",
    "save_checkpoint",
    "sgd_epoch",
    "single_matrix_cost",
    "train",
]

__version__ = "0.1.0"
