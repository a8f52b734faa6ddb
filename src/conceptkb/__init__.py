"""Knowledge-base completion with shared concept projections.

A single stack of concept projection matrices is composed per relation by
support-restricted softmax attention; training alternates SGD on the
continuous parameters with discrete reassignment of the supports.  Plain
translation and per-relation two-matrix baselines, uniform/Bernoulli/
domain negative sampling, and the filtered ranking protocol round out the
engine.

Names load their module on first use, so importing the package does not
load numpy: the command line fixes BLAS's thread count first.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("DataError", "FrequencyBins", "TripleParseError", "TripleStore", "Vocab",
         "VocabularyError", "bin_relations", "build_store", "load_dataset", "load_triples"),
        "data"),
    **dict.fromkeys(("CheckpointError", "load_checkpoint", "save_checkpoint"), "checkpoint"),
    **dict.fromkeys(("EvalReport", "evaluate"), "evaluation"),
    **dict.fromkeys(("Hyperparams", "ModelParams", "init_params"), "model"),
    **dict.fromkeys(("DomainSampler", "corrupt_batch", "domain_probability"), "sampling"),
    **dict.fromkeys(("TrainingError", "TrainState", "block_update", "make_state", "sgd_epoch",
                     "single_matrix_cost", "train"), "training"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
