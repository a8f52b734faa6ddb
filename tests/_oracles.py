"""Scalar per-triple energies: the independent references that the batch
kernels are checked against.

Each function scores one triple with plain vector arithmetic: one
projection per side, composed concept by concept, then the translation
norm.  The library's own scoring runs through column tables and GEMMs;
these stay simple on purpose so that a test can compare the two.
"""

from conceptkb.model import (
    SIDE_HEAD,
    SIDE_TAIL,
    Hyperparams,
    ModelParams,
    attention_vector,
    project,
    vec_norm,
)


def energy_itransf(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Translation energy in the attention-composed projection spaces."""
    alpha_h = attention_vector(params, hp, r, SIDE_HEAD)
    alpha_t = attention_vector(params, hp, r, SIDE_TAIL)
    ph = project(alpha_h, params.concept_tensor, params.entity_emb[h])
    pt = project(alpha_t, params.concept_tensor, params.entity_emb[t])
    return vec_norm(ph + params.relation_emb[r] - pt, hp.ell)


def energy_transe(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Plain translation energy ``|h + r - t|`` in the chosen norm."""
    u = params.entity_emb[h] + params.relation_emb[r] - params.entity_emb[t]
    return vec_norm(u, hp.ell)


def energy_stranse(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Two-matrix baseline energy: slice 2r projects the head, 2r+1 the tail."""
    if params.m != 2 * params.n_relations:
        raise ValueError("params do not hold per-relation matrix pairs (m != 2*|R|)")
    w1 = params.concept_tensor[2 * r]
    w2 = params.concept_tensor[2 * r + 1]
    u = w1 @ params.entity_emb[h] + params.relation_emb[r] - w2 @ params.entity_emb[t]
    return vec_norm(u, hp.ell)


def energy(h: int, r: int, t: int, params: ModelParams, hp: Hyperparams) -> float:
    """Energy under the configured model family."""
    if hp.model == "transe":
        return energy_transe(h, r, t, params, hp)
    return energy_itransf(h, r, t, params, hp)
