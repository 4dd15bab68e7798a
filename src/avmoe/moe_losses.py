"""Auxiliary router losses: load balancing, router z-loss, group-level load
biasing, and the weighted total.

Top-1 frequencies (f, g) enter as constants; gradients flow only through the
mean probabilities (P, Q), which each op takes itself of the router
probability tensors that ``DispatchStats`` carries.

Each term the supervised step adds is one tape node, a fused op of
``avmoe.tensor``: a layer's balancing (``load_balancing``, whose gradient
enters each group's router probabilities), its biasing (``load_biasing``,
into the inter-router probabilities of each unimodal subset's rows), each
router's z-loss (``squared_logsumexp``, into its logits), and the weighted
total of the CE and the three layer means (``loss_total``, the op that also
ends the uptraining step). The chains of primitive ops these nodes stand
for are the tests' oracle (``tests/chains.py``), and the trainer checks
the means for finiteness (``trainer._step_scalars``)."""

from __future__ import annotations

from . import tensor as T
from .tensor import Tensor
from .routing import AUDIO_GROUP, VIDEO_GROUP, MOD_AUDIO, MOD_VIDEO, DispatchStats

DEFAULT_C_B = 1e-2
DEFAULT_C_S = 1e-2
DEFAULT_C_Z = 1e-3
# the supervised losses' steps.csv columns, in total_aux_loss's argument order
ROUTER_COLUMNS = ("L_CE", "L_B", "L_S", "L_Z")


class UnsupportedConfigError(ValueError):
    """Loss asked for a configuration it does not support."""


def load_balancing_from_stats(stats: DispatchStats) -> Tensor:
    """Sum of per-group load balancing terms (a single term in flat modes),
    one node over the groups' probability matrices."""
    return T.load_balancing(stats.expert_probs, stats.expert_f)


def router_z_loss(logit_rows: Tensor, row_weights=None) -> Tensor:
    """Mean over tokens of squared logsumexp of the [tokens x experts] router
    logits, or, given ``row_weights``, their sum weighted by them; the op
    checks the shape."""
    return T.squared_logsumexp(logit_rows, row_weights)


def load_biasing_loss(stats: DispatchStats) -> Tensor:
    """(1 - g^A_1 Q^A_1) + (1 - g^V_2 Q^V_2) over the unimodal token subsets,
    one node over the group probabilities.

    A term whose subset is empty in the batch contributes 0 (audio-visual
    sequences are excluded by construction)."""
    if stats.n_groups != 2:
        raise UnsupportedConfigError(
            f"load biasing defined for exactly 2 groups, got {stats.n_groups}")
    if not stats.g:
        raise UnsupportedConfigError(
            "load biasing needs inter-router group statistics (hierarchical routing)")
    terms = [(stats.subsets[tag], group, float(stats.g[tag][group]))
             for tag, group in ((MOD_AUDIO, AUDIO_GROUP), (MOD_VIDEO, VIDEO_GROUP))
             if stats.counts.get(tag, 0) > 0]
    return T.load_biasing(stats.group_probs, terms)


def total_aux_loss(ce: Tensor, balance: list, bias: list, z: list,
                   c_balance: float = DEFAULT_C_B, c_bias: float = DEFAULT_C_S):
    """L_CE + c_B L_B + c_S L_S + c_Z L_Z, with c_Z fixed at ``DEFAULT_C_Z``,
    as one ``tensor.loss_total`` node; each of the ``balance``, ``bias`` and
    ``z`` terms is the mean of its list of per-layer losses (0 for an empty
    list). Returns the total and the four ``ROUTER_COLUMNS`` means."""
    columns = [[(ce, 1.0)], *([(t, 1.0) for t in ts] for ts in (balance, bias, z))]
    return T.loss_total(columns, (1.0, c_balance, c_bias, DEFAULT_C_Z))
