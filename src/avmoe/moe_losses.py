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
total of the three layer means and the CE (``router_loss_total``).
``load_balancing_loss`` stays the one-group chain of primitive ops."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .routing import AUDIO_GROUP, VIDEO_GROUP, MOD_AUDIO, MOD_VIDEO, DispatchStats

DEFAULT_C_B = 1e-2
DEFAULT_C_S = 1e-2
DEFAULT_C_Z = 1e-3


class UnsupportedConfigError(ValueError):
    """Loss asked for a configuration it does not support."""


@dataclass
class LossBundle:
    ce: Tensor
    balance: Tensor
    bias: Tensor
    z: Tensor
    total: Tensor

    def scalars(self) -> dict[str, float]:
        return {
            "L_CE": float(self.ce.data), "L_B": float(self.balance.data),
            "L_S": float(self.bias.data), "L_Z": float(self.z.data),
            "total": float(self.total.data),
        }


def load_balancing_loss(f: np.ndarray, P: Tensor) -> Tensor:
    """n * sum_i f_i P_i for one expert set; f is a constant statistic."""
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    if P.data.shape != (n,):
        raise T.ShapeError(f"f has {n} entries but P has shape {P.data.shape}")
    return T.scale(T.tsum(T.mul(Tensor(f), P)), float(n))


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


def total_aux_loss(ce, balance, bias, z, c_balance: float = DEFAULT_C_B,
                   c_bias: float = DEFAULT_C_S) -> LossBundle:
    """Weighted combination L_CE + c_B L_B + c_S L_S + c_Z L_Z, with c_Z
    fixed at ``DEFAULT_C_Z``, as one node. Each of ``balance``, ``bias`` and
    ``z`` is a loss or a list of per-layer losses whose mean is the term (0
    for an empty list)."""
    ce = ce if isinstance(ce, Tensor) else Tensor(float(ce))
    terms = [[x if isinstance(x, Tensor) else Tensor(float(x))
              for x in (xs if isinstance(xs, list) else [xs])] for xs in (balance, bias, z)]
    total, means = T.router_loss_total(ce, *terms, c_balance, c_bias, DEFAULT_C_Z)
    balance, bias, z = (Tensor(m) for m in means)
    for name, t in (("ce", ce), ("balance", balance), ("bias", bias), ("z", z)):
        if not math.isfinite(t.data):
            raise T.NumericError(f"loss component {name} is not finite")
    return LossBundle(ce=ce, balance=balance, bias=bias, z=z, total=total)
