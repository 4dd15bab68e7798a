"""Auxiliary router losses: load balancing, router z-loss, group-level load
biasing, and the weighted total.

Top-1 frequencies (f, g) enter as constants; gradients flow only through the
mean-probability terms (P, Q)."""

from __future__ import annotations

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
    """Sum of per-group load balancing terms (a single term in flat modes)."""
    total = None
    for f, P in zip(stats.expert_f, stats.expert_P):
        term = load_balancing_loss(f, P)
        total = term if total is None else T.add(total, term)
    return total


def router_z_loss(logit_rows: Tensor, row_weights=None) -> Tensor:
    """Mean over tokens of squared logsumexp of the [tokens x experts] router
    logits, or, given ``row_weights``, their sum weighted by them."""
    if logit_rows.data.ndim != 2:
        raise T.ShapeError(f"router z-loss needs a [tokens x experts] logit matrix, "
                           f"got shape {logit_rows.data.shape}")
    lse = T.logsumexp(logit_rows)
    sq = T.mul(lse, lse)
    if row_weights is None:
        return T.tmean(sq)
    w = np.asarray(row_weights, dtype=np.float64)
    if w.shape != sq.data.shape:
        raise T.ShapeError(f"{w.shape} row weights for {sq.data.shape[0]} rows")
    return T.tsum(T.mul(sq, Tensor(w)))


def load_biasing_loss(stats: DispatchStats) -> Tensor:
    """(1 - g^A_1 Q^A_1) + (1 - g^V_2 Q^V_2) over the unimodal token subsets.

    A term whose subset is empty in the batch contributes 0 (audio-visual
    sequences are excluded by construction)."""
    if stats.n_groups != 2:
        raise UnsupportedConfigError(
            f"load biasing defined for exactly 2 groups, got {stats.n_groups}")
    if not stats.g:
        raise UnsupportedConfigError(
            "load biasing needs inter-router group statistics (hierarchical routing)")
    total = Tensor(0.0)
    if stats.counts.get(MOD_AUDIO, 0) > 0:
        g1 = float(stats.g[MOD_AUDIO][AUDIO_GROUP])
        q1 = T.take(stats.Q[MOD_AUDIO], [AUDIO_GROUP])
        total = T.add(total, T.sub(Tensor(1.0), T.scale(T.tsum(q1), g1)))
    if stats.counts.get(MOD_VIDEO, 0) > 0:
        g2 = float(stats.g[MOD_VIDEO][VIDEO_GROUP])
        q2 = T.take(stats.Q[MOD_VIDEO], [VIDEO_GROUP])
        total = T.add(total, T.sub(Tensor(1.0), T.scale(T.tsum(q2), g2)))
    return total


def total_aux_loss(ce, balance, bias, z, c_balance: float = DEFAULT_C_B,
                   c_bias: float = DEFAULT_C_S) -> LossBundle:
    """Weighted combination L_CE + c_B L_B + c_S L_S + c_Z L_Z, with c_Z
    fixed at ``DEFAULT_C_Z``."""
    ce, balance, bias, z = (x if isinstance(x, Tensor) else Tensor(float(x))
                            for x in (ce, balance, bias, z))
    for name, t in (("ce", ce), ("balance", balance), ("bias", bias), ("z", z)):
        if not np.isfinite(t.data).all():
            raise T.NumericError(f"loss component {name} is not finite")
    total = T.add(T.add(ce, T.scale(balance, c_balance)),
                  T.add(T.scale(bias, c_bias), T.scale(z, DEFAULT_C_Z)))
    return LossBundle(ce=ce, balance=balance, bias=bias, z=z, total=total)
