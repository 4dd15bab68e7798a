"""Expert GELU feed-forward networks and the dispatch/combine layer for dense,
sparse top-k, hard-routed, and hierarchical modes, plus a coarse FLOPs
accounting (multiply-adds counted as 2 ops, biases/activations ignored).

A routed layer combines its experts in one ``tensor.moe_combine`` node: each
expert runs once, on the rows that selected it, so only the experts a token
selected are ever evaluated, and each expert's evaluation counter makes that
checkable."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .routing import (
    RouterParams, Routing, RoutingConfigError, dispatch_stats, route_hard,
    route_hierarchical, route_sparse,
)
from .tensor import Tensor

# the EMA momentum of a hierarchical layer's inter_center, per sequence
CENTER_MOMENTUM = 0.99


@dataclass
class ExpertFFN:
    """Two-layer bottleneck FFN W2^T gelu(W1^T x + b1) + b2, applied to each
    row of an [n x d] batch or an [n x T x d] stack.

    ``forward`` runs the dense mode's one expert; routed layers run their
    experts through ``MoELayer.combine``. Both add each evaluated row to
    ``eval_count``."""

    W1: Tensor  # [d x h]
    b1: Tensor  # [h]
    W2: Tensor  # [h x d]
    b2: Tensor  # [d]
    eval_count: int = 0  # token evaluations, for the sparsity contract

    @staticmethod
    def init(d: int, h: int, rng) -> "ExpertFFN":
        return ExpertFFN(
            W1=Tensor.param(0.1 * rng.normal(size=(d, h))),
            b1=Tensor.param(np.zeros(h)),
            W2=Tensor.param(0.1 * rng.normal(size=(h, d))),
            b2=Tensor.param(np.zeros(d)),
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.W1.data.shape[0]:
            raise T.ShapeError(
                f"expert input {x.data.shape} incompatible with W1 {self.W1.data.shape}")
        # one evaluation per row: [n x d] rows or [n x T x d] stacked rows
        self.eval_count += math.prod(x.data.shape[:-1])
        return T.ffn(x, self.W1, self.b1, self.W2, self.b2)

    def params(self) -> list[Tensor]:
        return [self.W1, self.b1, self.W2, self.b2]


@dataclass
class MoELayerConfig:
    mode: str = "dense_ffn"  # dense_ffn | sparse_topk | hard | hierarchical
    d: int = 32
    h: int = 64
    n_experts: int = 8       # sparse_topk: total experts
    k: int = 2               # sparse_topk / hard: experts per token
    n_groups: int = 2        # hard / hierarchical
    n_per_group: int = 4
    m: int = 2               # hierarchical: groups per token
    k_per_group: int = 1     # hierarchical: experts per selected group

    def __post_init__(self):
        if self.mode not in ("dense_ffn", "sparse_topk", "hard", "hierarchical"):
            raise RoutingConfigError(f"unknown MoE mode {self.mode!r}")
        if min(self.d, self.h, self.n_experts, self.k, self.n_groups,
               self.n_per_group, self.m, self.k_per_group) < 1:
            raise ValueError("all MoE dimensions must be positive")
        if self.mode == "sparse_topk" and self.k > self.n_experts:
            raise RoutingConfigError(f"k={self.k} exceeds {self.n_experts} experts")
        if self.mode == "hard" and (self.n_groups != 2 or self.k > self.n_per_group):
            raise RoutingConfigError(
                "hard routing needs n_groups=2 and k <= n_per_group, got "
                f"n_groups={self.n_groups}, k={self.k}, n_per_group={self.n_per_group}")
        if self.mode == "hierarchical" and (self.m > self.n_groups
                                            or self.k_per_group > self.n_per_group):
            raise RoutingConfigError(
                "hierarchical routing needs m <= n_groups and k_per_group <= n_per_group, "
                f"got m={self.m}, n_groups={self.n_groups}, "
                f"k_per_group={self.k_per_group}, n_per_group={self.n_per_group}")


class MoELayer:
    """One FFN position of the decoder in any of the four modes."""

    def __init__(self, cfg: MoELayerConfig, rng):
        self.cfg = cfg
        self.experts = [ExpertFFN.init(cfg.d, cfg.h, rng)
                        for _ in range(len_experts(cfg))]
        self.init_routers(rng)
        # running mean of routed tokens; the inter router sees centered inputs
        # so that group logits react to how a token differs from the typical
        # token rather than to the shared mean component
        self.inter_center = np.zeros(cfg.d)

    # -- parameters -----------------------------------------------------------

    def init_routers(self, rng):
        """Draw the router families of the mode from ``rng``: the sparse
        router, or one intra router per group (hard routing's as two
        families). The inter router starts at zero, so that no group is
        preferred at the start."""
        cfg = self.cfg
        self.router = (RouterParams.init(cfg.d, cfg.n_experts, rng, 1)
                       if cfg.mode == "sparse_topk" else None)
        self.inter_router = (RouterParams.zeros(cfg.d, cfg.n_groups)
                             if cfg.mode == "hierarchical" else None)
        families = cfg.n_groups if cfg.mode == "hard" else 1
        self.intra_routers = ([RouterParams.init(cfg.d, cfg.n_per_group, rng,
                                                 cfg.n_groups // families)
                               for _ in range(families)]
                              if cfg.mode in ("hard", "hierarchical") else [])

    def router_params(self) -> list[Tensor]:
        """Router weights: ``router``, then ``inter_router``, then the intra
        routers."""
        return [r.weight for r in (self.router, self.inter_router, *self.intra_routers)
                if r is not None]

    def params(self) -> list[Tensor]:
        return [p for e in self.experts for p in e.params()] + self.router_params()

    def eval_counts(self) -> list[int]:
        return [e.eval_count for e in self.experts]

    # -- routing --------------------------------------------------------------

    def route(self, X: Tensor, modalities: list[str] | None = None,
              centers: np.ndarray | None = None) -> Routing:
        """Route a [B x d] batch; in hierarchical mode the inter router sees
        each row minus its entry of ``centers`` ([B x d]; default
        ``inter_center`` for every row)."""
        cfg = self.cfg
        if cfg.mode == "sparse_topk":
            return route_sparse(self.router, X, cfg.k, modalities)
        if cfg.mode == "hard":
            return route_hard(modalities, tuple(self.intra_routers), X, cfg.k)
        if cfg.mode == "hierarchical":
            X_inter = T.sub(X, Tensor(self.inter_center if centers is None else centers))
            return route_hierarchical(self.inter_router, self.intra_routers[0], X,
                                      cfg.m, cfg.k_per_group, X_inter=X_inter,
                                      modalities=modalities)
        raise RoutingConfigError("dense_ffn mode has no routing")

    def _advance_center(self, X: np.ndarray, segments) -> np.ndarray:
        """Fold each segment's row mean into ``inter_center``, segment after
        segment as if each were its own batch; returns the [B x d] center
        each row is routed against."""
        bounds = np.flatnonzero(np.diff(segments)) + 1
        centers = []
        for part in np.split(X, bounds):
            mean = np.add.reduce(part, axis=0) / len(part)  # part.mean(axis=0), unwrapped
            self.inter_center = (CENTER_MOMENTUM * self.inter_center
                                 + (1 - CENTER_MOMENTUM) * mean)
            centers.append(self.inter_center)
        return np.repeat(np.stack(centers), np.diff([0, *bounds, X.shape[0]]), axis=0)

    # -- forward --------------------------------------------------------------

    def forward(self, X: Tensor, modalities: list[str] | None = None, segments=None):
        """Process a [B x d] token batch.

        ``segments`` gives each row's sequence (the rows of one sequence
        are contiguous); None means one sequence. With gradients enabled
        the hierarchical mode advances ``inter_center`` per sequence.

        Returns (outputs [B x d], Routing, DispatchStats); the routing and
        the stats are None in dense mode."""
        cfg = self.cfg
        if cfg.mode == "dense_ffn":
            return self.experts[0].forward(X), None, None
        centers = None
        if cfg.mode == "hierarchical" and T.grad_enabled():
            B = X.data.shape[0]
            segments = np.zeros(B, dtype=np.int64) if segments is None else np.asarray(segments)
            if segments.shape != (B,):
                raise T.ShapeError(f"{segments.shape} segment ids for {B} rows")
            centers = self._advance_center(X.data, segments)
        routing = self.route(X, modalities, centers)
        return self.combine(X, routing), routing, dispatch_stats(routing)

    def combine(self, X: Tensor, routing: Routing) -> Tensor:
        """y_t = sum over j of weights[t, j] * e_j(x_t), e_j = selected[t, j].

        One ``T.moe_combine`` node: each expert runs once, on the rows that
        selected it, and adds those rows to its ``eval_count``."""
        E = sum(p.data.shape[0] * p.data.shape[2] for p in routing.expert_probs)
        if E != len(self.experts):
            raise RoutingConfigError(
                f"routing over {E} experts does not match a layer of {len(self.experts)}")
        counts = np.bincount(routing.selected.ravel(), minlength=E).tolist()
        for e, n in enumerate(counts):
            if n:
                self.experts[e].eval_count += n
        return T.moe_combine(X, routing.weights, routing.selected,
                             [e.params() for e in self.experts], counts)

    def router_logit_rows(self, routing: Routing) -> list[Tensor]:
        """Expert-router logits of this routing, one [G x B x n] tensor per
        family, whose slices are the z-loss inputs.

        The z-loss is defined over the expert logits; the inter-modal router
        of the hierarchical mode is deliberately left out."""
        return routing.logits


def flops_report(cfg: MoELayerConfig, tokens: int) -> dict:
    """Multiply-add FLOPs (2 ops each) for one layer over ``tokens`` tokens."""
    if tokens < 1:
        raise ValueError("tokens must be positive")
    per_expert = 2 * cfg.d * cfg.h * 2  # two matmuls
    dense = per_expert * tokens
    if cfg.mode == "dense_ffn":
        activated = dense
    elif cfg.mode == "sparse_topk":
        activated = cfg.k * per_expert * tokens + 2 * cfg.d * cfg.n_experts * tokens
    elif cfg.mode == "hard":  # both groups' routers run per token
        activated = cfg.k * per_expert * tokens + 2 * cfg.d * len_experts(cfg) * tokens
    else:  # hierarchical: all intra routers plus the inter router run per token
        router = 2 * cfg.d * cfg.n_groups + cfg.n_groups * 2 * cfg.d * cfg.n_per_group
        activated = cfg.m * cfg.k_per_group * per_expert * tokens + router * tokens
    total_param_flops = per_expert * len_experts(cfg) * tokens
    return {
        "activated_flops": int(activated),
        "total_param_flops": int(total_param_flops),
        "dense_ffn_flops": int(dense),
        "ratio": activated / dense,
    }


def len_experts(cfg: MoELayerConfig) -> int:
    """Experts in one layer: one dense FFN, ``n_experts`` in sparse top-k,
    one group of ``n_per_group`` per group otherwise."""
    if cfg.mode == "dense_ffn":
        return 1
    if cfg.mode == "sparse_topk":
        return cfg.n_experts
    return cfg.n_groups * cfg.n_per_group
