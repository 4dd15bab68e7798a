"""Router probability computation and expert/group selection for dense top-k,
hard-routed, and hierarchical (two-level) modes, plus batch dispatch
statistics.

Conventions:
- every router's logits and row softmax come from one op,
  ``T.router_softmaxes``: the sparse, inter-modal and intra routers alike;
- tie-breaking everywhere is lowest index first;
- expert ids are flat across groups (group g, local j -> g * n_per_group + j);
- a routing keeps k weights per token, in selection order: [B x k] beside
  the [B x k] selected ids, never spread over all experts;
- top-1 frequencies (f, g) are non-differentiable statistics; the router
  losses differentiate through the mean probabilities (P, Q) of the
  routing's own probability tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

MOD_AUDIO = "audio"
MOD_VIDEO = "video"
MOD_AV = "av"
MODALITIES = (MOD_AUDIO, MOD_VIDEO, MOD_AV)

AUDIO_GROUP = 0  # first group handles audio, second video
VIDEO_GROUP = 1


class RoutingConfigError(ValueError):
    """Routing request inconsistent with the configured mode."""


@dataclass
class RouterParams:
    """One linear routing map; one weight column per expert (or per group)."""

    weight: Tensor  # [d x n]

    @staticmethod
    def zeros(d: int, n: int) -> "RouterParams":
        return RouterParams(Tensor.param(np.zeros((d, n))))

    @staticmethod
    def init(d: int, n: int, rng, scale: float = 0.02) -> "RouterParams":
        return RouterParams(Tensor.param(scale * rng.normal(size=(d, n))))


@dataclass
class Routing:
    """Routing of one [B x d] token batch.

    ``selected`` holds each row's flat expert ids in selection order, and it
    alone decides which experts run: a selected expert's weight may underflow
    to 0. ``weights`` is [B x k] like ``selected``: column j is the combine
    weight of expert ``selected[:, j]``; in grouped modes it already folds in
    the group weights.
    ``logits`` and ``expert_probs`` hold one [B x n] matrix per expert
    router, and ``stacked_probs`` the [G x B x n] array of their
    probabilities, as ``T.router_softmaxes`` returns it; ``group_probs`` is
    the [B x G] inter-router distribution of the hierarchical mode.
    """

    modalities: list[str]
    logits: list[Tensor]
    expert_probs: list[Tensor]
    stacked_probs: np.ndarray
    selected: np.ndarray
    weights: Tensor
    group_probs: Tensor | None = None

    @property
    def group_sizes(self) -> list[int]:
        return [p.data.shape[1] for p in self.expert_probs]


def _tags(modalities, n: int) -> list[str]:
    """One validated modality tag per row; untagged batches are audio-visual."""
    tags = [MOD_AV] * n if modalities is None else list(modalities)
    if len(tags) != n:
        raise RoutingConfigError(f"{len(tags)} modality tags for {n} tokens")
    for tag in tags:
        if tag not in MODALITIES:
            raise RoutingConfigError(f"unknown modality {tag!r}")
    return tags


def topk_ids(probs: np.ndarray, k: int) -> np.ndarray:
    """Per row (last axis), the indices of the k largest entries, ties broken
    toward lower indices: a stable argsort, or for k == 1 the argmax, whose
    first largest entry is the same id on finite rows."""
    if k == 1:
        return probs.argmax(axis=-1)[..., None]
    return np.argsort(-probs, axis=-1, kind="stable")[..., :k]


def _flat(ids: np.ndarray, n: int) -> np.ndarray:
    """Row-major flat indices of per-row column ids into rows of width n."""
    return ids if ids.ndim == 1 else ids + n * np.arange(ids.shape[0])[:, None]


def select_topk(probs: Tensor, k: int) -> tuple[np.ndarray, Tensor]:
    """Per-row top-k ids plus their weights renormalized over the selection."""
    n = probs.data.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    ids = topk_ids(probs.data, k)
    return ids, T.normalize_rows(T.take(probs, _flat(ids, n)))


def route_sparse(router: RouterParams, X: Tensor, k: int,
                 modalities: list[str] | None = None) -> Routing:
    """Dense softmax routing followed by top-k selection (single group)."""
    logits, probs, stacked = T.router_softmaxes(X, [router.weight])
    ids, weights = select_topk(probs[0], k)
    return Routing(_tags(modalities, X.data.shape[0]), logits, probs, stacked, ids, weights)


def route_hard(modalities: list[str] | None, routers: tuple[RouterParams, RouterParams],
               X: Tensor, k: int) -> Routing:
    """Manual group activation: unimodal tokens use only their group's
    experts; audio-visual tokens take the top-(k/2) of each group, and the
    two group outputs are averaged. The two routers run in one
    ``T.router_softmaxes`` pass."""
    B = X.data.shape[0]
    tag_list = _tags(modalities, B)
    tags = np.asarray(tag_list)
    logits, probs, stacked = T.router_softmaxes(X, [r.weight for r in routers])
    n_a = stacked.shape[2]
    probs_a, probs_v = probs
    if k % 2 != 0 and MOD_AV in tags:
        raise RoutingConfigError(f"audiovisual hard routing needs even k, got {k}")
    # modality -> (group probs, flat id offset, experts taken, output share)
    plans = {MOD_AUDIO: [(probs_a, 0, k, 1.0)],
             MOD_VIDEO: [(probs_v, n_a, k, 1.0)],
             MOD_AV: [(probs_a, 0, k // 2, 0.5), (probs_v, n_a, k // 2, 0.5)]}
    selected = np.zeros((B, k), dtype=np.int64)
    weights = None
    for tag, plan in plans.items():
        rows = np.flatnonzero(tags == tag)
        if rows.size == 0:
            continue
        col = 0
        for group, offset, kg, share in plan:
            ids, w = select_topk(T.index_rows(group, rows), kg)
            selected[rows, col:col + kg] = offset + ids
            part = T.scatter(w if share == 1.0 else T.scale(w, share),
                             rows[:, None] * k + np.arange(col, col + kg), (B, k))
            col += kg
            weights = part if weights is None else T.add(weights, part)
    return Routing(tag_list, logits, probs, stacked, selected, weights)


def route_hierarchical(inter: RouterParams, intras: list[RouterParams], X: Tensor,
                       m: int, k_per_group: int = 1, X_inter: Tensor | None = None,
                       modalities: list[str] | None = None) -> Routing:
    """Inter-modal router picks top-m groups; within each selected group the
    intra router picks the argmax expert (k_per_group == 1, Kronecker-delta
    weights carrying no gradient) or a renormalized top-k_per_group. A
    token's weight on a selected expert is its renormalized group weight
    times its within-group weight. Selection order is the groups in
    inter-router order, each group's experts in intra-router order.

    The intra routers, one per group and all of one size, run in one
    ``T.router_softmaxes`` pass.

    ``X_inter`` optionally substitutes the inter router's input (for example
    a mean-centered view of ``X``); intra routers always see ``X``."""
    G = len(intras)
    if m > G:
        raise RoutingConfigError(f"m={m} exceeds {G} groups")
    B = X.data.shape[0]
    _, (q,), _ = T.router_softmaxes(X if X_inter is None else X_inter, [inter.weight])
    group_ids, q_tilde = select_topk(q, m)
    logits, probs, stacked = T.router_softmaxes(X, [r.weight for r in intras])
    n = stacked.shape[-1]
    if not 1 <= k_per_group <= n:
        raise ValueError(f"k={k_per_group} outside [1, {n}]")
    local_ids = topk_ids(stacked, k_per_group)  # [G x B x k_per_group]
    if k_per_group == 1:  # each within-group weight is exactly 1
        weights = q_tilde
    else:
        inner = [T.normalize_rows(T.take(p, _flat(ids, n)))
                 for p, ids in zip(probs, local_ids)]
        # column j * k_per_group + i: the i-th intra weight of group group_ids[:, j]
        cols = (group_ids[..., None] * k_per_group + np.arange(k_per_group)).reshape(B, -1)
        q_rep = T.take(q_tilde, np.repeat(np.arange(B * m).reshape(B, m), k_per_group, axis=1))
        weights = T.mul(q_rep, T.take(T.concat_cols(inner), _flat(cols, G * k_per_group)))
    selected = (local_ids[group_ids, np.arange(B)[:, None]]
                + n * group_ids[..., None]).reshape(B, -1)
    return Routing(_tags(modalities, B), logits, probs, stacked, selected, weights,
                   group_probs=q)


@dataclass
class DispatchStats:
    """Batch-level load statistics of one routing record.

    ``expert_f`` holds one top-1 frequency vector per expert group (a
    single one in flat modes), each summing to 1 when any token was seen.
    ``g`` holds the group-level top-1 frequencies keyed by modality subset
    ('audio', 'video', 'av'); subsets absent from the batch are omitted.
    ``counts`` gives tokens per subset. These are plain arrays.

    The router losses differentiate through the routing's own tensors:
    ``expert_probs``, one [B x n] probability matrix per group, and the
    [B x G] ``group_probs`` of the hierarchical mode, whose rows of each
    subset are ``subsets[tag]`` (None when the batch is one subset: every
    row). The losses take the mean probabilities (P, Q) of these themselves.
    """

    expert_f: np.ndarray  # [G x n]
    g: dict[str, np.ndarray]
    counts: dict[str, int]
    n_groups: int
    expert_probs: list[Tensor] = field(default_factory=list)
    group_probs: Tensor | None = None
    subsets: dict[str, np.ndarray | None] = field(default_factory=dict)


def dispatch_stats(routing: Routing) -> DispatchStats:
    """Top-1 frequencies f per expert group, from one argmax and one
    bincount over the routing's stacked probabilities, and g per modality
    subset; builds no tape node. A batch of one tag (every decoding step)
    is one subset of all rows, found with no per-row loop; an empty batch
    has no subset."""
    tags = routing.modalities
    n_tok = len(tags)
    stacked = routing.stacked_probs
    G, _, n = stacked.shape
    top = stacked.argmax(axis=2) + n * np.arange(G)[:, None]
    expert_f = np.bincount(top.ravel(), minlength=G * n).reshape(G, n) / n_tok

    g: dict[str, np.ndarray] = {}
    counts = {key: 0 for key in MODALITIES}
    group_probs = routing.group_probs
    # a one-subset batch keeps all of its rows: None
    if n_tok and tags.count(tags[0]) == n_tok:
        subsets: dict = {tags[0]: None}
    else:
        subsets = {}  # in order of first appearance
        for i, tag in enumerate(tags):
            subsets.setdefault(tag, []).append(i)
        subsets = {tag: np.array(rows, dtype=np.int64) for tag, rows in subsets.items()}
    if group_probs is not None:
        top_group = group_probs.data.argmax(axis=1)
    for tag, rows in subsets.items():
        size = n_tok if rows is None else rows.size
        counts[tag] = size
        if group_probs is not None:
            ids = top_group if rows is None else top_group[rows]
            g[tag] = np.bincount(ids, minlength=group_probs.data.shape[1]) / size
    return DispatchStats(expert_f, g, counts, G, routing.expert_probs, group_probs, subsets)
