"""Finite-difference verification harness for every differentiable exported
operation, grouped by module for selective runs from the CLI.

``CASES`` maps each module to its (name, builder) rows; a builder, given a
seed, returns (f, x) where f maps a Tensor to a scalar Tensor, and `run`
reports the max relative error per case across seeds. Gradients are checked
with respect to inputs, weights, and router probabilities alike by making
the probe tensor play those roles.

The "tensor" module is one table of operand probes: each row is
``_probe(op, shapes, probe)``, which draws the operands of ``shapes`` from
the seed's stream, makes ``probe`` the checked tensor, and sums the output
against a random upstream gradient, so a backward that drops its upstream
gradient fails its own row. ``_rows`` gives one row per operand. Every
public op of ``avmoe.tensor`` but ``tsum``, which ends every case, has a row
named after it or prefixed ``<op>_``, and ``tests/test_tensor.py`` checks
that it does, and that the program or a demo runs each of them. The ops
that only the tests' chains use live in ``tests/chains.py``, and the tests
grad-check them there: ``softmax`` is one, since every router's softmax is
``router_softmaxes``', whose rows probe it. The "moe" module probes
``MoELayer.forward`` through its input or one router weight
(``_layer_case``), and "losses" the router losses through the routings they
read (the z-loss's own op, ``squared_logsumexp``, has its rows in "tensor").
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .moe_layer import ExpertFFN, MoELayer, MoELayerConfig
from .moe_losses import (
    load_balancing_from_stats, load_biasing_loss, router_z_loss, total_aux_loss,
)
from .routing import (
    MOD_AUDIO, MOD_AV, MOD_VIDEO, RouterParams, dispatch_stats, route_sparse,
)
from .tensor import Tensor, grad_check
from .trainer import ConfigError

DEFAULT_SEEDS = 20
TOLERANCE = 1e-4
EPS = 1e-4

TAGS = [MOD_AUDIO, MOD_VIDEO, MOD_AV]


def _rng(seed):
    return np.random.default_rng(seed)


def _probe(op, shapes, probe=None, positive=False, **fixed):
    """Case of ``op`` with respect to its operand ``probe`` (default the
    first): each operand of ``shapes`` (name -> shape, in ``op``'s argument
    order) is drawn from the seed's stream, as |x| + 0.5 when ``positive``,
    and all but the probe are constants. ``op`` is a callable or the name of
    an ``avmoe.tensor`` op, looked up when the case is built; ``fixed`` are
    its keyword arguments. The output is summed against a random upstream
    gradient, of the shape one no-grad call gives."""
    probe = probe or next(iter(shapes))

    def build(seed):
        rng = _rng(seed)
        fn = getattr(T, op) if isinstance(op, str) else op
        arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        if positive:
            arrays = {name: np.abs(a) + 0.5 for name, a in arrays.items()}
        with T.no_grad():
            upstream = Tensor(rng.normal(size=fn(*map(Tensor, arrays.values()), **fixed).shape))

        def f(t):
            args = (t if name == probe else Tensor(a) for name, a in arrays.items())
            return T.tsum(T.mul(fn(*args, **fixed), upstream))

        return f, Tensor(arrays[probe])
    return build


def _rows(name, op, shapes):
    """One ``_probe`` row, ``<name>_<operand>``, per operand of ``shapes``."""
    return [(f"{name}_{operand}", _probe(op, shapes, operand)) for operand in shapes]


# 4 rows taking 2 of 3 experts each, and how many rows select each expert
_SELECTED = np.array([[0, 1], [2, 0], [1, 2], [0, 2]])
_COUNTS = [3, 2, 3]


def _moe_combine(X, weights, W1, b1, W2, b2):
    """``moe_combine`` of ``_SELECTED``; expert e's parameters are slice e of
    the [3 x ...] parameter stacks."""
    experts = [[T.stack_slice(p, e) for p in (W1, b1, W2, b2)] for e in range(3)]
    return T.moe_combine(X, weights, _SELECTED, experts, _COUNTS)


def _router_softmaxes(X, W):
    """The logits and probs of ``router_softmaxes`` side by side, for the
    routers that are the slices of the [G x d x n] stack ``W``."""
    logits, probs, _ = T.router_softmaxes(X, [T.stack_slice(W, g) for g in range(W.shape[0])])
    return T.concat_cols(logits + probs)


# two groups' top-1 frequencies, and two unimodal subsets' biasing terms
_F = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5]])
_BIAS_TERMS = [(np.array([0, 3]), 0, 0.5), (np.array([1, 2, 4]), 1, 0.75)]


# scored rows 0 and 2 of slice 1 of a [2 x 3 x 4] stack, against [3 x 3] targets
_TARGETS = np.linspace(-1.0, 1.0, 9).reshape(3, 3)


def _head_mse(stack, head):
    return T.head_mse(stack, 1, head, _TARGETS, [0, 2])


def _loss_total(ce, shared, b0, b1, s0):
    """Both callers' forms: a one-term column of weight 1.0 (the CE), a loss
    with a share of 0.5 in two columns, and an empty column."""
    columns = ([(ce, 1.0)], [(shared, 0.5), (b0, 1.0), (b1, 1.0)], [(shared, 0.5), (s0, 1.0)], [])
    return T.loss_total(columns, [1.0, 0.7, 1.3, 2.0])[0]


# two packed segments, query rows 0-1 and row 2, over keys 0-2 and 3-4, and
# a causal mask over three rows
_MASK = np.where(np.array([[0], [0], [1]]) == np.array([[0, 0, 0, 1, 1]]), 0.0, -np.inf)
_CAUSAL = np.triu(np.full((3, 3), -np.inf), k=1)
# operand shapes: a matrix, a stack of two, a vector, an FFN's parameters,
# an attention block's and the input stage's
M, S, V6 = (3, 4), (2, 3, 4), (6,)
FFN = {"W1": (4, 5), "b1": (5,), "W2": (5, 4), "b2": (4,)}
ATT = {"X": M, "Wq": (4, 4), "Wk": (4, 4), "Wv": (4, 4), "Wo": (4, 4)}
INPUTS = {"A": (3, 5), "V": (3, 2), "Wa": (5, 4), "Wv": (2, 3), "Wf": (7, 4)}


def _attention_kv(X, K, V, Wq, Wo):
    """``attention_block`` over the given keys and values of two masked
    segments."""
    return T.attention_block(X, Wq, None, None, Wo, mask=_MASK, kv=(K, V))


# -- MoE layer cases ----------------------------------------------------------

def _layer(rng, mode, **cfg):
    return MoELayer(MoELayerConfig(**{"mode": mode, "d": 4, "h": 6, "n_experts": 4, "k": 2,
                                      "n_per_group": 2, **cfg}), rng)


def _inter(layer):
    return layer.inter_router


def _layer_case(mode, weight, **cfg):
    """``MoELayer.forward`` of 3 rows tagged audio, video and audio-visual,
    summed against a random upstream gradient, with respect to the input
    (``weight`` None) or to the weight of the router ``weight(layer)``."""
    def build(seed):
        rng = _rng(seed)
        layer = _layer(rng, mode, **cfg)
        x, upstream = Tensor(rng.normal(size=M)), Tensor(rng.normal(size=M))

        def f(t):
            if weight is not None:
                weight(layer).weight = t
            out = layer.forward(t if weight is None else x, TAGS)[0]
            return T.tsum(T.mul(out, upstream))

        return f, x if weight is None else Tensor(rng.normal(size=weight(layer).weight.shape))
    return build


def _expert(x, W1, b1, W2, b2):
    return ExpertFFN(W1, b1, W2, b2).forward(x)


# -- loss cases with gradient paths through the router probabilities ----------

def _case_balance_through_P(seed):
    rng = _rng(seed)
    layer = _layer(rng, "sparse_topk")
    return (lambda t: load_balancing_from_stats(dispatch_stats(
        route_sparse(layer.router, t, layer.cfg.k)))), Tensor(rng.normal(size=M))


def _case_bias_through_Q(seed):
    rng = _rng(seed)
    layer = _layer(rng, "hierarchical")
    # a drawn inter router: at its zero init, Q does not depend on the input
    layer.inter_router = RouterParams(Tensor(rng.normal(size=(4, 2))))
    return (lambda t: load_biasing_loss(dispatch_stats(layer.route(t, TAGS)))), \
        Tensor(rng.normal(size=M))


def _case_bias_router_weights(seed):
    rng = _rng(seed)
    layer = _layer(rng, "hierarchical")
    x = Tensor(rng.normal(size=(4, 4)))

    def f(t):
        layer.inter_router.weight = t
        return load_biasing_loss(dispatch_stats(layer.route(x, [MOD_AUDIO, MOD_VIDEO] * 2)))

    return f, Tensor(rng.normal(size=(4, 2)))


def _total_aux(X, W, f):
    """Every term of ``total_aux_loss`` from one router's [1 x 4] logit row,
    each the op the supervised step runs for it."""
    (logits,), (probs,), _ = T.router_softmaxes(X, [W])
    return total_aux_loss(T.cross_entropy_rows(logits, [2]), [T.load_balancing([probs], [f.data])],
                          [T.load_biasing(probs, [(None, 1, 0.5)])], [router_z_loss(logits)])[0]


CASES = {
    "tensor": [
        ("add", _probe("add", {"a": M, "b": M})),
        ("sub", _probe("sub", {"a": M, "b": M}, "b")),
        ("mul", _probe("mul", {"a": M, "b": M})),
        ("scale", _probe("scale", {"a": M}, c=-1.7)),
        ("matmul", _probe("matmul", {"a": M, "b": (4, 3)})),
        ("matmul_stacked", _probe("matmul", {"a": S, "b": (4, 3)})),
        ("matmul_stacked_right", _probe("matmul", {"a": S, "b": (4, 3)}, "b")),
        ("gelu", _probe("gelu", {"a": M})),
        ("normalize_rows", _probe("normalize_rows", {"a": M}, positive=True)),
        ("cross_entropy_rows", _probe("cross_entropy_rows", {"logits": M},
                                      target_ids=[1, 3, 1])),
        ("cross_entropy_rows_weighted", _probe("cross_entropy_rows", {"logits": M},
                                               target_ids=[0, 2, 3],
                                               row_weights=[0.3, 1.0, 0.6])),
        ("index_rows", _probe("index_rows", {"a": M}, idx=[0, 2, 0])),
        ("take", _probe("take", {"a": V6}, flat_idx=[1, 3, 1, 0, 2])),
        ("scatter", _probe("scatter", {"values": (3, 3)}, shape=(4, 5),
                           flat_idx=[[0, 7, 19], [3, 3, 12], [5, 11, 18]])),
        ("concat_cols", _probe(lambda a, b: T.concat_cols([a, b]), {"a": M, "b": (3, 2)})),
        ("concat_cols_stacked", _probe(lambda a, b: T.concat_cols([a, b]),
                                       {"a": S, "b": (2, 3, 2)})),
        ("stack_slice", _probe("stack_slice", {"stack": S}, i=1)),
        ("standardize_rows", _probe("standardize_rows", {"a": M})),
        ("standardize_rows_residual", _probe("standardize_rows", {"a": M, "residual": M})),
        ("standardize_rows_residual_operand",
         _probe("standardize_rows", {"a": M, "residual": M}, "residual")),
        ("standardize_rows_stacked_residual",
         _probe("standardize_rows", {"a": S, "residual": S})),
        *_rows("attention_block", "attention_block", ATT),
        ("attention_block_causal", _probe("attention_block", ATT, mask=_CAUSAL)),
        *_rows("attention_block_stacked", "attention_block", {**ATT, "X": S}),
        *_rows("attention_block_kv", _attention_kv,
               {"X": M, "K": (5, 4), "V": (5, 4), "Wq": (4, 4), "Wo": (4, 4)}),
        *_rows("ffn_gelu", "ffn", {"x": M, **FFN}),
        *_rows("ffn_stacked_gelu", "ffn", {"x": S, **FFN}),
        *_rows("ffn_block", "ffn_block", {"X": M, **FFN}),
        *_rows("ffn_block_stacked", "ffn_block", {"X": S, **FFN}),
        *_rows("input_fusion", "input_fusion", INPUTS),
        *_rows("input_fusion_stacked", "input_fusion",
               {**INPUTS, "A": (2, 3, 5), "V": (2, 3, 2)}),
        *_rows("moe_combine", _moe_combine, {"X": (4, 3), "weights": (4, 2), "W1": (3, 3, 2),
                                             "b1": (3, 2), "W2": (3, 2, 3), "b2": (3, 3)}),
        *_rows("router_softmaxes", _router_softmaxes, {"X": (5, 4), "W": (3, 4, 3)}),
        *_rows("load_balancing", lambda p0, p1: T.load_balancing([p0, p1], _F),
               {"p0": (5, 3), "p1": (5, 3)}),
        ("load_biasing", _probe("load_biasing", {"q": (5, 2)}, terms=_BIAS_TERMS)),
        ("load_biasing_all_rows", _probe("load_biasing", {"q": (5, 2)},
                                         terms=[(None, 1, 0.6)])),
        ("squared_logsumexp", _probe("squared_logsumexp", {"a": M})),
        ("squared_logsumexp_weighted", _probe("squared_logsumexp", {"a": M},
                                              row_weights=[0.3, 1.0, 0.6])),
        *_rows("head_mse", _head_mse, {"stack": S, "head": (4, 3)}),
        *_rows("loss_total", _loss_total,
               {name: () for name in ("ce", "shared", "b0", "b1", "s0")}),
    ],
    "moe": [
        ("expert_forward", _probe(_expert, {"x": M, **FFN})),
        ("expert_forward_weights", _probe(_expert, {"x": M, **FFN}, "W1")),
        ("moe_forward_sparse", _layer_case("sparse_topk", None)),
        ("moe_forward_hierarchical", _layer_case("hierarchical", None)),
        ("moe_forward_hierarchical_inter_router", _layer_case("hierarchical", _inter)),
        ("moe_forward_hierarchical_kpg2", _layer_case("hierarchical", None, k_per_group=2)),
        ("moe_forward_hierarchical_kpg2_inter_router",
         _layer_case("hierarchical", _inter, k_per_group=2)),
        # unimodal rows take k=2 of their group's 3 experts, the AV row 1 + 1
        ("moe_forward_hard", _layer_case("hard", None, n_per_group=3)),
        ("moe_forward_hard_intra_router",
         _layer_case("hard", lambda layer: layer.intra_routers[0], n_per_group=3)),
        ("moe_router_weights", _layer_case("sparse_topk", lambda layer: layer.router)),
    ],
    "losses": [
        ("load_balancing_through_P", _case_balance_through_P),
        ("load_biasing_through_Q", _case_bias_through_Q),
        ("load_biasing_router_weights", _case_bias_router_weights),
        ("router_z_through_router", _probe(
            lambda X, W: router_z_loss(T.router_softmaxes(X, [W])[0][0]),
            {"X": M, "W": (4, 4)})),
        ("total_aux_loss", _probe(_total_aux, {"X": (1, 4), "W": (4, 4), "f": (4,)})),
    ],
}


def run(module: str | None = None, seeds: int = DEFAULT_SEEDS,
        eps: float = EPS) -> dict[str, float]:
    """Max relative gradient error per case name over ``seeds`` seeds."""
    if module is not None and module not in CASES:
        raise ConfigError(f"unknown gradcheck module {module!r}; "
                          f"choose from {sorted(CASES)}")
    if seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {seeds}")
    selected = [module] if module is not None else sorted(CASES)
    results: dict[str, float] = {}
    for mod in selected:
        for name, builder in CASES[mod]:
            worst = 0.0
            for seed in range(seeds):
                f, x = builder(seed)
                worst = max(worst, grad_check(f, x, eps=eps))
            results[f"{mod}.{name}"] = worst
    return results
