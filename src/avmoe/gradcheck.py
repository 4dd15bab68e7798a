"""Finite-difference verification harness for every differentiable exported
operation, grouped by module for selective runs from the CLI. Every public
op of ``avmoe.tensor`` but ``tsum``, which ends every case, has a "tensor"
case named after it or prefixed ``<op>_``, and ``tests/test_tensor.py``
checks that it does.

Each case owns a builder that, given a seed, returns (f, x) where f maps a
Tensor to a scalar Tensor; `run` reports the max relative error per case
across seeds. Gradients are checked with respect to inputs, weights, and
probability paths (P/Q) alike by making the probe tensor play those roles.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor as T
from .moe_layer import ExpertFFN, MoELayer, MoELayerConfig
from .moe_losses import (
    load_balancing_from_stats, load_balancing_loss, load_biasing_loss,
    router_z_loss, total_aux_loss,
)
from .routing import (
    MOD_AUDIO, MOD_AV, MOD_VIDEO, RouterParams, dispatch_stats, route_dense,
    route_sparse,
)
from .tensor import Tensor, grad_check
from .trainer import ConfigError

DEFAULT_SEEDS = 20
TOLERANCE = 1e-4
EPS = 1e-4


def _rng(seed):
    return np.random.default_rng(seed)


def _vec(seed, n=6):
    return Tensor(_rng(seed).normal(size=n))


def _mat(seed, r=3, c=4):
    return Tensor(_rng(seed).normal(size=(r, c)))


def _stack(seed, n=2, r=3, c=4):
    return Tensor(_rng(seed).normal(size=(n, r, c)))


# -- tensor primitive cases ---------------------------------------------------

def _case_add(seed):
    b = _mat(seed + 1000)
    return lambda t: T.tsum(T.add(t, b)), _mat(seed)


def _case_sub(seed):
    b = _mat(seed + 1000)
    return lambda t: T.tsum(T.mul(T.sub(t, b), T.sub(t, b))), _mat(seed)


def _case_mul(seed):
    b = _mat(seed + 1000)
    return lambda t: T.tsum(T.mul(t, b)), _mat(seed)


def _case_scale(seed):
    return lambda t: T.tsum(T.scale(t, -1.7)), _mat(seed)


def _case_matmul(seed):
    b = _mat(seed + 1000, 4, 3)
    return lambda t: T.tsum(T.matmul(t, b)), _mat(seed)


def _case_matmul_stacked(seed):
    b, w = _mat(seed + 1000, 4, 3), _stack(seed + 2000, 2, 3, 3)
    return lambda t: T.tsum(T.mul(T.matmul(t, b), w)), _stack(seed)


def _case_matmul_stacked_right(seed):
    a, w = _stack(seed + 1000), _stack(seed + 2000, 2, 3, 3)
    return lambda t: T.tsum(T.mul(T.matmul(a, t), w)), _mat(seed, 4, 3)


def _case_tmean(seed):
    return lambda t: T.tmean(T.mul(t, t)), _mat(seed)


def _case_mean_axis0(seed):
    w = _vec(seed + 1000, 4)
    return lambda t: T.tsum(T.mul(T.mean_axis0(t), w)), _mat(seed)


def _case_gelu(seed):
    return lambda t: T.tsum(T.gelu(t)), _mat(seed)


def _case_softmax(seed):
    w = _vec(seed + 1000)
    return lambda t: T.tsum(T.mul(T.softmax(t), w)), _vec(seed)


def _case_softmax_rows(seed):
    w = _mat(seed + 1000)
    return lambda t: T.tsum(T.mul(T.softmax(t), w)), _mat(seed)


def _case_normalize_rows(seed):
    w = _mat(seed + 1000)
    x = np.abs(_rng(seed).normal(size=(3, 4))) + 0.5
    return lambda t: T.tsum(T.mul(T.normalize_rows(t), w)), Tensor(x)


def _case_logsumexp(seed):
    return lambda t: T.tsum(T.logsumexp(t)), _mat(seed)


def _case_mse(seed):
    target = _mat(seed + 1000)
    return lambda t: T.mse(t, target), _mat(seed)


def _case_cross_entropy_rows(seed):
    ids = [int(i) for i in _rng(seed + 1000).integers(0, 4, size=3)]
    return lambda t: T.cross_entropy_rows(t, ids), _mat(seed)


def _case_cross_entropy_rows_weighted(seed):
    rng = _rng(seed + 1000)
    ids = [int(i) for i in rng.integers(0, 4, size=3)]
    w = rng.uniform(0.1, 1.0, size=3)
    return lambda t: T.cross_entropy_rows(t, ids, row_weights=w), _mat(seed)


def _case_index_rows(seed):
    return lambda t: T.tsum(T.mul(T.index_rows(t, [0, 2, 0]),
                                  T.index_rows(t, [0, 2, 0]))), _mat(seed)


def _case_take(seed):
    return lambda t: T.tsum(T.mul(T.take(t, [1, 3, 1]), T.take(t, [0, 2, 2]))), _vec(seed)


def _case_scatter(seed):
    w = _mat(seed + 1000, 4, 5)
    idx = np.array([[0, 7, 19], [3, 3, 12], [5, 11, 18]])
    return lambda t: T.tsum(T.mul(T.scatter(t, idx, (4, 5)), w)), _mat(seed, 3, 3)


def _case_concat_cols(seed):
    b = _mat(seed + 1000, 3, 2)
    return lambda t: T.tmean(T.mul(T.concat_cols([t, b]),
                                   T.concat_cols([t, b]))), _mat(seed)


def _case_concat_cols_stacked(seed):
    b = _stack(seed + 1000, 2, 3, 2)
    return lambda t: T.tmean(T.mul(T.concat_cols([t, b]),
                                   T.concat_cols([t, b]))), _stack(seed)


def _case_stack_slice(seed):
    w = _mat(seed + 1000)
    return lambda t: T.tsum(T.mul(T.mul(T.stack_slice(t, 1), w),
                                  T.stack_slice(t, 0))), _stack(seed)


def _case_standardize(seed):
    w = _mat(seed + 1000)
    return lambda t: T.tsum(T.mul(T.standardize_rows(t), w)), _mat(seed)


def _case_standardize_residual(seed):
    w, residual = _mat(seed + 1000), _mat(seed + 2000)
    return lambda t: T.tsum(T.mul(T.standardize_rows(t, residual), w)), _mat(seed)


def _case_standardize_residual_operand(seed):
    w, a = _mat(seed + 1000), _mat(seed + 2000)
    return lambda t: T.tsum(T.mul(T.standardize_rows(a, t), w)), _mat(seed)


def _case_standardize_stacked_residual(seed):
    w, residual = _stack(seed + 1000), _stack(seed + 2000)
    return lambda t: T.tsum(T.mul(T.standardize_rows(t, residual), w)), _stack(seed)


def _case_attention(seed):
    rng = _rng(seed + 1000)
    K = Tensor(rng.normal(size=(5, 4)))
    V = Tensor(rng.normal(size=(5, 4)))
    return lambda t: T.tsum(T.attention(t, K, V)), _mat(seed)


def _case_attention_masked(seed):
    """Block-diagonal mask of two packed segments, rows 0-1 and row 2."""
    rng = _rng(seed + 1000)
    K = Tensor(rng.normal(size=(5, 4)))
    V = Tensor(rng.normal(size=(5, 4)))
    same = np.array([0, 0, 1])[:, None] == np.array([0, 0, 0, 1, 1])[None, :]
    mask = np.where(same, 0.0, -np.inf)
    return lambda t: T.tsum(T.attention(t, K, V, mask=mask)), _mat(seed)


def _case_attention_keys(seed):
    rng = _rng(seed + 1000)
    Q = Tensor(rng.normal(size=(3, 4)))
    V = Tensor(rng.normal(size=(5, 4)))
    return lambda t: T.tsum(T.attention(Q, t, V)), _mat(seed, 5, 4)


def _case_attention_values(seed):
    rng = _rng(seed + 1000)
    Q = Tensor(rng.normal(size=(3, 4)))
    K = Tensor(rng.normal(size=(5, 4)))
    w = Tensor(rng.normal(size=(3, 4)))
    return lambda t: T.tsum(T.mul(T.attention(Q, K, t), w)), _mat(seed, 5, 4)


def _stacked_attention_case(operand):
    """``attention`` of [2 x T x 4] stacks with respect to Q, K or V."""
    def build(seed):
        rng = _rng(seed + 1000)
        ops = {"Q": rng.normal(size=(2, 3, 4)), "K": rng.normal(size=(2, 5, 4)),
               "V": rng.normal(size=(2, 5, 4))}
        w = Tensor(rng.normal(size=(2, 3, 4)))

        def f(t):
            args = [t if name == operand else Tensor(v) for name, v in ops.items()]
            return T.tsum(T.mul(T.attention(*args), w))

        return f, Tensor(ops[operand])
    return build


_FFN_OPERANDS = ("x", "W1", "b1", "W2", "b2")


def _ffn_case(operand, x_shape=(3, 4)):
    """``ffn`` with respect to one operand."""
    def build(seed):
        rng = _rng(seed + 1000)
        ops = {"x": rng.normal(size=x_shape), "W1": rng.normal(size=(4, 5)),
               "b1": rng.normal(size=5), "W2": rng.normal(size=(5, 4)),
               "b2": rng.normal(size=4)}
        w = Tensor(rng.normal(size=x_shape))

        def f(t):
            args = {name: t if name == operand else Tensor(v) for name, v in ops.items()}
            out = T.ffn(*(args[name] for name in _FFN_OPERANDS))
            return T.tsum(T.mul(out, w))

        return f, Tensor(ops[operand])
    return build


_MOE_COMBINE_OPERANDS = ("X", "weights", "W1", "b1", "W2", "b2")


def _moe_combine_case(operand):
    """``moe_combine`` with respect to one operand: 4 rows take 2 of 3
    experts each, and the parameter operands are those of expert 1, which
    rows 0 and 2 select."""
    def build(seed):
        rng = _rng(seed + 1000)
        selected = np.array([[0, 1], [2, 0], [1, 2], [0, 2]])
        ops = {"X": rng.normal(size=(4, 3)), "weights": rng.uniform(0.1, 1.0, size=(4, 2))}
        experts = [{"W1": rng.normal(size=(3, 5)), "b1": rng.normal(size=5),
                    "W2": rng.normal(size=(5, 3)), "b2": rng.normal(size=3)}
                   for _ in range(3)]
        w = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            args = {name: t if name == operand else Tensor(v) for name, v in ops.items()}
            params = [tuple(t if (e == 1 and name == operand) else Tensor(v)
                            for name, v in expert.items())
                      for e, expert in enumerate(experts)]
            out = T.moe_combine(args["X"], args["weights"], selected, params)
            return T.tsum(T.mul(out, w))

        probe = ops[operand] if operand in ops else experts[1][operand]
        return f, Tensor(probe)
    return build


def _router_softmaxes_case(operand):
    """``router_softmaxes`` of three [4 x 3] routers over 5 rows, with respect
    to X or to the second router, through both the logits and the probs."""
    def build(seed):
        rng = _rng(seed + 1000)
        X, Ws = rng.normal(size=(5, 4)), [rng.normal(size=(4, 3)) for _ in range(3)]
        upstream = [Tensor(rng.normal(size=(5, 3))) for _ in range(6)]

        def f(t):
            weights = [t if (operand == "W" and g == 1) else Tensor(W)
                       for g, W in enumerate(Ws)]
            logits, probs, _ = T.router_softmaxes(t if operand == "X" else Tensor(X), weights)
            products = [T.mul(a, u) for a, u in zip(logits + probs, upstream)]
            return T.tsum(T.concat_cols(products))

        return f, Tensor(X if operand == "X" else Ws[1])
    return build


# -- MoE layer cases ----------------------------------------------------------

def _case_expert_forward(seed):
    expert = ExpertFFN.init(4, 6, _rng(seed + 1000))
    return lambda t: T.tsum(expert.forward(t)), _mat(seed)


def _case_expert_weights(seed):
    rng = _rng(seed + 1000)
    expert = ExpertFFN.init(4, 6, rng)
    x = Tensor(rng.normal(size=(3, 4)))

    def f(t):
        expert.W1 = t
        return T.tsum(expert.forward(x))

    return f, _mat(seed, 4, 6)


def _moe_layer(seed, mode, k_per_group=1, n_per_group=2):
    cfg = MoELayerConfig(mode=mode, d=4, h=6, n_experts=4, k=2,
                         n_groups=2, n_per_group=n_per_group, m=2, k_per_group=k_per_group)
    return MoELayer(cfg, _rng(seed + 1000))


def _case_moe_forward_sparse(seed):
    layer = _moe_layer(seed, "sparse_topk")
    return lambda t: T.tsum(layer.forward(t)[0]), _mat(seed)


def _case_moe_forward_hier(seed, k_per_group=1):
    layer = _moe_layer(seed, "hierarchical", k_per_group)
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV]
    return lambda t: T.tsum(layer.forward(t, modalities=tags)[0]), _mat(seed)


def _case_moe_forward_hier_inter(seed, k_per_group=1):
    # the q~ combine path: layer output through the inter-router weights
    layer = _moe_layer(seed, "hierarchical", k_per_group)
    x = Tensor(_rng(seed + 2000).normal(size=(3, 4)))
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV]

    def f(t):
        layer.inter_router.weight = t
        return T.tsum(layer.forward(x, modalities=tags)[0])

    return f, _mat(seed, 4, 2)


def _case_moe_forward_hard(seed):
    # unimodal rows take k=2 of their group's 3 experts, the AV row 1 + 1
    layer = _moe_layer(seed, "hard", n_per_group=3)
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV]
    return lambda t: T.tsum(layer.forward(t, modalities=tags)[0]), _mat(seed)


def _case_moe_forward_hard_intra(seed):
    # the scattered, 0.5-shared and added combine weights through the
    # audio group's intra router
    layer = _moe_layer(seed, "hard", n_per_group=3)
    x = Tensor(_rng(seed + 2000).normal(size=(3, 4)))
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV]

    def f(t):
        layer.intra_routers[0].weight = t
        return T.tsum(layer.forward(x, modalities=tags)[0])

    return f, _mat(seed, 4, 3)


def _case_moe_router_weights(seed):
    layer = _moe_layer(seed, "sparse_topk")
    x = Tensor(_rng(seed + 2000).normal(size=(3, 4)))

    def f(t):
        layer.router.weight = t
        return T.tsum(layer.forward(x)[0])

    return f, _mat(seed, 4, 4)


# -- loss cases with gradient paths through P/Q -------------------------------

def _sparse_stats(layer, X):
    return dispatch_stats(route_sparse(layer.router, X, layer.cfg.k))


def _case_balance_through_P(seed):
    layer = _moe_layer(seed, "sparse_topk")
    return lambda t: load_balancing_from_stats(_sparse_stats(layer, t)), _mat(seed)


def _case_balance_direct(seed):
    f = np.abs(_rng(seed + 1000).normal(size=4))
    f /= f.sum()
    return lambda t: load_balancing_loss(f, T.softmax(t)), _vec(seed, 4)


def _hier_stats(layer, X, tags):
    return dispatch_stats(layer.route(X, tags))


def _case_bias_through_Q(seed):
    layer = _moe_layer(seed, "hierarchical")
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV]
    return lambda t: load_biasing_loss(_hier_stats(layer, t, tags)), _mat(seed)


def _case_bias_router_weights(seed):
    layer = _moe_layer(seed, "hierarchical")
    x = Tensor(_rng(seed + 2000).normal(size=(4, 4)))
    tags = [MOD_AUDIO, MOD_VIDEO, MOD_AUDIO, MOD_VIDEO]

    def f(t):
        layer.inter_router.weight = t
        return load_biasing_loss(_hier_stats(layer, x, tags))

    return f, _mat(seed, 4, 2)


def _case_z_loss(seed):
    return lambda t: router_z_loss(t), _mat(seed)


def _case_z_loss_weighted(seed):
    w = _rng(seed + 1000).uniform(0.1, 1.0, size=3)
    return lambda t: router_z_loss(t, row_weights=w), _mat(seed)


def _case_z_through_router(seed):
    router = RouterParams.init(4, 4, _rng(seed + 1000))
    return lambda t: router_z_loss(route_dense(router, t)[0]), _mat(seed)


def _case_total_aux(seed):
    rng = _rng(seed + 1000)
    f = np.abs(rng.normal(size=4))
    f /= f.sum()

    def f_total(t):
        probs = T.mean_axis0(T.softmax(t))
        ce = T.tmean(T.mul(t, t))
        balance = load_balancing_loss(f, probs)
        z = router_z_loss(t)
        return total_aux_loss(ce, balance, Tensor(0.0), z).total

    return f_total, _mat(seed, 1, 4)


CASES = {
    "tensor": [
        ("add", _case_add), ("sub", _case_sub), ("mul", _case_mul),
        ("scale", _case_scale), ("matmul", _case_matmul),
        ("matmul_stacked", _case_matmul_stacked),
        ("matmul_stacked_right", _case_matmul_stacked_right),
        ("tmean", _case_tmean), ("mean_axis0", _case_mean_axis0),
        ("gelu", _case_gelu),
        ("softmax", _case_softmax), ("softmax_rows", _case_softmax_rows),
        ("normalize_rows", _case_normalize_rows),
        ("logsumexp", _case_logsumexp), ("mse", _case_mse),
        ("cross_entropy_rows", _case_cross_entropy_rows),
        ("cross_entropy_rows_weighted", _case_cross_entropy_rows_weighted),
        ("index_rows", _case_index_rows), ("take", _case_take),
        ("scatter", _case_scatter), ("concat_cols", _case_concat_cols),
        ("concat_cols_stacked", _case_concat_cols_stacked),
        ("stack_slice", _case_stack_slice),
        ("standardize_rows", _case_standardize),
        ("standardize_rows_residual", _case_standardize_residual),
        ("standardize_rows_residual_operand", _case_standardize_residual_operand),
        ("standardize_rows_stacked_residual", _case_standardize_stacked_residual),
        ("attention", _case_attention), ("attention_masked", _case_attention_masked),
        ("attention_keys", _case_attention_keys), ("attention_values", _case_attention_values),
        *((f"attention_stacked_{operand}", _stacked_attention_case(operand))
          for operand in ("Q", "K", "V")),
        *((f"ffn_gelu_{operand}", _ffn_case(operand)) for operand in _FFN_OPERANDS),
        *((f"ffn_stacked_gelu_{operand}", _ffn_case(operand, x_shape=(2, 3, 4)))
          for operand in _FFN_OPERANDS),
        *((f"moe_combine_{operand}", _moe_combine_case(operand))
          for operand in _MOE_COMBINE_OPERANDS),
        *((f"router_softmaxes_{operand}", _router_softmaxes_case(operand))
          for operand in ("X", "W")),
    ],
    "moe": [
        ("expert_forward", _case_expert_forward),
        ("expert_forward_weights", _case_expert_weights),
        ("moe_forward_sparse", _case_moe_forward_sparse),
        ("moe_forward_hierarchical", _case_moe_forward_hier),
        ("moe_forward_hierarchical_inter_router", _case_moe_forward_hier_inter),
        ("moe_forward_hierarchical_kpg2", partial(_case_moe_forward_hier, k_per_group=2)),
        ("moe_forward_hierarchical_kpg2_inter_router",
         partial(_case_moe_forward_hier_inter, k_per_group=2)),
        ("moe_forward_hard", _case_moe_forward_hard),
        ("moe_forward_hard_intra_router", _case_moe_forward_hard_intra),
        ("moe_router_weights", _case_moe_router_weights),
    ],
    "losses": [
        ("load_balancing_through_P", _case_balance_through_P),
        ("load_balancing_direct", _case_balance_direct),
        ("load_biasing_through_Q", _case_bias_through_Q),
        ("load_biasing_router_weights", _case_bias_router_weights),
        ("router_z_loss", _case_z_loss),
        ("router_z_loss_weighted", _case_z_loss_weighted),
        ("router_z_through_router", _case_z_through_router),
        ("total_aux_loss", _case_total_aux),
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
