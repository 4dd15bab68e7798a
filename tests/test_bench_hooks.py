"""The benchmark in perfbench/ wraps avmoe functions by name from outside the
package; every name it looks up must still resolve to a callable with the
signature its wrapper assumes."""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", tracing.SPANS,
                         ids=[f"{o.__name__}.{a}" for o, a, _ in tracing.SPANS])
def test_span_targets_resolve(owner, attr, span):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("owner, caller", tracing.DISPATCH_CALLERS)
def test_dispatch_stats_resolves_in_each_caller(owner, caller):
    assert callable(owner.dispatch_stats)


def test_wrapped_signatures():
    import avmoe.model as model_mod
    import avmoe.tensor as tensor
    assert list(inspect.signature(model_mod.Model.decode_step).parameters) == [
        "self", "features", "token_ids", "modality"]
    assert list(inspect.signature(tensor._make).parameters) == [
        "data", "parents", "backward"]


def test_greedy_decoding_calls_the_wrapped_layers(monkeypatch):
    """The eval_decode workload expects these spans to fire inside
    decode_greedy; each name is looked up where the benchmark wraps it.
    Routing and dispatch statistics run exactly once per MoE layer call, so
    a change that skips or doubles either one fails here first."""
    import numpy as np

    import avmoe.moe_layer as moe_layer
    from avmoe import tensor as T
    from avmoe.model import DecoderBlock, Model, ModelConfig

    targets = [(DecoderBlock, "forward"), (moe_layer.MoELayer, "forward"),
               (moe_layer.MoELayer, "combine"), (moe_layer.MoELayer, "router_logit_rows"),
               (moe_layer, "dispatch_stats"), (moe_layer, "route_hierarchical")]
    calls = {}
    for owner, attr in targets:
        name = f"{owner.__name__}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    cfg = ModelConfig(dim_audio=4, dim_video=4, d=8, h=8, n_enc=1, topk_blocks=1,
                      vocab=6, moe=moe_layer.MoELayerConfig(mode="hierarchical"))
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(0)
    with T.no_grad():
        feats, _ = model.encode(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
    model.decode_greedy(feats, [3], feature_lengths=[5])
    assert all(calls.values()), calls
    layer_calls = calls["MoELayer.forward"]
    assert calls["avmoe.moe_layer.route_hierarchical"] == layer_calls, calls
    assert calls["avmoe.moe_layer.dispatch_stats"] == layer_calls, calls


@pytest.mark.parametrize("mode, fields", [
    ("sparse_topk", {"n_experts": 5, "k": 2}),
    ("hard", {"n_groups": 2, "n_per_group": 3, "k": 2}),
    ("hierarchical", {"n_groups": 2, "n_per_group": 3, "m": 2, "k_per_group": 1}),
    ("hierarchical", {"n_groups": 3, "n_per_group": 3, "m": 2, "k_per_group": 2}),
], ids=["sparse_topk", "hard", "hierarchical_kpg1", "hierarchical_kpg2"])
def test_counted_flops_equal_the_ledger(mode, fields):
    """The benchmark's ledger gate prices each layer call from the router
    attributes it reads (``router``, ``inter_router``, ``intra_routers`` and
    each one's weight size) and the counted expert evaluations; that must
    equal ``flops_report``'s activated FLOPs, or every routed run fails the
    gate."""
    import numpy as np

    from avmoe.moe_layer import MoELayer, MoELayerConfig, flops_report
    from avmoe.routing import MODALITIES
    from avmoe.tensor import Tensor

    rng = np.random.default_rng(0)
    layer = MoELayer(MoELayerConfig(mode=mode, d=6, h=5, **fields), rng)
    tokens = 7
    before = sum(layer.eval_counts())
    layer.forward(Tensor(rng.normal(size=(tokens, 6))), [MODALITIES[i % 3] for i in range(tokens)])
    evals = sum(layer.eval_counts()) - before
    assert (tracing.counted_flops(layer, tokens, evals)
            == flops_report(layer.cfg, tokens)["activated_flops"])


@pytest.mark.parametrize("workload", ["sup_hier", "uptrain_long"])
def test_every_tape_node_comes_from_make(workload, monkeypatch):
    """``tensor.tape_nodes`` counts the calls of ``tensor._make``, so every
    interior node reachable from a training step's loss must have been built
    there: an op that built its own node would escape the count."""
    import worker
    from avmoe import tensor as T
    from avmoe.trainer import TrainConfig, train

    config = {"sup_hier": worker.sup_hier_config,
              "uptrain_long": worker.uptrain_long_config}[workload]
    made, interior_per_step = set(), []
    make, backward = T._make, T.Tensor.backward

    def recorded_make(data, parents, backward):
        node = make(data, parents, backward)
        made.add(node)
        return node

    def checked_backward(self):
        stack, seen = [self], set()
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(node._parents)
        interior = [node for node in seen if node._parents]
        assert all(node in made for node in interior)
        interior_per_step.append(len(interior))
        backward(self)
    monkeypatch.setattr(T, "_make", recorded_make)
    monkeypatch.setattr(T.Tensor, "backward", checked_backward)
    train(TrainConfig.from_dict(config(seed=1, steps=2, eval_pairs=1)))
    assert len(interior_per_step) == 2 and min(interior_per_step) > 0


@pytest.mark.parametrize("workload, regime", [("sup_hier", "supervised_moe"),
                                              ("uptrain_long", "cav2vec_uptrain")])
def test_training_calls_adam_step_once_per_step(workload, regime, monkeypatch):
    """The benchmark's ``trainer.optimizer`` span wraps ``Adam.step`` on its
    class, so ``train()`` must look the method up there, once per step."""
    import worker
    from avmoe import trainer

    config = {"sup_hier": worker.sup_hier_config,
              "uptrain_long": worker.uptrain_long_config}[workload]
    cfg = config(seed=1, steps=3, eval_pairs=1)
    assert cfg["regime"] == regime and cfg["optimizer"] == "adam"
    calls, step = [], trainer.Adam.step

    def counted(self, *args, **kwargs):
        calls.append(self)
        return step(self, *args, **kwargs)
    monkeypatch.setattr(trainer.Adam, "step", counted)
    trainer.train(trainer.TrainConfig.from_dict(cfg))
    assert len(calls) == 3 and len(set(map(id, calls))) == 1


@pytest.mark.parametrize("workload", ["sup_hier", "uptrain_long", "eval_decode"])
def test_benchmark_setup_builds_each_workload(workload, capsys):
    """The benchmark's set-up path loads each workload config with
    ``TrainConfig.from_dict`` and builds its models, teacher, heads and
    centroids through the package's own signatures."""
    import json
    import time

    import worker

    assert worker.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                        "--trace", "0", "--spawned-at", str(time.monotonic()),
                        "--setup-only"]) == 0
    setup = json.loads(capsys.readouterr().out)
    assert setup["setup_s"] >= 0.0 and setup["setup_ref_s"] > 0.0
