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
    decode_greedy; each name is looked up where the benchmark wraps it."""
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
    model.decode_greedy(feats, max_len=3)
    assert all(calls.values()), calls
