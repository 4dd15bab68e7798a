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
