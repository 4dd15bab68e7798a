"""Sparse top-k and hierarchical two-level routing, side by side.

Shows the selection a single token gets under each mode, the exact count of
expert MLP evaluations a batch triggers, and the FLOPs ledger that compares a
sparse layer against its dense equivalent.
"""

import numpy as np

from avmoe.moe_layer import MoELayer, MoELayerConfig, flops_report
from avmoe.routing import MOD_AV, RouterParams, route_hierarchical, route_sparse
from avmoe.tensor import Tensor

rng = np.random.default_rng(3)
d = 16
x = Tensor(rng.normal(size=(1, d)))  # routers take [tokens x d] batches

# Flat routing: softmax over 8 experts, keep the top 2, renormalize.
router = RouterParams.init(d, 8, rng, scale=0.5)
flat = route_sparse(router, x, k=2)
ids = flat.selected[0]
print("sparse top-2:")
print(f"  experts {ids.tolist()}, weights {np.round(flat.weights.data[0], 3)}")

# Two-level routing: an inter router picks m groups, then each chosen group
# runs its own argmax over 4 experts. The inter router starts at zero, so an
# untrained model splits its weight evenly across groups.
inter = RouterParams.zeros(d, 2)
intras = [RouterParams.init(d, 4, rng, scale=0.5) for _ in range(2)]
hier = route_hierarchical(inter, intras, x, m=2, k_per_group=1)
print("hierarchical m=2, top-1 per group:")
print(f"  group probabilities {np.round(hier.group_probs.data[0], 3)}")
# A routing keeps one weight per selected expert, in selection order.
for e, w in zip(hier.selected[0], hier.weights.data[0]):
    print(f"  group {e // 4}: flat expert {e}, combine weight {w:.3f}")

# The layer counts actual expert forward calls: exactly k per token when
# sparse, m * k_per_group per token when hierarchical.
batch = Tensor(rng.normal(size=(10, d)))
layer = MoELayer(MoELayerConfig(mode="sparse_topk", d=d, h=32, n_experts=8, k=2), rng)
layer.forward(batch)
print(f"sparse layer, 10 tokens: {sum(layer.eval_counts())} expert evaluations")

hlayer = MoELayer(MoELayerConfig(mode="hierarchical", d=d, h=32, n_groups=2,
                                 n_per_group=4, m=2, k_per_group=1), rng)
hlayer.forward(batch, modalities=[MOD_AV] * 10)
print(f"hierarchical layer, 10 tokens: {sum(hlayer.eval_counts())} expert evaluations")

report = flops_report(MoELayerConfig(mode="sparse_topk", d=32, h=64,
                                     n_experts=8, k=2), tokens=1000)
print("flops for 1000 tokens (sparse_topk, 8 experts, k=2):")
for key in ("dense_ffn_flops", "activated_flops", "total_param_flops", "ratio"):
    print(f"  {key}: {report[key]}")
