"""The three auxiliary router losses and their closed-form anchors.

Uniform top-1 frequencies with uniform mean probabilities give the balancing
loss its minimum value of 1.0; all-zero logits give the z-loss (ln n)^2; and
indifferent group statistics (everything 0.5) pin the modality-biasing loss
at 1.5. The second half nudges a router with gradient descent and watches
each loss fall.
"""

import math

import numpy as np

from avmoe import tensor as T
from avmoe.moe_losses import load_biasing_loss, router_z_loss
from avmoe.routing import (
    MOD_AUDIO, MOD_VIDEO, RouterParams, dispatch_stats, route_hierarchical,
)
from avmoe.tensor import Tensor

# load_balancing takes each expert group's [tokens x n] router probabilities
# and top-1 frequencies f; one token's probabilities are their own mean P.
n = 8
f = np.full(n, 1.0 / n)
P = Tensor(np.full((1, n), 1.0 / n))
print(f"balancing loss at uniform load (n={n}): {float(T.load_balancing([P], [f]).data):.6f}")
print(f"z-loss at zero logits (n={n}): {float(router_z_loss(Tensor(np.zeros((4, n)))).data):.6f}"
      f"  [(ln {n})^2 = {math.log(n) ** 2:.6f}]")

# A skewed router: push everything through expert 0 and the loss exceeds 1.
skew_f = np.zeros(n)
skew_f[0] = 1.0
skew_P = np.full((1, n), 0.02)
skew_P[0, 0] = 1.0 - 0.02 * (n - 1)
print(f"balancing loss when one expert hogs the batch: "
      f"{float(T.load_balancing([Tensor(skew_P)], [skew_f]).data):.3f}")

# Drive the biasing loss down by training only the inter router on tokens
# whose modality it should learn to respect.
rng = np.random.default_rng(0)
d = 12
inter = RouterParams.init(d, 2, rng, scale=0.01)
intras = [RouterParams.init(d, 4, rng) for _ in range(2)]
audio_dir = rng.normal(size=d)
video_dir = rng.normal(size=d)

for step in range(200):
    rows, modalities = [], []
    for _ in range(8):
        if rng.uniform() < 0.5:
            x, tag = audio_dir + 0.3 * rng.normal(size=d), MOD_AUDIO
        else:
            x, tag = video_dir + 0.3 * rng.normal(size=d), MOD_VIDEO
        rows.append(x)
        modalities.append(tag)
    routing = route_hierarchical(inter, intras, Tensor(np.stack(rows)), m=2,
                                 modalities=modalities)
    stats = dispatch_stats(routing)
    loss = load_biasing_loss(stats)
    loss.backward()
    inter.weight.data -= 0.5 * inter.weight.grad
    inter.weight.zero_grad()
    if step % 50 == 0 or step == 199:
        print(f"step {step:3d}: biasing loss {float(loss.data):.4f}")

print("a trained inter router sends audio tokens to group 0 and video to group 1;")
print("the loss approaches 0 as both matched weights approach 1.")
