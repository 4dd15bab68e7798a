"""Training the two-level gate to split experts by modality.

With identical frozen experts and only the routers learning, the task loss
cannot prefer any gating pattern, so the modality-biasing auxiliary loss is
the lone force on the inter router. It steers audio-only tokens to the first
expert group and video-only tokens to the second. Once trained, the gate
also responds to noise: the dirtier the audio, the more weight the visual
group receives on audio-visual tokens.

Runs a shortened version of the acceptance configuration (about 30 s).
"""

import tempfile

from avmoe.metrics import spearman
from avmoe.trainer import (
    TrainConfig, eval_group_load_vs_snr, group_affinity, train,
)

STEPS = 600
cfg = TrainConfig.from_dict({
    "regime": "supervised_moe", "steps": STEPS, "batch_size": 6,
    "lr": 1e-3, "optimizer": "adam", "seed": 0, "modality_dropout": 0.25,
    "identical_expert_init": True, "freeze_experts_steps": STEPS,
    "router_warmup_steps": STEPS, "inter_lr_scale": 10.0, "c_bias": 1e-2,
    "model": {"moe": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 4,
                      "m": 2, "k_per_group": 1}},
    "generator": {"vocab": 16},
})

print(f"training routers for {STEPS} steps...")
with tempfile.TemporaryDirectory() as run_dir:
    report = train(cfg, run_dir)

aff = group_affinity(report.model, cfg.generator, pairs=12, seed=5)
print("inter-router weight on the matching group for unimodal tokens:")
for key, value in sorted(aff.items()):
    print(f"  {key}: {value:.3f}")
print("(0.5 means indifferent; the acceptance run reaches 0.99+)")

table = eval_group_load_vs_snr(report.model, cfg.generator,
                               [-10.0, -5.0, 0.0, 5.0, 10.0], pairs=8, seed=11)
print("visual-group weight on audio-visual tokens vs audio SNR:")
for snr, q, _ in table.rows:
    print(f"  {snr:+6.1f} dB: mean_qV = {q:.3f}")
rho = spearman(table.column("snr"), table.column("mean_qV"))
print(f"Spearman(snr, mean_qV) = {rho:+.3f} (monotone decrease expected)")
