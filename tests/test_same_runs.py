"""tools/same_runs.py: its configs are valid, and its diff names every file
that differs or exists on one side only."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_runs  # noqa: E402

from avmoe.trainer import REGIMES, TrainConfig  # noqa: E402


@pytest.mark.parametrize("name", sorted(same_runs.CONFIGS))
def test_config_is_valid(name):
    TrainConfig.from_dict({**same_runs.BASE, **same_runs.CONFIGS[name]})


def test_configs_cover_regimes_modes_freezes_optimizers_and_seeds():
    cfgs = [TrainConfig.from_dict({**same_runs.BASE, **over})
            for over in same_runs.CONFIGS.values()]
    assert {c.regime for c in cfgs} == set(REGIMES)
    assert {c.model.moe.mode for c in cfgs} == set(same_runs.MOE)
    assert {c.optimizer for c in cfgs} == {"sgd", "adam"}
    assert {c.seed for c in cfgs} >= {0, 1, 2}
    for knob in ("router_warmup_steps", "freeze_encoder_steps", "freeze_experts_steps"):
        assert any(getattr(c, knob) for c in cfgs), knob
    assert ("VCP", "MLM", "mACP", "ACP", "MASK", "AVCP", "mVCP") in {c.tasks for c in cfgs}
    # the packed optimizer's step-size groups meet a freeze under SGD too
    assert any(c.optimizer == "sgd" and c.inter_lr_scale != 1.0 and c.router_warmup_steps
               for c in cfgs)


def test_differing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_bytes(b"1,2\n")
    (a / "sub" / "x.json").write_bytes(b"{}")
    (b / "sub" / "x.json").write_bytes(b"{ }")
    (a / "only_a.csv").write_bytes(b"")
    n, diff = same_runs.differing_files(a, b)
    assert n == 3
    assert diff == ["only_a.csv", str(Path("sub") / "x.json")]
