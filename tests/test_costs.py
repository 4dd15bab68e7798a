"""Cost counts: what each training step and each decoded pair does, counted.

For every config of ``test_golden.py``, and for ``SUP_HIER`` (the
benchmark's supervised workload, whose inter routers take a larger step),
this counts, per training step: the tape nodes by op, the
``MoELayer.forward``, ``MoELayer.route`` and ``dispatch_stats`` calls, the
expert evaluations, the ``Encoder.encode`` calls (student and teacher), the
``teacher_targets`` calls, and the optimizer step's runs and the gradients
it copies into its staging vector (each one that backward did not leave in
its slice). Then it
counts the same after training (the post-train probes), and for a few eval
pairs decoded one ``eval_ter`` call each on a fresh model of the supervised
config, the route calls, decoded positions and ``Tensor`` objects of each
pair (``Tensor.__init__`` patched on the class). All of it must
equal ``costs.json`` beside this file exactly: the counts are deterministic,
so a change that adds a tape node, a second ``dispatch_stats`` call or one
more encode fails here even when every value it computes is unchanged.

The counts come from the outside, by patching ``tensor._make`` (the one
constructor of tape nodes) and the counted functions at the names their
callers look up. A tape node is named after the innermost public function
of ``avmoe.tensor`` that made it (``add`` for the node ``_binary`` makes).

A change that moves a count on purpose rewrites the file by running this
module as a script from the repository root::

    PYTHONPATH=src python tests/test_costs.py

With ``--compare`` it writes the counts to a temporary file instead, prints
each count that differs from ``costs.json`` with both values (runs of steps
that changed alike on one line), and leaves ``costs.json`` as it is::

    PYTHONPATH=src python tests/test_costs.py --compare
"""

import json
import sys
import tempfile
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest

import avmoe.model as model_mod
import avmoe.moe_layer as moe_layer
import avmoe.tensor as tensor
import avmoe.trainer as trainer
from avmoe.trainer import TrainConfig, build_model, eval_ter, train

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden import BASE, CONFIGS  # noqa: E402

COSTS = Path(__file__).resolve().parent / "costs.json"
EVAL_PAIRS = 4
# perfbench's sup_hier settings at the golden configs' length
SUP_HIER = {**BASE, "regime": "supervised_moe", "batch_size": 6, "modality_dropout": 0.25,
            "identical_expert_init": True, "inter_lr_scale": 10.0, "c_bias": 1e-2}
TRAINED = {**CONFIGS, "sup_hier": SUP_HIER}


def _op_name(frame) -> str:
    """The innermost public ``avmoe.tensor`` function on the stack above
    ``_make``, or the function outside the module that called it."""
    while frame.f_code.co_filename == tensor.__file__ and frame.f_code.co_name.startswith("_"):
        frame = frame.f_back
    return frame.f_code.co_name


class Counts:
    """Counters, cut into one segment per ``Tensor.backward`` call."""

    def __init__(self):
        self.now = Counter()
        self.steps: list[dict] = []

    def cut(self):
        self.steps.append(dict(sorted(self.now.items())))
        self.now = Counter()

    def add_to_last_step(self, key: str, n: int):
        """Count into the segment the last ``cut`` closed: an optimizer
        step runs after its step's backward."""
        step = Counter(self.steps[-1])
        step[key] += n
        self.steps[-1] = dict(sorted(step.items()))


def _install(mp, counts: Counts):
    """Patch the counted names for the duration of ``mp``."""
    def counted(owner, attr, key):
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            counts.now[key] += 1
            return fn(*args, **kwargs)
        mp.setattr(owner, attr, wrapped)

    make = tensor._make

    def counted_make(data, parents, backward):
        counts.now["node." + _op_name(sys._getframe(1))] += 1
        return make(data, parents, backward)
    mp.setattr(tensor, "_make", counted_make)

    forward = moe_layer.MoELayer.forward

    def counted_forward(self, X, *args, **kwargs):
        before = sum(self.eval_counts())
        out = forward(self, X, *args, **kwargs)
        counts.now["moe_forward"] += 1
        counts.now["expert_evals"] += sum(self.eval_counts()) - before
        return out
    mp.setattr(moe_layer.MoELayer, "forward", counted_forward)

    counted(moe_layer.MoELayer, "route", "route")
    counted(moe_layer, "dispatch_stats", "dispatch_stats")
    counted(trainer, "dispatch_stats", "dispatch_stats")
    counted(model_mod.Encoder, "encode", "encode")
    counted(trainer, "teacher_targets", "teacher_targets")

    decode = model_mod.Model._decode

    def counted_decode(self, features, token_ids, *args, **kwargs):
        counts.now["decode_positions"] += len(token_ids)
        return decode(self, features, token_ids, *args, **kwargs)
    mp.setattr(model_mod.Model, "_decode", counted_decode)

    live_runs = trainer._PackedOptimizer._live_runs

    def counted_live_runs(self):
        copies = sum(p.grad is not None and p.grad is not grad for p, _, grad, *_ in self._slots)
        runs = live_runs(self)
        counts.add_to_last_step("optimizer_copies", copies)
        counts.add_to_last_step("optimizer_runs", len(runs))
        return runs
    mp.setattr(trainer._PackedOptimizer, "_live_runs", counted_live_runs)

    backward = tensor.Tensor.backward

    def cut_backward(self):
        backward(self)
        counts.cut()
    mp.setattr(tensor.Tensor, "backward", cut_backward)


def training_costs(config: dict) -> dict:
    """Counts of each training step, and of what runs after the last."""
    counts = Counts()
    with pytest.MonkeyPatch.context() as mp:
        _install(mp, counts)
        train(TrainConfig.from_dict(config))
    return {"steps": counts.steps, "after_training": dict(sorted(counts.now.items()))}


def eval_costs() -> list[dict]:
    """Counts of each of ``EVAL_PAIRS`` pairs, one ``eval_ter`` call each, on
    a fresh model of the supervised config, with the ``Tensor`` objects each
    pair builds."""
    cfg = TrainConfig.from_dict(CONFIGS["supervised_moe"])
    model = build_model(cfg)
    counts = Counts()
    with pytest.MonkeyPatch.context() as mp:
        _install(mp, counts)
        init = tensor.Tensor.__init__

        def counted_init(self, *args, **kwargs):
            counts.now["tensors"] += 1
            init(self, *args, **kwargs)
        mp.setattr(tensor.Tensor, "__init__", counted_init)
        for seed in range(EVAL_PAIRS):
            eval_ter(model, cfg.generator, 1, "none", seed)
            counts.cut()
    return counts.steps


def costs() -> dict:
    return {**{name: training_costs(config) for name, config in sorted(TRAINED.items())},
            "eval_pairs": eval_costs()}


@pytest.fixture(scope="module")
def measured():
    return costs()


@pytest.mark.parametrize("name", [*sorted(TRAINED), "eval_pairs"])
def test_costs_match_the_committed_counts(measured, name):
    want = json.loads(COSTS.read_text())
    assert sorted(want) == sorted(measured)
    assert measured[name] == want[name]


def test_compare_lists_each_changed_count():
    """Steps that changed alike share a line; a count one side lacks reads None."""
    old = {"run": {"steps": [{"a": 1}, {"a": 1}, {"a": 1}, {"a": 1}],
                   "after_training": {"b": 2}},
           "eval_pairs": [{"t": 5}, {"t": 6}]}
    new = {"run": {"steps": [{"a": 1}, {"a": 0}, {"a": 0}, {"a": 1, "c": 3}],
                   "after_training": {"b": 3}},
           "eval_pairs": [{"t": 4}, {"t": 6}]}
    assert changed_counts(old, new) == ["eval_pairs pairs 0: t 5 -> 4",
                                        "run after_training: b 2 -> 3",
                                        "run steps 1-2: a 1 -> 0",
                                        "run steps 3: c None -> 3"]
    emptied = {**new, "run": {**new["run"], "steps": [{}, {}, {"c": 3}, {}]}}
    assert changed_counts(new, emptied) == ["run steps 1-2: a 0 -> None",
                                            "run steps 0,3: a 1 -> None",
                                            "run steps 3: c 3 -> None",
                                            "run steps 2: c None -> 3"]
    assert changed_counts(old, old) == []


def _counts_by_place(table: dict) -> dict:
    """(config, part, step or pair index, key) -> count of a costs table;
    the index is None for ``after_training``."""
    out = {}
    for name, entry in table.items():
        parts = ([("pairs", entry)] if name == "eval_pairs"
                 else [("steps", entry["steps"]), ("after_training", [entry["after_training"]])])
        for part, rows in parts:
            for i, row in enumerate(rows):
                out.update({(name, part, None if part == "after_training" else i, key): n
                            for key, n in row.items()})
    return out


def changed_counts(old: dict, new: dict) -> list[str]:
    """One line per count that differs between two costs tables: the config,
    the part, the steps (or pairs) it changed in alike, the key, and the old
    and new values (None where a side has no such count)."""
    a, b = _counts_by_place(old), _counts_by_place(new)
    diffs = []
    for place in a.keys() | b.keys():
        if a.get(place) != b.get(place):
            name, part, i, key = place
            diffs.append((name, part, key, a.get(place), b.get(place), i))
    # str() of the values, since None does not order against a count
    diffs.sort(key=lambda d: (*d[:3], str(d[3]), str(d[4]), -1 if d[5] is None else d[5]))
    lines = []
    for (name, part, key, before, after), run in groupby(diffs, key=lambda d: d[:5]):
        idx = [d[5] for d in run]
        if idx == [None]:
            where = ""
        elif len(idx) > 1 and idx == list(range(idx[0], idx[-1] + 1)):
            where = f" {idx[0]}-{idx[-1]}"
        else:
            where = " " + ",".join(map(str, idx))
        lines.append(f"{name} {part}{where}: {key} {before} -> {after}")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--compare"]:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "costs.json"
            path.write_text(json.dumps(costs(), indent=1) + "\n")
            lines = changed_counts(json.loads(COSTS.read_text()), json.loads(path.read_text()))
        print("\n".join(lines) or f"no count differs from {COSTS}")
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--compare]", file=sys.stderr)
        return 2
    COSTS.write_text(json.dumps(costs(), indent=1) + "\n")
    print(f"wrote {COSTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
