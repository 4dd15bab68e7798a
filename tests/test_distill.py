import itertools
import math

import numpy as np
import pytest

from avmoe import tensor as T
from avmoe.corruption import CorruptionPlan
from avmoe.distill import (
    MODE_A_ONLY, MODE_AV, MODE_MASKED, TASK_WEIGHTS, TASKS, DistillHeads, VariantError,
    cav2vec_total_loss, corrupted_frames, corrupted_prediction_loss, ema_update,
    eta_schedule, make_centroids, make_teacher, masked_prediction_loss, mlm_loss,
    nearest_centroid_ids, student_input, teacher_targets,
)
from avmoe.model import Model, ModelConfig
from avmoe.moe_layer import MoELayerConfig
from avmoe.tensor import Tensor
from avmoe.trainer import DivergenceError, TrainConfig, train

# the five corrupted-prediction tasks: every row of the table but MASK and MLM
VARIANTS = [name for name, task in TASKS.items() if task.input_mode != MODE_MASKED]


def tiny_model(seed=0):
    cfg = ModelConfig(dim_audio=4, dim_video=4, d=8, h=10, n_enc=2, n_dec=1,
                      vocab=4, max_len=16, moe=MoELayerConfig(mode="dense_ffn"))
    return Model(cfg, seed=seed)


def rand_pair(rng, t=6):
    return rng.normal(size=(t, 4)), rng.normal(size=(t, 4))


class TestEmaUpdate:
    def test_eta_one_teacher_unchanged(self):
        student = tiny_model(0)
        teacher = make_teacher(student, total_steps=10)
        before = [p.data.copy() for p in teacher.encoder.encoder_params()]
        for p in student.params():
            p.data += 1.0
        ema_update(teacher, student, eta=1.0)
        after = teacher.encoder.encoder_params()
        assert len(after) == len(before)
        for b, p in zip(before, after):
            assert np.array_equal(b, p.data)

    def test_eta_zero_copies_student(self):
        student = tiny_model(1)
        teacher = make_teacher(student, total_steps=10)
        for p in student.params():
            p.data += 0.5
        ema_update(teacher, student, eta=0.0)
        for sp, tp in zip(student.encoder_params(), teacher.encoder.encoder_params(),
                          strict=True):
            assert np.array_equal(sp.data, tp.data)

    def test_closed_form_convex_combination(self):
        student = tiny_model(2)
        teacher = make_teacher(student, total_steps=10)
        for p in teacher.encoder.encoder_params():
            p.data[:] = 1.0
        for p in student.params():
            p.data[:] = 0.0
        ema_update(teacher, student, eta=0.999)
        for p in teacher.encoder.encoder_params():
            assert np.allclose(p.data, 0.999, atol=1e-15)

    def test_teacher_is_a_copy_of_the_encoder(self):
        """The teacher holds the student's encoder parameters, by shape and
        value, in arrays of its own, and no decoder, token embedding or head;
        the EMA moves every one of them."""
        student = tiny_model(6)
        teacher = make_teacher(student, total_steps=10)
        encoder = teacher.encoder.encoder_params()
        assert ([p.data.shape for p in encoder]
                == [p.data.shape for p in student.encoder_params()])
        for tp, sp in zip(encoder, student.encoder_params()):
            assert np.array_equal(tp.data, sp.data)
        student_arrays = [p.data for p in student.params()]
        assert not any(np.shares_memory(tp.data, sa)
                       for tp in encoder for sa in student_arrays)
        for name in ("decoder_blocks", "token_emb", "head"):
            assert not hasattr(teacher.encoder, name), name
        for p in student.params():
            p.data += 0.25
        encoder_before = [p.data.copy() for p in encoder]
        ema_update(teacher, student, eta=0.3)
        assert not any(np.array_equal(p.data, b) for p, b in zip(encoder, encoder_before))

    def test_student_untouched(self):
        student = tiny_model(3)
        teacher = make_teacher(student, total_steps=10)
        snap = {name: p.data.copy() for name, p in student.named_params().items()}
        ema_update(teacher, student, eta=0.5)
        for name, p in student.named_params().items():
            assert np.array_equal(p.data, snap[name])

    def test_eta_out_of_range(self):
        student = tiny_model(4)
        teacher = make_teacher(student, total_steps=10)
        with pytest.raises(ValueError):
            ema_update(teacher, student, eta=1.5)


class TestEtaSchedule:
    def test_boundaries_and_midpoint(self):
        student = tiny_model(5)
        teacher = make_teacher(student, total_steps=100)
        teacher.current_step = 0
        assert eta_schedule(teacher) == pytest.approx(0.99)
        teacher.current_step = 100
        assert eta_schedule(teacher) == pytest.approx(0.999)
        teacher.current_step = 50
        assert eta_schedule(teacher) == pytest.approx(0.9945)

    def test_clamped_past_total(self):
        student = tiny_model(6)
        teacher = make_teacher(student, total_steps=10)
        teacher.current_step = 25
        assert eta_schedule(teacher) == pytest.approx(0.999)

    def test_monotone_nondecreasing(self):
        student = tiny_model(7)
        teacher = make_teacher(student, total_steps=40)
        values = []
        for s in range(41):
            teacher.current_step = s
            values.append(eta_schedule(teacher))
        assert all(b >= a for a, b in zip(values, values[1:]))


class _StubEncoder:
    """Encoder stand-in whose block b outputs the feature row
    ``block_rows[b]`` at every frame."""

    def __init__(self, block_rows):
        self.block_rows = [np.asarray(r, dtype=float) for r in block_rows]
        self.encoder_blocks = block_rows  # only len() is consulted

    def encode(self, A, V):
        # a list of [n x T x D] stacks runs as their rows laid end to end
        rows = (sum(a.shape[0] * a.shape[1] for a in A),) if isinstance(A, list) else A.shape[:-1]
        outs = [Tensor(np.broadcast_to(r, rows + r.shape).copy())
                for r in self.block_rows]
        return outs[-1], outs


def standardized(X, eps=1e-6):
    """Each row of X at zero mean and unit variance, as the teacher's
    targets are."""
    return (X - X.mean(axis=-1, keepdims=True)) / np.sqrt(X.var(axis=-1, keepdims=True) + eps)


class TestTeacherTargets:
    def test_topk1_equals_last_block(self):
        model = tiny_model(8)
        A, V = rand_pair(np.random.default_rng(8))
        _, per_block = model.encode(A, V)
        ((got,),) = teacher_targets(model, [(A, V, [MODE_AV])], topk_blocks=1)
        assert np.array_equal(got, standardized(per_block[-1].data))

    def test_identical_blocks_average_is_that_output(self):
        row = np.arange(8.0) ** 2
        stub = _StubEncoder([row, row])
        A = np.zeros((4, 4))
        ((got,),) = teacher_targets(stub, [(A, A, [MODE_AV])], topk_blocks=2)
        assert np.allclose(got, standardized(np.tile(row, (4, 1))), rtol=0, atol=1e-12)

    def test_two_constant_blocks_direct_average(self):
        first, second = np.arange(8.0), np.array([5.0, -1.0, 0.0, 2.0, 7.0, 3.0, 3.0, -4.0])
        stub = _StubEncoder([first, second])
        A = np.zeros((3, 4))
        ((got,),) = teacher_targets(stub, [(A, A, [MODE_AV])], topk_blocks=2)
        want = standardized(np.tile((first + second) / 2, (3, 1)))
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        # neither block alone gives those targets
        for row in (first, second):
            assert not np.allclose(got[0], standardized(row), rtol=0, atol=1e-3)

    def test_topk_zero_rejected(self):
        model = tiny_model(9)
        A, V = rand_pair(np.random.default_rng(9))
        with pytest.raises(ValueError):
            teacher_targets(model, [(A, V, [MODE_AV])], topk_blocks=0)

    def test_topk_beyond_depth_rejected(self):
        model = tiny_model(10)
        A, V = rand_pair(np.random.default_rng(10))
        with pytest.raises(ValueError):
            teacher_targets(model, [(A, V, [MODE_AV])], topk_blocks=3)

    def test_unimodal_mode_zeroes_other_modality(self):
        model = tiny_model(11)
        A, V = rand_pair(np.random.default_rng(11))
        ((t1,),) = teacher_targets(model, [(A, V, [MODE_A_ONLY])], 1)
        ((t2,),) = teacher_targets(model, [(A, np.zeros_like(V), [MODE_AV])], 1)
        assert np.array_equal(t1, t2)
        _, per_block = model.encode(A, np.zeros_like(V))
        assert np.array_equal(t1, standardized(per_block[-1].data))

    def test_standardized_rows_zero_mean(self):
        model = tiny_model(12)
        A, V = rand_pair(np.random.default_rng(12))
        ((got,),) = teacher_targets(model, [(A, V, [MODE_AV])], 2)
        assert np.allclose(got.mean(axis=1), 0.0, atol=1e-9)

    def test_targets_carry_no_gradient(self):
        model = tiny_model(13)
        A, V = rand_pair(np.random.default_rng(13))
        ((got,),) = teacher_targets(model, [(A, V, [MODE_AV])], 2)
        assert isinstance(got, np.ndarray)


def eye(d):
    return Tensor(np.eye(d))


class TestMaskedPredictionLoss:
    """Slices of a feature stack through an identity head (a product by the
    identity is exact)."""

    def test_empty_mask_rejected(self):
        out = Tensor(np.ones((1, 3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="no frames"):
            masked_prediction_loss(out, 0, np.zeros((3, 2)), [], eye(2))

    def test_student_equals_target_zero(self):
        vals = np.random.default_rng(14).normal(size=(4, 3))
        loss = masked_prediction_loss(Tensor(vals[None]), 0, vals.copy(), [0, 2], eye(3))
        assert float(loss.data) == 0.0

    def test_two_frame_direct_summation_oracle(self):
        student = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        target = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        stack = Tensor(np.stack([np.zeros_like(student), student]))
        loss = masked_prediction_loss(stack, 1, target, [0, 2], eye(2))
        want = np.mean((student[[0, 2]] - target[[0, 2]]) ** 2)
        assert float(loss.data) == pytest.approx(want, abs=1e-15)

    def test_out_of_range_mask_rejected(self):
        out = Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(IndexError):
            masked_prediction_loss(out, 0, np.zeros((2, 2)), [2], eye(2))

    def test_gradient_flows_to_student(self):
        out = Tensor(np.ones((2, 3, 2)), requires_grad=True)
        loss = masked_prediction_loss(out, 1, np.zeros((3, 2)), [1], eye(2))
        loss.backward()
        assert out.grad is not None
        assert not out.grad[0].any()
        assert np.array_equal(out.grad[1, 0], [0.0, 0.0])
        assert not np.array_equal(out.grad[1, 1], [0.0, 0.0])


class TestCorruptedPredictionLoss:
    def setup_method(self):
        rng = np.random.default_rng(15)
        self.A, self.V = rand_pair(rng, t=8)
        self.A_corr = self.A + 0.3 * rng.normal(size=self.A.shape)
        self.V_corr = self.V.copy()
        self.V_corr[2:5] = 0.0
        self.student = tiny_model(16)
        self.teacher = make_teacher(self.student, total_steps=1).encoder
        for p in self.teacher.encoder_params():
            p.data += 0.01  # distinct from the student
        self.head = Tensor(rng.normal(size=(8, 8)))

    def loss(self, name, plan):
        """The variant's loss on the student's features of its input (a stack
        of one), through the variant's head, against teacher targets of its
        target mode."""
        feats, _ = self.student.encode(*(x[None] for x in student_input(
            name, self.A_corr, self.V_corr)))
        ((targets,),) = teacher_targets(
            self.teacher, [(self.A, self.V, [TASKS[name].target_mode])], 1)
        return corrupted_prediction_loss(feats, 0, targets, corrupted_frames(name, plan),
                                         self.head)

    def direct(self, targets, A, V, frames):
        """The MSE over ``frames`` of the student's features of (A, V) through
        the head, in numpy."""
        feats, _ = self.student.encode(A, V)
        return np.mean(((feats.data @ self.head.data)[frames] - targets[frames]) ** 2)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            self.loss("AVCP", CorruptionPlan(seq_len=8))

    def test_acp_reduces_to_masked_prediction(self):
        plan = CorruptionPlan(seq_len=8, video_corrupt=np.array([2, 3, 4]))
        got = self.loss("ACP", plan)
        ((targets,),) = teacher_targets(self.teacher, [(self.A, self.V, [MODE_A_ONLY])], 1)
        want = self.direct(targets, np.zeros_like(self.A_corr), self.V_corr, [2, 3, 4])
        assert float(got.data) == pytest.approx(want, abs=1e-12)

    def test_all_variants_finite(self):
        plan = CorruptionPlan(seq_len=8, audio_corrupt=np.array([0, 1]),
                              video_corrupt=np.array([5, 6]))
        for name in VARIANTS:
            assert np.isfinite(float(self.loss(name, plan).data)), name

    def test_avcp_uses_union_of_indices(self):
        plan = CorruptionPlan(seq_len=8, audio_corrupt=np.array([1]),
                              video_corrupt=np.array([1, 4]))
        got = self.loss("AVCP", plan)
        ((targets,),) = teacher_targets(self.teacher, [(self.A, self.V, [MODE_AV])], 1)
        want = self.direct(targets, self.A_corr, self.V_corr, [1, 4])
        assert float(got.data) == pytest.approx(want, abs=1e-12)

    def test_unknown_variant(self):
        plan = CorruptionPlan(seq_len=8, audio_corrupt=np.array([1]))
        with pytest.raises(VariantError):
            corrupted_frames("XCP", plan)
        with pytest.raises(VariantError):
            student_input("XCP", self.A_corr, self.V_corr)

    def test_teacher_isolation_no_teacher_gradients(self):
        plan = CorruptionPlan(seq_len=8, video_corrupt=np.array([2, 3]))
        loss = self.loss("ACP", plan)
        loss.backward()
        for p in self.teacher.encoder_params():
            assert p.grad is None

    def test_fixed_teacher_bitwise_stable_targets(self):
        ((t1,),) = teacher_targets(self.teacher, [(self.A, self.V, [MODE_AV])], 2)
        ((t2,),) = teacher_targets(self.teacher, [(self.A, self.V, [MODE_AV])], 2)
        assert np.array_equal(t1, t2)


class TestMlmLoss:
    def test_confident_correct_head_near_zero(self):
        centroids = make_centroids(4, 8, seed=0)
        teacher_feats = centroids[[2, 0]] * 1.0
        student = Tensor(np.zeros((2, 8)))
        head = Tensor.param(np.zeros((8, 4)))
        # bias-free head cannot express this directly; use one-hot features
        student = Tensor(np.eye(8)[:2])
        head.data[0, 2] = 50.0
        head.data[1, 0] = 50.0
        loss = mlm_loss(student, centroids, teacher_feats, [0, 1], head)
        assert float(loss.data) < 1e-3

    def test_uniform_logits_ln_k(self):
        centroids = make_centroids(8, 16, seed=1)
        feats = np.random.default_rng(17).normal(size=(5, 16))
        loss = mlm_loss(Tensor(np.ones((5, 16))), centroids, feats,
                        [0, 1, 2], Tensor.param(np.zeros((16, 8))))
        assert float(loss.data) == pytest.approx(math.log(8), abs=1e-12)

    def test_nearest_centroid_linear_scan_oracle(self):
        rng = np.random.default_rng(18)
        centroids = rng.normal(size=(6, 5))
        points = rng.normal(size=(20, 5))
        got = nearest_centroid_ids(points, centroids)
        for i, p in enumerate(points):
            best, best_d = 0, float("inf")
            for j, c in enumerate(centroids):
                dist = float(((p - c) ** 2).sum())
                if dist < best_d:
                    best, best_d = j, dist
            assert got[i] == best

    def test_tie_prefers_lowest_id(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert nearest_centroid_ids(np.array([[0.0, 0.0]]), centroids)[0] == 0

    def test_empty_mask_rejected(self):
        centroids = make_centroids(3, 4, seed=2)
        with pytest.raises(ValueError, match="no frames"):
            mlm_loss(Tensor(np.zeros((2, 4))), centroids, np.zeros((2, 4)),
                     [], Tensor.param(np.zeros((4, 3))))

    def test_centroids_orthonormal(self):
        c = make_centroids(5, 12, seed=3)
        assert np.allclose(c @ c.T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("M", [[-1], [3], [0, 3]])
@pytest.mark.parametrize("loss", ["masked", "mlm"])
def test_frame_index_outside_the_sequence_rejected(loss, M):
    """Both losses check their frame indices alike: -1 does not wrap round
    to the last frame, and n is not left to numpy's indexing."""
    features = Tensor(np.zeros((3, 4)))
    with pytest.raises(IndexError, match=r"mask index outside \[0, 3\)"):
        if loss == "masked":
            masked_prediction_loss(Tensor(features.data[None]), 0, np.zeros((3, 4)), M, eye(4))
        else:
            mlm_loss(features, make_centroids(3, 4, seed=2), np.zeros((3, 4)), M,
                     Tensor.param(np.zeros((4, 3))))


class TestTotalLoss:
    @staticmethod
    def total(*values):
        """``cav2vec_total_loss`` of one term per column."""
        return cav2vec_total_loss(*([(Tensor(np.array(v)), 1.0)] for v in values))

    def test_reference_weights(self):
        total, means = self.total(0.5, 0.5, 1.0, 0.2)
        assert float(total.data) == pytest.approx(2.4, abs=1e-12)
        assert [float(m) for m in means] == [0.5, 0.5, 1.0, 0.2]

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a, v, m, c = rng.uniform(size=4)
            wa, wv, wm, wc = (TASK_WEIGHTS[k] for k in ("acp", "vcp", "mask", "mlm"))
            total, _ = self.total(a, v, m, c)
            assert abs(float(total.data) - (wa * a + wv * v + wm * m + wc * c)) < 1e-14

    def test_columns_are_means_of_shared_terms(self):
        """A loss with a half share in two columns, as AVCP's, and an empty
        column."""
        avcp, acp, vcp = (Tensor(np.array(v)) for v in (0.8, 0.4, 0.2))
        total, means = cav2vec_total_loss([(avcp, 0.5), (acp, 1.0)], [(avcp, 0.5), (vcp, 1.0)],
                                          [], [])
        assert [float(m) for m in means] == pytest.approx([0.4, 0.3, 0.0, 0.0], abs=1e-15)
        assert float(total.data) == pytest.approx(0.7, abs=1e-15)

    def test_non_finite_component_rejected(self, monkeypatch):
        """A NaN MLM loss ends an uptraining run at its first step, and the
        cause names its column."""
        monkeypatch.setattr("avmoe.trainer.mlm_loss", lambda *args: Tensor(float("nan")))
        cfg = TrainConfig.from_dict({"regime": "cav2vec_uptrain", "steps": 2, "batch_size": 2,
                                     "tasks": ["MASK", "MLM"]})
        with pytest.raises(DivergenceError) as exc:
            train(cfg)
        assert exc.value.step == 0 and isinstance(exc.value.__cause__, T.NumericError)
        assert "non-finite L_MLM" in str(exc.value.__cause__)


class TestHeads:
    def test_init_shapes(self):
        heads = DistillHeads.init(d=8, n_centroids=4, seed=0)
        assert list(heads.heads) == list(TASKS)
        for name, h in heads.heads.items():
            assert h.data.shape == ((8, 4) if name == "MLM" else (8, 8))
        assert [id(p) for p in heads.params()] == [id(h) for h in heads.heads.values()]

    def test_default_heads_keep_their_draws(self):
        """The six [d x d] heads, then MLM's [d x n_centroids], from one
        generator: the values every run has trained from."""
        rng = np.random.default_rng(3)
        scale = 1.0 / np.sqrt(8)
        want = {name: scale * rng.normal(size=(8, 8))
                for name in ("AVCP", "mACP", "mVCP", "ACP", "VCP", "MASK")}
        want["MLM"] = scale * rng.normal(size=(8, 4))
        heads = DistillHeads.init(d=8, n_centroids=4, seed=3)
        assert {name: h.data.tobytes() for name, h in heads.heads.items()} == \
               {name: w.tobytes() for name, w in want.items()}

    def test_every_task_set_keeps_the_default_heads(self):
        full = DistillHeads.init(d=4, n_centroids=3, seed=11)
        for k in range(len(TASKS) + 1):
            for tasks in itertools.permutations(TASKS, k):
                heads = DistillHeads.init(d=4, n_centroids=3, seed=11, tasks=tasks)
                assert tuple(heads.heads) == tasks
                assert [id(p) for p in heads.params()] == [id(h) for h in heads.heads.values()]
                for name, head in heads.heads.items():
                    assert head.data.tobytes() == full.heads[name].data.tobytes(), (tasks, name)

    def test_unknown_task_rejected(self):
        with pytest.raises(VariantError):
            DistillHeads.init(d=4, n_centroids=3, tasks=("MASK", "XYZ"))
