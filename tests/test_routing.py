import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avmoe import tensor as T
from avmoe.moe_layer import MoELayer, MoELayerConfig
from avmoe.moe_losses import load_balancing_from_stats, load_biasing_loss
from avmoe.routing import (
    MOD_AUDIO, MOD_AV, MOD_VIDEO, MODALITIES, DispatchStats, RouterParams, Routing,
    RoutingConfigError, dispatch_stats, route_hard, route_hierarchical, route_sparse,
    select_topk,
)
from avmoe.tensor import ShapeError, Tensor
from chains import (
    chain_load_balancing, chain_load_biasing, chain_mean_probs, concat_rows, router_slices,
)


def make_router(d, n, seed=0, scale=1.0):
    """One [d x n] router."""
    rng = np.random.default_rng(seed)
    return RouterParams(Tensor.param(scale * rng.normal(size=(d, n))))


def family(*routers):
    """The routers' weights as one [G x d x n] family."""
    return RouterParams(Tensor.param(np.stack([r.weight.data for r in routers])))


def row(x):
    """A one-token batch."""
    return Tensor(np.asarray(x, dtype=np.float64).reshape(1, -1))


def weights_at(routing, t):
    """Row t's combine weights on its selected experts, in selection order."""
    assert routing.weights.data.shape == routing.selected.shape
    return routing.weights.data[t]


def dense(router, X):
    """(logits, probs) arrays of ``route_sparse``'s one [d x n] router, as a
    family of one, over the batch X."""
    r = route_sparse(family(router), X, k=1)
    (logits,), (probs,) = r.logits, r.expert_probs
    assert logits.data.shape == probs.data.shape == (1, X.data.shape[0], router.weight.shape[1])
    return logits.data[0], probs.data[0]


class TestRouteDense:
    """The dense stage of routing: one router's logits and softmax over all
    of its outputs, ``T.router_softmaxes`` of that one router."""

    def test_zero_weights_uniform(self):
        router = RouterParams(Tensor.param(np.zeros((4, 5))))
        _, probs = dense(router, row(np.ones(4)))
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_closed_form(self):
        router = RouterParams(Tensor.param(np.array([[0.0, math.log(3.0)]])))
        _, probs = dense(router, row([1.0]))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)

    def test_matches_compositional_oracle(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(6, 4))
        X = rng.normal(size=(5, 6))
        logits, probs = dense(RouterParams(Tensor.param(W)), Tensor(X))
        for t in range(5):
            want_logits = W.T @ X[t]
            want = np.exp(want_logits - want_logits.max())
            want /= want.sum()
            assert np.max(np.abs(logits[t] - want_logits)) < 1e-12
            assert np.max(np.abs(probs[t] - want)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.router_softmaxes(row(np.ones(4)), make_router(3, 2).weight)
        with pytest.raises(ShapeError):  # 1-D: not a batch
            T.router_softmaxes(Tensor(np.ones(4)), make_router(4, 2).weight)
        with pytest.raises(ShapeError):  # nor a 4-D weight a family
            T.router_softmaxes(row(np.ones(4)), Tensor(np.ones((1, 1, 4, 2))))
        with pytest.raises(ShapeError):
            route_sparse(family(make_router(3, 2)), row(np.ones(4)), k=1)
        with pytest.raises(ShapeError):  # the inter router's input is checked too
            route_hierarchical(make_router(3, 2), family(make_router(4, 2), make_router(4, 2)),
                               row(np.ones(4)), m=1, X_inter=Tensor(np.ones(3)))


class TestSelectTopk:
    def test_closed_form(self):
        ids, w = select_topk(row([0.1, 0.4, 0.3, 0.2]), 2)
        assert ids.tolist() == [[1, 2]]
        assert np.allclose(w.data, [[4 / 7, 3 / 7]], atol=1e-12)

    def test_k_equals_n(self):
        probs = row([0.2, 0.5, 0.3])
        ids, w = select_topk(probs, 3)
        assert ids.tolist() == [[1, 2, 0]]
        assert np.allclose(np.sort(w.data), np.sort(probs.data), atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_topk(row([0.5, 0.5]), 3)

    def test_ties_lowest_id_first(self):
        ids, _ = select_topk(row([0.25, 0.25, 0.25, 0.25]), 2)
        assert ids.tolist() == [[0, 1]]

    def test_brute_force_subset_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            n = int(rng.integers(1, 9))
            probs = rng.uniform(size=n)
            probs /= probs.sum()
            k = int(rng.integers(1, n + 1))
            ids, w = select_topk(row(probs), k)
            # oracle: the k-subset maximizing summed probability
            best = max(itertools.combinations(range(n), k),
                       key=lambda s: (sum(probs[list(s)]), tuple(-i for i in s)))
            assert sorted(ids[0]) == sorted(best)
            assert abs(float(w.data.sum()) - 1.0) < 1e-9

    def test_rows_select_independently(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(size=(6, 5))
        ids, w = select_topk(Tensor(probs), 2)
        for t in range(6):
            row_ids, row_w = select_topk(row(probs[t]), 2)
            assert ids[t].tolist() == row_ids[0].tolist()
            assert np.array_equal(w.data[t], row_w.data[0])

    def test_reads_rows_of_a_family_of_one_by_index(self):
        """The rows ``rows`` of a [1 x B x n] family, gathered from the
        family itself: its gradient lands in those rows alone."""
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=(1, 6, 5))
        rows = np.array([1, 4, 5])
        fam = Tensor(probs, requires_grad=True)
        ids, w = select_topk(fam, 2, rows=rows)
        want_ids, want_w = select_topk(Tensor(probs[0][rows]), 2)
        assert np.array_equal(ids, want_ids) and np.array_equal(w.data, want_w.data)
        T.tsum(T.mul(w, Tensor(rng.normal(size=w.data.shape)))).backward()
        touched = np.zeros(probs.shape, dtype=bool)
        touched[0, rows[:, None], ids] = True
        assert (fam.grad[~touched] == 0).all() and (fam.grad[touched] != 0).any()


class TestRouteHard:
    def test_audio_token_zero_visual_weight(self):
        routers = (make_router(4, 3, seed=1), make_router(4, 3, seed=2))
        r = route_hard([MOD_AUDIO], tuple(map(family, routers)), row(np.ones(4)), k=2)
        assert all(e < 3 for e in r.selected[0])
        # the audio experts carry the whole weight, leaving none to video
        assert abs(weights_at(r, 0).sum() - 1.0) <= 1e-15

    def test_audiovisual_one_per_group(self):
        routers = (make_router(4, 4, seed=3), make_router(4, 4, seed=4))
        r = route_hard([MOD_AV], tuple(map(family, routers)), row(np.ones(4)), k=2)
        audio, video = r.selected[0]
        assert audio < 4 <= video
        assert np.allclose(weights_at(r, 0), [0.5, 0.5], atol=1e-15)

    def test_audio_reduces_to_select_topk(self):
        rng = np.random.default_rng(5)
        routers = (make_router(4, 5, seed=6), make_router(4, 5, seed=7))
        X = Tensor(rng.normal(size=(6, 4)))
        r = route_hard([MOD_AUDIO] * 6, tuple(map(family, routers)), X, k=2)
        _, probs = dense(routers[0], X)
        for t in range(6):
            ids, w = select_topk(row(probs[t]), 2)
            assert r.selected[t].tolist() == ids[0].tolist()
            assert np.allclose(weights_at(r, t), w.data[0], atol=1e-15)

    def test_odd_k_audiovisual_rejected(self):
        routers = (family(make_router(4, 4)), family(make_router(4, 4)))
        with pytest.raises(RoutingConfigError):
            route_hard([MOD_AV], routers, row(np.ones(4)), k=3)

    def test_unknown_modality_rejected(self):
        routers = (family(make_router(4, 4)), family(make_router(4, 4)))
        with pytest.raises(RoutingConfigError):
            route_hard(["smell"], routers, row(np.ones(4)), k=2)


class TestRouteHierarchical:
    def test_symmetric_inter_router(self):
        inter = RouterParams(Tensor.param(np.zeros((4, 2))))
        intras = family(make_router(4, 4, seed=8), make_router(4, 4, seed=9))
        r = route_hierarchical(inter, intras, row(np.ones(4)), m=2)
        assert np.allclose(weights_at(r, 0), [0.5, 0.5], atol=1e-12)

    def test_m1_single_group(self):
        inter = make_router(4, 2, seed=10)
        intras = family(make_router(4, 4, seed=11), make_router(4, 4, seed=12))
        r = route_hierarchical(inter, intras, row(np.ones(4)), m=1)
        assert r.selected.shape == (1, 1)
        assert np.allclose(weights_at(r, 0), [1.0])

    def test_argmax_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(13)
        inter = make_router(4, 2, seed=14)
        intras = [make_router(4, 4, seed=15), make_router(4, 4, seed=16)]
        X = Tensor(rng.normal(size=(50, 4)))
        r = route_hierarchical(inter, family(*intras), X, m=2)
        for t in range(50):
            for flat in r.selected[t]:
                g = int(flat) // 4
                _, probs = dense(intras[g], Tensor(X.data[t:t + 1]))
                probs = probs[0]
                best, best_p = 0, probs[0]
                for j in range(1, probs.size):
                    if probs[j] > best_p:
                        best, best_p = j, probs[j]
                assert flat == g * 4 + best

    def test_m_exceeds_groups(self):
        inter = make_router(4, 2)
        intras = family(make_router(4, 4), make_router(4, 4))
        with pytest.raises(RoutingConfigError):
            route_hierarchical(inter, intras, row(np.ones(4)), m=3)

    def test_g1_reduces_to_dense_topk(self):
        rng = np.random.default_rng(17)
        shared = family(make_router(6, 8, seed=18))
        inter = make_router(6, 1, seed=19)
        X = Tensor(rng.normal(size=(30, 6)))
        hier = route_hierarchical(inter, shared, X, m=1, k_per_group=2)
        dense = route_sparse(shared, X, k=2)
        assert np.array_equal(hier.selected, dense.selected)
        # weights: hierarchical q~ is exactly 1 for a single group
        assert np.array_equal(hier.weights.data, dense.weights.data)

    def test_normalization_invariants(self):
        rng = np.random.default_rng(20)
        inter = make_router(4, 3, seed=21)
        intras = family(*(make_router(4, 4, seed=22 + i) for i in range(3)))
        r = route_hierarchical(inter, intras, Tensor(rng.normal(size=(100, 4))), m=2)
        assert np.max(np.abs(r.weights.data.sum(axis=1) - 1.0)) < 1e-9

    def test_argmax_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(23)
        router = family(make_router(5, 6, seed=24))
        X = rng.normal(size=(100, 5))
        a = route_sparse(router, Tensor(X), k=2).selected
        b = route_sparse(router, Tensor(7.3 * X), k=2).selected
        assert np.array_equal(a, b)


class TestDispatchStats:
    def test_single_token_top1(self):
        probs = np.array([0.1, 0.2, 0.6, 0.1])
        r = route_sparse(RouterParams(Tensor.param(np.log(probs)[None, None, :])),
                         row([1.0]), k=1)
        stats = dispatch_stats(r)
        assert np.array_equal(stats.expert_f[0], [0, 0, 1, 0])

    def test_uniform_probs_uniform_P(self):
        router = RouterParams(Tensor.param(np.zeros((1, 3, 4))))
        r = route_sparse(router, Tensor(np.random.default_rng(0).normal(size=(5, 3))), 2)
        P, _ = chain_mean_probs(dispatch_stats(r))
        assert np.allclose(P[0].data, 0.25, atol=1e-12)

    def test_hand_count_oracle(self):
        inter = make_router(2, 2, seed=30)
        intras = family(make_router(2, 2, seed=31), make_router(2, 2, seed=32))
        X = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                             [-1.0, 0.0], [0.0, -1.0], [2.0, -1.0]]))
        tags = [MOD_AUDIO, MOD_AUDIO, MOD_AV, MOD_VIDEO, MOD_VIDEO, MOD_AV]
        r = route_hierarchical(inter, intras, X, m=2, modalities=tags)
        stats = dispatch_stats(r)
        # hand-count group top-1 frequencies per subset
        for tag, idxs in ((MOD_AUDIO, [0, 1]), (MOD_VIDEO, [3, 4]), (MOD_AV, [2, 5])):
            freq = np.zeros(2)
            for i in idxs:
                freq[int(np.argmax(r.group_probs.data[i]))] += 1
            assert np.array_equal(stats.g[tag], freq / len(idxs))
            assert stats.counts[tag] == len(idxs)
        # expert f per group over all 6 tokens
        for gi in range(2):
            freq = np.zeros(2)
            for t in range(6):
                freq[int(np.argmax(r.expert_probs[0].data[gi, t]))] += 1
            assert np.array_equal(stats.expert_f[gi], freq / 6)

    def test_records_concatenate(self):
        """Routing is row by row: the stats of one record over a batch equal
        those of two half-batch records laid end to end."""
        inter = make_router(3, 2, seed=35)
        intras = family(make_router(3, 4, seed=36), make_router(3, 4, seed=37))
        X = np.random.default_rng(38).normal(size=(7, 3))
        tags = [MOD_AUDIO, MOD_VIDEO, MOD_AV, MOD_AUDIO, MOD_AV, MOD_VIDEO, MOD_AUDIO]
        whole = dispatch_stats(route_hierarchical(inter, intras, Tensor(X), m=2,
                                                  modalities=tags))
        a = route_hierarchical(inter, intras, Tensor(X[:3]), m=2, modalities=tags[:3])
        b = route_hierarchical(inter, intras, Tensor(X[3:]), m=2, modalities=tags[3:])
        parts = dispatch_stats(Routing(
            a.modalities + b.modalities,
            [Tensor(np.concatenate([p.data, q.data], axis=1))
             for p, q in zip(a.logits, b.logits)],
            [Tensor(np.concatenate([p.data, q.data], axis=1))
             for p, q in zip(a.expert_probs, b.expert_probs)],
            np.concatenate([a.selected, b.selected]),
            concat_rows([a.weights, b.weights]),
            group_probs=concat_rows([a.group_probs, b.group_probs])))
        (whole_P, whole_Q), (parts_P, parts_Q) = chain_mean_probs(whole), chain_mean_probs(parts)
        for gi in range(2):
            assert np.array_equal(whole.expert_f[gi], parts.expert_f[gi])
            assert np.allclose(whole_P[gi].data, parts_P[gi].data, atol=1e-15)
        assert whole.counts == parts.counts
        for tag in (MOD_AUDIO, MOD_VIDEO, MOD_AV):
            assert np.array_equal(whole.g[tag], parts.g[tag])
            assert np.allclose(whole_Q[tag].data, parts_Q[tag].data, atol=1e-15)

    def test_frequency_vectors_sum_to_one(self):
        rng = np.random.default_rng(33)
        router = family(make_router(3, 5, seed=34))
        stats = dispatch_stats(route_sparse(router, Tensor(rng.normal(size=(20, 3))), 2))
        assert abs(stats.expert_f[0].sum() - 1.0) < 1e-9
        assert (stats.expert_f[0] >= 0).all() and (stats.expert_f[0] <= 1).all()


def oracle_dispatch_stats(routing):
    """The earlier ``dispatch_stats``: one string array of the tags, and
    each subset's rows found with ``flatnonzero`` however many subsets there
    are."""
    tags = np.asarray(routing.modalities)
    n_tok = tags.size
    probs = [p for family in routing.expert_probs for p in family.data]
    expert_f = [np.bincount(p.argmax(axis=1), minlength=p.shape[1]) / n_tok for p in probs]

    g = {}
    counts = {key: 0 for key in MODALITIES}
    subsets = {}
    group_probs = routing.group_probs
    for tag in dict.fromkeys(tags.tolist()):
        rows = np.flatnonzero(tags == tag)
        counts[tag] = rows.size
        subsets[tag] = None if rows.size == n_tok else rows
        if group_probs is not None:
            g[tag] = np.bincount(group_probs.data[rows].argmax(axis=1),
                                 minlength=group_probs.data.shape[1]) / rows.size
    return DispatchStats(expert_f=expert_f, g=g, counts=counts, n_groups=len(probs),
                         expert_probs=routing.expert_probs, group_probs=group_probs,
                         subsets=subsets)


def fused_losses(routing, biasing):
    """Balancing, plus biasing when asked, of ``dispatch_stats``: one node each."""
    stats = dispatch_stats(routing)
    loss = load_balancing_from_stats(stats)
    return stats, T.add(loss, load_biasing_loss(stats)) if biasing else loss


def chain_losses(routing, biasing):
    """The same losses as chains over the oracle's frequencies and subsets."""
    stats = oracle_dispatch_stats(routing)
    loss = chain_load_balancing(router_slices(stats.expert_probs), stats.expert_f)
    if biasing:
        terms = [(stats.subsets[tag], group, float(stats.g[tag][group]))
                 for tag, group in ((MOD_AUDIO, 0), (MOD_VIDEO, 1)) if stats.counts[tag] > 0]
        loss = T.add(loss, chain_load_biasing(stats.group_probs, terms))
    return stats, loss


STATS_LAYERS = {
    "sparse_topk": {"n_experts": 5, "k": 2},
    "hard": {"n_groups": 2, "n_per_group": 3, "k": 2},
    "hierarchical": {"n_groups": 3, "n_per_group": 2, "m": 2, "k_per_group": 1},
    "hierarchical_two_groups": {"mode": "hierarchical", "n_groups": 2, "n_per_group": 3,
                                "m": 1, "k_per_group": 1},
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), layer=st.sampled_from(sorted(STATS_LAYERS)),
       B=st.integers(1, 12), one_tag=st.sampled_from([None, *MODALITIES]))
def test_dispatch_stats_equals_the_oracle(seed, layer, B, one_tag):
    """Single-tag batches (``one_tag``; every decoding step is one) and mixed
    ones: equal bytes of every frequency, count and subset, and of the value
    and every gradient of the losses the stats feed, in every routed mode.
    The fused balancing and biasing hand the router probabilities, the input
    and the router weights what the chains over the oracle's mean
    probabilities hand them."""
    rng = np.random.default_rng(seed)
    fields = dict(STATS_LAYERS[layer])
    mode = fields.pop("mode", layer)
    moe = MoELayer(MoELayerConfig(mode=mode, d=4, h=3, **fields), rng)
    X = rng.normal(size=(B, 4))
    tags = ([one_tag] * B if one_tag is not None
            else [MODALITIES[i] for i in rng.integers(0, len(MODALITIES), B)])
    if moe.inter_router is not None:
        # drawn: at its zero init the inter router hands the input no gradient
        moe.inter_router.weight.data[:] = rng.normal(size=moe.inter_router.weight.shape)
    biasing = fields.get("n_groups") == 2 and mode == "hierarchical"

    def run(losses):
        for p in moe.router_params():
            p.zero_grad()
        x = Tensor(X, requires_grad=True)
        routing = moe.route(x, tags)
        stats, loss = losses(routing, biasing)
        loss.backward()
        # the group probabilities and the inter router take a gradient only
        # from the biasing of a unimodal subset
        biased = biasing and not {MOD_AUDIO, MOD_VIDEO}.isdisjoint(tags)
        probs = routing.expert_probs + [routing.group_probs] * biased
        inter = () if biased or moe.inter_router is None else (moe.inter_router.weight,)
        return stats, loss, [p.grad for p in probs] + [x.grad] + [
            p.grad for p in moe.router_params() if p not in inter]

    (got, got_loss, got_grads), (want, want_loss, want_grads) = (
        run(fused_losses), run(chain_losses))
    assert got.counts == want.counts and got.n_groups == want.n_groups
    assert list(got.g) == list(want.g) and list(got.subsets) == list(want.subsets)
    for a, b in zip(got.subsets.values(), want.subsets.values()):
        assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))
    for a, b in [*zip(got.expert_f, want.expert_f), *zip(got.g.values(), want.g.values()),
                 (got_loss.data, want_loss.data), *zip(got_grads, want_grads)]:
        assert a is not None and a.shape == b.shape and a.tobytes() == b.tobytes()
