from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickpred import predict
from tickpred.entropy import estimate_entropy
from tickpred.evaluate import accuracy
from tickpred.predict import DiffusionKernelModel, MarkovChainModel, run_protocol
from tickpred.predictability import fano_solve
from tickpred.synthetic import markov2_entropy_rate, markov2_source


# -- Markov chain -----------------------------------------------------------


def test_mc_train_counts_cycle():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    assert model.counts2[(1, 2)][3] == 2
    assert model.counts2[(2, 3)][1] == 2


def test_mc_train_counts_constant():
    model = MarkovChainModel().train([1, 1, 1, 1])
    assert model.counts2[(1, 1)][1] == 2


def test_mc_train_rejects_short_prefix():
    with pytest.raises(ValueError, match="at least 3"):
        MarkovChainModel().train([])
    with pytest.raises(ValueError, match="at least 3"):
        MarkovChainModel().train([1, 2])


def test_mc_predict_seen_context():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    assert model.predict((1, 2)) == 3


def test_mc_fallback_chain():
    model = MarkovChainModel()
    model.update((1, 2), 3)
    model.update((2, 3), 1)
    model.update((3, 1), 1)
    # context unseen, its second state unseen anywhere: global mode wins
    assert model.predict((9, 9)) == 1
    # context unseen but second state seen as an order-1 context
    assert model.predict((9, 2)) == 3


def test_mc_tie_breaks_to_smallest_id():
    model = MarkovChainModel()
    for nxt in (4, 7, 4, 7):
        model.update((0, 0), nxt)
    assert model.counts2[(0, 0)] == {4: 2, 7: 2}
    assert model.predict((0, 0)) == 4


def test_mc_update_then_predict_prefers_new_mode():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    model.update((1, 2), 5)
    model.update((1, 2), 5)
    model.update((1, 2), 5)
    assert model.predict((1, 2)) == 5


def test_mc_repeated_updates_accumulate():
    model = MarkovChainModel()
    for _ in range(7):
        model.update((3, 4), 5)
    assert model.counts2[(3, 4)][5] == 7


def test_mc_tables_are_consistent_marginals():
    rng = np.random.default_rng(0)
    seq = rng.integers(0, 4, 500).tolist()
    model = MarkovChainModel().train(seq)
    total = len(seq) - 2
    assert sum(c for row in model.counts2.values() for c in row.values()) == total
    assert sum(c for row in model.counts1.values() for c in row.values()) == total
    assert sum(model.global_counts.values()) == total


def test_mc_perfect_on_deterministic_cycle():
    cycle = [1, 2, 3, 4] * 60
    trace = run_protocol(cycle, [0, 120], "mc")
    assert accuracy(trace) == 1.0


# -- diffusion kernel -------------------------------------------------------


def _two_state_model(alpha0=1.0, margin=1.0):
    """Model with hand-placed coordinates: context (7, 8) at x=1, states at the origin."""
    model = DiffusionKernelModel(dim=2, alpha0=alpha0, margin=margin, negatives_per_step=1, seed=0)
    model.set_state_embedding(1, [0.0, 0.0])
    model.set_state_embedding(2, [0.0, 0.0])
    model.set_context_embedding((7, 8), [1.0, 0.0])
    return model


def test_dk_single_update_arithmetic():
    # one gated step at rate 0.1 moves the positive 0.2 of the way to the context
    model = _two_state_model(alpha0=1.0)  # online rate is alpha0/10 = 0.1
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.2, 0.0])
    # the negative is pushed away and the context shifts along positive-minus-negative
    assert model.state_embedding(2) == pytest.approx([-0.2, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_margin_gate_blocks_updates():
    model = _two_state_model(alpha0=1.0)
    model.set_state_embedding(2, [10.0, 0.0])  # negative already far: gap >= margin
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.0, 0.0])
    assert model.state_embedding(2) == pytest.approx([10.0, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_zero_learning_rate_changes_nothing():
    model = _two_state_model(alpha0=0.0)
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.0, 0.0])
    assert model.state_embedding(2) == pytest.approx([0.0, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_update_registers_new_state():
    model = _two_state_model()
    before = model.n_states
    model.update((7, 8), 42)
    assert model.n_states == before + 1
    assert 42 in model.state_rows


def test_dk_repeated_updates_shrink_positive_distance():
    model = DiffusionKernelModel(dim=4, alpha0=0.5, negatives_per_step=2, seed=3)
    model.set_state_embedding(1, [1.0, 0.0, 0.0, 0.0])
    model.set_state_embedding(2, [0.0, 1.0, 0.0, 0.0])
    model.set_state_embedding(3, [0.0, 0.0, 1.0, 1.0])
    # at the origin the negatives are nearer than the positive: the gate fires
    model.set_context_embedding((1, 2), [0.0, 0.0, 0.0, 0.0])
    distances = []
    for _ in range(50):
        model.update((1, 2), 3)
        gap = model.context_embedding((1, 2)) - model.state_embedding(3)
        distances.append(float(gap @ gap))
    assert all(a >= b - 1e-9 for a, b in zip(distances, distances[1:]))
    assert distances[-1] < distances[0]


def test_dk_gate_counters():
    model = _two_state_model(alpha0=1.0)
    model.negatives_per_step = 3
    # steps against state 2: gaps 0 and 0.8 fire, then 1.792 >= margin does not
    model.update((7, 8), 1)
    assert (model.gate_checks, model.gate_fires) == (3, 2)
    assert model.state_embedding(1) == pytest.approx([0.36, 0.0])
    assert model.state_embedding(2) == pytest.approx([-0.44, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.08, 0.0])
    model.update((7, 8), 1)
    assert (model.gate_checks, model.gate_fires) == (6, 2)
    # a gap equal to the margin holds
    edge = _two_state_model(alpha0=1.0, margin=0.0)
    edge.update((7, 8), 1)
    assert (edge.gate_checks, edge.gate_fires) == (1, 0)
    # one state: nothing to draw, nothing checked
    lone = DiffusionKernelModel(dim=2, seed=0)
    lone.update((1, 1), 1)
    assert (lone.gate_checks, lone.gate_fires) == (0, 0)


@pytest.mark.parametrize("positive", [10, 11, 13])
def test_dk_negatives_skip_positive_and_reach_every_other_state(positive):
    # margin 0 and rate 0: a step fires exactly when its negative sits nearer the
    # context than the positive does, and nothing moves, so fires count draws
    ids = [10, 11, 12, 13]
    draws = 200
    fires = {}
    for near in ids:
        if near == positive:
            continue
        model = DiffusionKernelModel(dim=2, alpha0=0.0, margin=0.0, negatives_per_step=draws, seed=4)
        for s in ids:
            model.set_state_embedding(s, [1.0 if s == positive else 0.5 if s == near else 2.0, 0.0])
        model.set_context_embedding((10, 11), [0.0, 0.0])
        model.update((10, 11), positive)
        assert model.gate_checks == draws
        fires[near] = model.gate_fires
    # same seed, same stream: the draws split among the other states alone
    assert sum(fires.values()) == draws
    assert all(n > 0 for n in fires.values())


def _dk_run(seq, split, params, seed):
    """Train on seq[:split], then predict and update online; the trace and every embedding."""
    model = DiffusionKernelModel(seed=seed, **params).train(seq[:split])
    predicted = []
    for t in range(split, len(seq)):
        predicted.append(model.predict((seq[t - 2], seq[t - 1])))
        model.update((seq[t - 2], seq[t - 1]), seq[t])
    states = {s: model.state_embedding(s).tobytes() for s in model.state_rows}
    contexts = {c: model.context_embedding(c).tobytes() for c in model.context_rows}
    trace = run_protocol(seq, [0, split], "dk", seed=seed, dk_params=params).predicted
    return predicted, states, contexts, trace.tobytes(), (model.gate_checks, model.gate_fires)


@settings(max_examples=60, deadline=None)
@given(
    seq=st.lists(st.integers(0, 3), min_size=4, max_size=120),
    split=st.integers(3, 120),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 20),
    negatives=st.integers(0, 6),
    margin=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_dk_windowed_gate_matches_one_step_at_a_time(seq, split, seed, dim, negatives, margin):
    split = min(split, len(seq))
    params = dict(dim=dim, epochs=2, alpha0=0.3, margin=margin, negatives_per_step=negatives)
    windowed = _dk_run(seq, split, params, seed)
    with mock.patch.object(predict, "GATE_WINDOW", 1):
        reference = _dk_run(seq, split, params, seed)
    assert windowed == reference


def test_dk_predict_single_state_model():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(9, [1.0, 1.0])
    model.obs_counts[9] = 1
    assert model.predict((0, 0)) == 9


def test_dk_predict_nearest_state():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(1, [1.0, 0.0])
    model.set_state_embedding(2, [0.0, 2.0])
    model.set_context_embedding((5, 5), [0.0, 0.0])
    assert model.predict((5, 5)) == 1


def test_dk_predict_tie_breaks_to_smallest_id():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(5, [1.0, 0.0])
    model.set_state_embedding(3, [-1.0, 0.0])
    model.set_context_embedding((0, 0), [0.0, 0.0])
    assert model.predict((0, 0)) == 3


def test_dk_unseen_context_uses_member_midpoint():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(1, [0.0, 0.0])
    model.set_state_embedding(2, [4.0, 0.0])
    model.set_state_embedding(3, [2.1, 0.0])
    # context (1, 2) is new: anchored at the mean of members, nearest is state 3
    assert model.predict((1, 2)) == 3
    assert (1, 2) in model.context_rows


def test_dk_unseen_members_fall_back_to_global_mode():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(4, [0.0, 0.0])
    model.set_state_embedding(6, [1.0, 0.0])
    model.obs_counts.update({4: 3, 6: 5})
    assert model.predict((100, 200)) == 6


def test_dk_learns_deterministic_cycle():
    model = DiffusionKernelModel(dim=8, seed=1).train([1, 2, 3] * 50)
    zc = model.context_embedding((1, 2))
    d = {s: float((zc - model.state_embedding(s)) @ (zc - model.state_embedding(s))) for s in (1, 2, 3)}
    assert d[3] < d[1]
    assert d[3] < d[2]
    assert model.predict((1, 2)) == 3


def test_dk_train_rejects_short_prefix():
    with pytest.raises(ValueError, match="at least 3"):
        DiffusionKernelModel(seed=0).train([1, 2])


def test_dk_parameter_validation():
    with pytest.raises(ValueError, match="dimension"):
        DiffusionKernelModel(dim=1)
    with pytest.raises(ValueError, match="epochs"):
        DiffusionKernelModel(epochs=0)
    with pytest.raises(ValueError, match="rate"):
        DiffusionKernelModel(alpha0=-0.1)
    with pytest.raises(ValueError, match="negatives"):
        DiffusionKernelModel(negatives_per_step=-1)


# -- protocol ---------------------------------------------------------------


def test_protocol_trace_length_and_start():
    seq = np.tile([1, 2, 3, 4], 50)
    trace = run_protocol(seq, [0, 80], "mc", stock_code="s")
    assert trace.start_index == 80
    assert len(trace) == len(seq) - 80
    assert trace.stock_code == "s"
    assert (trace.actual == seq[80:]).all()


def test_protocol_requires_two_days():
    with pytest.raises(ValueError, match="2 trading days"):
        run_protocol([1, 2, 3, 4], [0], "mc")


def test_protocol_deterministic_given_seed():
    rng = np.random.default_rng(8)
    seq = rng.integers(0, 5, 1200)
    a = run_protocol(seq, [0, 400], "dk", seed=77)
    b = run_protocol(seq, [0, 400], "dk", seed=77)
    assert (a.predicted == b.predicted).all()
    c = run_protocol(seq, [0, 400], "dk", seed=78)
    assert (a.predicted != c.predicted).any()


def test_protocol_predictions_are_registered_states():
    rng = np.random.default_rng(9)
    seq = rng.integers(0, 6, 900)
    for kind in ("mc", "dk"):
        trace = run_protocol(seq, [0, 300], kind, seed=5)
        assert set(trace.predicted.tolist()) <= set(seq.tolist())


def test_unknown_model_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        run_protocol([1, 2, 3, 4, 5, 6], [0, 3], "lstm")


def test_mc_beats_uniform_guessing_on_structured_source():
    seq, _ = markov2_source(n_states=5, length=50_000, seed=41)
    trace = run_protocol(seq, [0, 3800], "mc")
    assert accuracy(trace) >= 1.0 / 5 + 0.2


def test_models_respect_true_entropy_bound():
    seq, tensor = markov2_source(n_states=5, length=20_000, seed=17)
    bound = fano_solve(markov2_entropy_rate(tensor), len(np.unique(seq)))
    for kind in ("mc", "dk"):
        trace = run_protocol(seq, [0, 2000], kind, seed=13)
        assert accuracy(trace) <= bound + 0.02
