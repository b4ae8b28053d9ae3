"""Tests for LSTM/GRU cells and the LSTM, BiLSTM and BiGRU layers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import (
    LSTM,
    BiGRU,
    BiLSTM,
    GRUCell,
    LSTMCell,
    Tensor,
    pack_steps,
)

RNG = np.random.default_rng(11)


def make_steps(t=4, batch=2, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal((batch, dim)), requires_grad=True)
            for _ in range(t)]


def make_sequences(lengths, dim=3, seed=0):
    """B per-item sequences of (1, dim) step Tensors, varying lengths."""
    rng = np.random.default_rng(seed)
    return [[Tensor(rng.standard_normal((1, dim))) for _ in range(n)]
            for n in lengths]


class TestLSTMCell:
    def test_state_shapes(self):
        cell = LSTMCell(3, 5, RNG)
        h, c = cell.initial_state(2)
        h2, c2 = cell(Tensor(np.ones((2, 3))), h, c)
        assert h2.shape == (2, 5) and c2.shape == (2, 5)

    def test_bad_input_raises(self):
        cell = LSTMCell(3, 5, RNG)
        h, c = cell.initial_state(2)
        with pytest.raises(ShapeError):
            cell(Tensor(np.ones((2, 4))), h, c)

    def test_hidden_bounded_by_tanh(self):
        cell = LSTMCell(3, 5, RNG)
        h, c = cell.initial_state(1)
        for _ in range(20):
            h, c = cell(Tensor(RNG.standard_normal((1, 3)) * 10), h, c)
        assert (np.abs(h.numpy()) <= 1.0).all()

    def test_gradient_reaches_early_input(self):
        cell = LSTMCell(3, 4, RNG)
        steps = make_steps(t=6, dim=3)
        h, c = cell.initial_state(2)
        for x in steps:
            h, c = cell(x, h, c)
        (h * h).sum().backward()
        assert steps[0].grad is not None
        assert np.abs(steps[0].grad).sum() > 0


class TestGRUCell:
    def test_state_shape(self):
        cell = GRUCell(3, 5, RNG)
        h = cell.initial_state(2)
        assert cell(Tensor(np.ones((2, 3))), h).shape == (2, 5)

    def test_bad_input_raises(self):
        cell = GRUCell(3, 5, RNG)
        with pytest.raises(ShapeError):
            cell(Tensor(np.ones((2, 4))), cell.initial_state(2))

    def test_interpolation_property(self):
        # With zero hidden state and candidate, output stays bounded by tanh.
        cell = GRUCell(2, 3, RNG)
        h = cell.initial_state(1)
        for _ in range(10):
            h = cell(Tensor(RNG.standard_normal((1, 2))), h)
        assert (np.abs(h.numpy()) < 1.0).all()


class TestSequenceLayers:
    @pytest.mark.parametrize("cls,out_mult", [
        (LSTM, 1), (BiLSTM, 2), (BiGRU, 2),
    ])
    def test_output_shapes(self, cls, out_mult):
        layer = cls(3, 5, RNG, num_layers=2)
        outs = layer(make_steps())
        assert len(outs) == 4
        assert outs[0].shape == (2, 5 * out_mult)

    @pytest.mark.parametrize("cls", [LSTM, BiLSTM, BiGRU])
    def test_empty_sequence_raises(self, cls):
        layer = cls(3, 5, RNG)
        with pytest.raises(ShapeError):
            layer([])

    def test_bilstm_backward_half_sees_future(self):
        """The backward half at step 0 must depend on the last step."""
        layer = BiLSTM(2, 3, np.random.default_rng(5))
        steps = make_steps(t=3, batch=1, dim=2, seed=1)
        base = layer(steps)[0].numpy().copy()
        # Perturb the final input; the backward state at step 0 should move.
        steps2 = [Tensor(s.numpy().copy()) for s in steps]
        steps2[-1] = Tensor(steps2[-1].numpy() + 1.0)
        perturbed = layer(steps2)[0].numpy()
        fwd_dim = 3
        np.testing.assert_allclose(base[:, :fwd_dim], perturbed[:, :fwd_dim])
        assert np.abs(base[:, fwd_dim:] - perturbed[:, fwd_dim:]).max() > 1e-8

    def test_unidirectional_is_causal(self):
        """A unidirectional LSTM output at step t ignores steps > t."""
        layer = LSTM(2, 3, np.random.default_rng(5))
        steps = make_steps(t=3, batch=1, dim=2, seed=1)
        base = layer(steps)[0].numpy().copy()
        steps2 = [Tensor(s.numpy().copy()) for s in steps]
        steps2[-1] = Tensor(steps2[-1].numpy() + 5.0)
        perturbed = layer(steps2)[0].numpy()
        np.testing.assert_allclose(base, perturbed)

    def test_gradients_flow_through_stack(self):
        layer = BiGRU(3, 4, RNG, num_layers=2)
        steps = make_steps()
        outs = layer(steps)
        total = outs[0].sum()
        for o in outs[1:]:
            total = total + o.sum()
        total.backward()
        for step in steps:
            assert step.grad is not None

    def test_num_layers_changes_parameter_count(self):
        one = LSTM(3, 4, np.random.default_rng(0), num_layers=1)
        two = LSTM(3, 4, np.random.default_rng(0), num_layers=2)
        assert two.num_parameters() > one.num_parameters()

    def test_deterministic_given_seed(self):
        a = BiGRU(3, 4, np.random.default_rng(9))
        b = BiGRU(3, 4, np.random.default_rng(9))
        steps = make_steps(seed=3)
        np.testing.assert_allclose(a(steps)[-1].numpy(), b(steps)[-1].numpy())


class TestPackSteps:
    def test_pads_to_longest(self):
        steps, lengths = pack_steps(make_sequences([3, 1, 2]))
        assert len(steps) == 3
        assert steps[0].shape == (3, 3)
        np.testing.assert_array_equal(lengths, [3, 1, 2])

    def test_padding_is_zero(self):
        steps, _ = pack_steps(make_sequences([1, 3]))
        assert np.abs(steps[2].numpy()[0]).max() == 0.0

    def test_empty_batch_raises(self):
        with pytest.raises(ShapeError):
            pack_steps([])

    def test_empty_sequence_raises(self):
        with pytest.raises(ShapeError):
            pack_steps([make_sequences([2])[0], []])


class TestBatchedSequenceLayers:
    """A masked B-lane forward must match B one-lane runs exactly."""

    LENGTHS = [5, 2, 4, 1]

    def per_item(self, layer, sequences, reverse=False):
        """Reference: an unmasked one-lane run of each sequence
        (over the reversed sequence if asked)."""
        outs = []
        for seq in sequences:
            seq = list(reversed(seq)) if reverse else seq
            out = [o.numpy().reshape(-1) for o in layer(seq)]
            outs.append(list(reversed(out)) if reverse else out)
        return outs

    def assert_matches(self, batched, reference, lengths):
        for b, n in enumerate(lengths):
            for t in range(n):
                np.testing.assert_allclose(
                    batched[t].numpy()[b], reference[b][t], atol=1e-12)

    @pytest.mark.parametrize("cls,layers", [
        (LSTM, 1), (BiLSTM, 1), (BiGRU, 1),
        (LSTM, 2), (BiLSTM, 2), (BiGRU, 2),
    ])
    def test_variable_lengths_match_per_item(self, cls, layers):
        layer = cls(3, 4, np.random.default_rng(7), num_layers=layers)
        sequences = make_sequences(self.LENGTHS, seed=2)
        steps, lengths = pack_steps(sequences)
        batched = layer(steps, lengths)
        self.assert_matches(batched, self.per_item(layer, sequences), lengths)

    @pytest.mark.parametrize("cls", [LSTM])
    def test_reverse_matches_reversed_per_item(self, cls):
        layer = cls(3, 4, np.random.default_rng(8))
        sequences = make_sequences(self.LENGTHS, seed=3)
        steps, lengths = pack_steps(sequences)
        batched = layer(steps, lengths, reverse=True)
        self.assert_matches(
            batched, self.per_item(layer, sequences, reverse=True), lengths)

    def test_uniform_lengths_need_no_mask(self):
        layer = LSTM(3, 4, np.random.default_rng(4))
        sequences = make_sequences([3, 3], seed=5)
        steps, lengths = pack_steps(sequences)
        with_mask = layer(steps, lengths)
        without = layer(steps)
        for a, b in zip(with_mask, without):
            np.testing.assert_allclose(a.numpy(), b.numpy())

    def test_gradients_flow_through_batched_run(self):
        layer = BiGRU(3, 4, np.random.default_rng(6))
        steps = make_steps(t=3, batch=2, dim=3, seed=9)
        lengths = np.array([3, 2])
        outs = layer(steps, lengths)
        total = outs[0].sum()
        for o in outs[1:]:
            total = total + o.sum()
        total.backward()
        for step in steps:
            assert step.grad is not None

    def test_masked_lane_state_is_held(self):
        """A finished lane's output never changes after its last step."""
        layer = LSTM(3, 4, np.random.default_rng(10))
        sequences = make_sequences([1, 4], seed=11)
        steps, lengths = pack_steps(sequences)
        outs = layer(steps, lengths)
        for t in range(1, 4):
            np.testing.assert_allclose(outs[t].numpy()[0],
                                       outs[0].numpy()[0])
