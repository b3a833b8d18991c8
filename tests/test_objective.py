import math
from dataclasses import replace

import numpy as np
import pytest

from winmt import objective as O
from winmt import tensor as T
from winmt.corpus import EOS_ID, SEP_ID, Vocab
from winmt.rng import stream

import reference_ops as R


def log_probs_of(p):
    return T.Tensor(np.log(np.asarray(p, dtype=np.float64)))


@pytest.fixture
def vocab():
    return Vocab([f"t{i}" for i in range(6)])


def two_sentence_window(vocab):
    return R.window_from_sentences([["t0", "t1"], ["t2"]], [["t0", "t1"], ["t2"]], vocab)


def discounted(losses, window, cd):
    """One window's discounted loss, with its masks from a one-window batch."""
    current, context = O.partition_masks([window])
    return O.masked_discounted_loss(losses, current[0], context[0], cd)


class TestSmoothedNll:
    def test_eps_zero_is_plain_nll(self):
        lp = log_probs_of([[0.7, 0.2, 0.1]])
        got = O.smoothed_nll(lp, np.array([0]), epsilon=0.0)
        assert got.data[0] == pytest.approx(-math.log(0.7))

    def test_uniform_distribution_gives_log_v(self):
        v = 8
        lp = log_probs_of([[1.0 / v] * v])
        for eps in (0.0, 0.1, 0.5):
            got = O.smoothed_nll(lp, np.array([3]), epsilon=eps)
            assert got.data[0] == pytest.approx(math.log(v))

    def test_hand_computed_case(self):
        # V=2, p=[0.9, 0.1], target 0, eps 0.1:
        # 0.9*(-ln 0.9) + 0.1*((-ln 0.9 - ln 0.1)/2) = 0.21522...
        expected = 0.9 * -math.log(0.9) + 0.1 * ((-math.log(0.9) - math.log(0.1)) / 2)
        assert expected == pytest.approx(0.2152, abs=5e-5)
        lp = log_probs_of([[0.9, 0.1]])
        got = O.smoothed_nll(lp, np.array([0]), epsilon=0.1)
        assert got.data[0] == pytest.approx(expected, rel=1e-12)

    def test_pad_positions_contribute_zero(self):
        lp = log_probs_of([[0.5, 0.5], [0.9, 0.1]])
        got = O.smoothed_nll(lp, np.array([0, 0]), epsilon=0.1,
                             pad_mask=np.array([1.0, 0.0]))
        assert got.data[1] == 0.0

    def test_target_out_of_vocab_rejected(self):
        lp = log_probs_of([[0.5, 0.5]])
        with pytest.raises(O.ObjectiveError, match="out of vocab"):
            O.smoothed_nll(lp, np.array([2]), epsilon=0.0)

    def test_bad_epsilon_rejected(self):
        lp = log_probs_of([[1.0]])
        with pytest.raises(O.ObjectiveError):
            O.smoothed_nll(lp, np.array([0]), epsilon=1.0)


class TestPartitionMasks:
    def test_k1_window_next_to_padded_k3_window(self, vocab):
        long_sentence = [f"t{i}" for i in range(6)]
        k1 = R.window_from_sentences([long_sentence], [long_sentence], vocab)
        sents = [["t0"], ["t1"], ["t2"]]
        k3 = R.window_from_sentences(sents, sents, vocab)
        current, context = O.partition_masks([k1, k3])
        #                      t0 t1 t2 t3 t4 t5 <E>
        np.testing.assert_array_equal(current[0], [1, 1, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(context[0], [0, 0, 0, 0, 0, 0, 0])
        #                      t0 <S> t1 <S> t2 <E> pad
        np.testing.assert_array_equal(current[1], [0, 0, 0, 0, 1, 1, 0])
        np.testing.assert_array_equal(context[1], [1, 1, 1, 1, 0, 0, 0])
        for w, cur, ctx in zip([k1, k3], current, context):
            ids = np.array(w.tgt_ids)
            assert (ctx[:len(ids)][ids == SEP_ID] == 1).all()  # <S> is context
            assert ids[-1] == EOS_ID and cur[len(ids) - 1] == 1  # <E> is current
            assert not cur[len(ids):].any() and not ctx[len(ids):].any()  # padding is neither

    @pytest.mark.parametrize("span", [(2, 6), (3, 3)])  # past the target; empty
    def test_inconsistent_span_rejected(self, vocab, span):
        w = two_sentence_window(vocab)
        with pytest.raises(O.ObjectiveError, match="current span"):
            O.partition_masks([w, replace(w, current_span=span)])


class TestConcatLoss:
    def test_k1_window_equals_current_only(self, vocab):
        w = R.window_from_sentences([["t0", "t1"]], [["t0", "t1"]], vocab)
        losses = T.Tensor(np.array([0.5, 0.25, 0.125]))
        total = R.concat_loss(losses, w)
        bd = discounted(losses, w, cd=1.0)
        assert total.item() == pytest.approx(bd.current_loss.item())
        assert bd.context_loss.item() == 0.0

    def test_equals_context_plus_current(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(stream(0, "loss").uniform(0, 1, len(w.tgt_ids)))
        bd = discounted(losses, w, cd=1.0)
        assert R.concat_loss(losses, w).item() == pytest.approx(
            bd.current_loss.item() + bd.context_loss.item(), rel=1e-12)

    def test_tiny_hand_case_matches_manual_sum(self, vocab):
        # 3-token K=1 window with hand-set probabilities for each position
        w = R.window_from_sentences([["t0", "t1"]], [["t0", "t1"]], vocab)
        probs = [0.5, 0.25, 0.8]  # p(correct token) at the 3 target positions
        per_tok = [-math.log(p) for p in probs]
        manual = sum(per_tok)
        total = R.concat_loss(T.Tensor(np.array(per_tok)), w)
        assert total.item() == pytest.approx(manual, rel=1e-12)


class TestContextDiscountedLoss:
    def test_cd_one_reproduces_concat_loss_exactly(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(stream(1, "loss").uniform(0, 1, len(w.tgt_ids)))
        bd = discounted(losses, w, cd=1.0)
        assert bd.discounted_total.item() == pytest.approx(R.concat_loss(losses, w).item(),
                                                           rel=1e-12)

    def test_cd_zero_keeps_only_current(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(stream(2, "loss").uniform(0, 1, len(w.tgt_ids)))
        bd = discounted(losses, w, cd=0.0)
        assert bd.discounted_total.item() == pytest.approx(bd.current_loss.item(), rel=1e-12)

    def test_partition_counts_complete(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(np.ones(len(w.tgt_ids)))
        bd = discounted(losses, w, cd=0.5)
        assert bd.current_loss.item() + bd.context_loss.item() == len(w.tgt_ids)
        # separator of the context sentence counts as context, <E> as current
        assert bd.context_loss.item() == 3  # "t0", "t1", "<S>"
        assert bd.current_loss.item() == 2  # "t2", "<E>"

    def test_linearity_in_cd(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(stream(3, "loss").uniform(0, 1, len(w.tgt_ids)))
        a = discounted(losses, w, cd=0.9)
        b = discounted(losses, w, cd=0.4)
        assert a.discounted_total.item() - b.discounted_total.item() == pytest.approx(
            0.5 * a.context_loss.item(), rel=1e-9)

    def test_discount_identity_exact(self, vocab):
        w = two_sentence_window(vocab)
        losses = T.Tensor(stream(4, "loss").uniform(0, 1, len(w.tgt_ids)))
        bd = discounted(losses, w, cd=0.3)
        assert bd.discounted_total.item() == (0.3 * bd.context_loss.item()
                                              + bd.current_loss.item())

    def test_gradient_flows_through_total(self, vocab):
        w = two_sentence_window(vocab)
        raw = stream(5, "loss").uniform(0.1, 1, len(w.tgt_ids))
        x = T.Tensor(raw)
        with T.record(T.Graph()):
            bd = discounted(x, w, cd=0.25)
        T.backward(bd.discounted_total)
        cur_mask, ctx_mask = O.partition_masks([w])
        np.testing.assert_allclose(x.grad, cur_mask[0] + 0.25 * ctx_mask[0])

    def test_bad_cd_rejected(self, vocab):
        losses = T.Tensor(np.ones(5))
        with pytest.raises(O.ObjectiveError):
            discounted(losses, two_sentence_window(vocab), cd=1.5)


class TestLossRatio:
    def test_symmetric_case_is_one(self, vocab):
        # identical per-token losses and equal sentence lengths
        w = R.window_from_sentences([["t0", "t1"], ["t2", "t3"]],
                                  [["t0", "t1"], ["t2", "t3"]], vocab)
        losses = T.Tensor(np.ones(len(w.tgt_ids)))
        bd = discounted(losses, w, cd=1.0)
        assert O.loss_ratio([bd.current_loss.item()], [bd.context_loss.item()],
                            [1]) == pytest.approx(1.0)

    def test_definition_case(self):
        assert O.loss_ratio([2.0], [1.0], [1]) == pytest.approx(2.0)

    def test_context_average_per_sentence(self):
        # 3 context sentences: context loss averaged over them
        assert O.loss_ratio([2.0], [3.0], [3]) == pytest.approx(2.0)

    def test_undefined_ratio_is_nan(self):
        assert math.isnan(O.loss_ratio([1.0], [0.0], [0]))  # no context anywhere
        assert math.isnan(O.loss_ratio([1.0], [0.0], [1]))  # zero context loss
        assert math.isnan(O.loss_ratio([], [], []))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(O.ObjectiveError):
            O.loss_ratio([1.0, 2.0], [1.0], [1])


def test_smoothed_nll_gradcheck():
    rng = stream(6, "nll")
    logits = rng.normal(0, 1, (2, 3, 5))
    targets = rng.integers(0, 5, (2, 3))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def f(x):
        lp = T.log_softmax(x, axis=-1)
        per_tok = O.smoothed_nll(lp, targets, epsilon=0.1, pad_mask=mask)
        return T.reduce_sum(per_tok)

    assert R.finite_diff_check(f, T.Tensor(logits), 1e-5) < 1e-4
