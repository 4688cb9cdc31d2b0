"""Metrics and reporting: confusion, kappa, CDF, ranking, importance."""
import numpy as np
import pytest

from cardiosleep import blstm, evaluate
from cardiosleep.errors import (DegenerateMarginals, EmptyList, EmptyMatrix,
                                LengthMismatch)
from cardiosleep.evaluate import ConfusionMatrix
from cardiosleep.types import four_hypnogram_from_indices


def _cm(a):
    return ConfusionMatrix(np.array(a))


class TestConfusionMatrix:
    def test_counts_by_truth_row(self):
        pred = four_hypnogram_from_indices([0, 1, 1, 2, 3])
        truth = four_hypnogram_from_indices([0, 1, 2, 2, 3])
        cm = evaluate.confusion_matrix(pred, truth)
        assert cm.counts[2, 1] == 1  # one deep epoch predicted light
        assert cm.counts[2, 2] == 1
        assert np.trace(cm.counts) == 4
        assert cm.total == 5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate.confusion_matrix(four_hypnogram_from_indices([0]),
                                      four_hypnogram_from_indices([0, 1]))

    def test_addition(self):
        a = _cm([[1, 0, 0, 0]] + [[0] * 4] * 3)
        b = _cm([[1, 2, 0, 0]] + [[0] * 4] * 3)
        c = a + b
        assert c.counts[0, 0] == 2 and c.counts[0, 1] == 2

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            _cm([[-1, 0, 0, 0]] + [[0] * 4] * 3)


class TestAccuracyKappa:
    def test_accuracy_closed_form(self):
        cm = _cm([[45, 15, 0, 0], [25, 15, 0, 0],
                  [0, 0, 0, 0], [0, 0, 0, 0]])
        assert evaluate.accuracy(cm) == pytest.approx(0.6)

    def test_kappa_hand_computed(self):
        # p_o = 0.6, p_e = 0.7*0.6 + 0.3*0.4 = 0.54 -> kappa = 0.06/0.46
        cm = _cm([[45, 15, 0, 0], [25, 15, 0, 0],
                  [0, 0, 0, 0], [0, 0, 0, 0]])
        assert evaluate.cohens_kappa(cm) == pytest.approx(0.06 / 0.46, abs=1e-12)

    def test_kappa_zero_for_independent_marginals(self):
        # rank-one table: counts = 100 * rows x cols
        rows = np.array([0.4, 0.3, 0.2, 0.1])
        cols = np.array([0.1, 0.2, 0.3, 0.4])
        cm = ConfusionMatrix((np.outer(rows, cols) * 1000).astype(int))
        assert evaluate.cohens_kappa(cm) == pytest.approx(0.0, abs=1e-12)

    def test_kappa_one_for_perfect_agreement(self):
        cm = _cm(np.diag([10, 20, 30, 40]))
        assert evaluate.cohens_kappa(cm) == pytest.approx(1.0)

    def test_kappa_degenerate_marginals(self):
        cm = _cm([[50, 0, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(DegenerateMarginals):
            evaluate.cohens_kappa(cm)

    def test_empty_matrix(self):
        cm = _cm([[0] * 4] * 4)
        with pytest.raises(EmptyMatrix):
            evaluate.accuracy(cm)

    def test_uniform_predictions_near_quarter(self):
        rng = np.random.default_rng(0)
        pred = four_hypnogram_from_indices(rng.integers(0, 4, 10000))
        truth = four_hypnogram_from_indices(rng.integers(0, 4, 10000))
        acc = evaluate.accuracy(evaluate.confusion_matrix(pred, truth))
        assert acc == pytest.approx(0.25, abs=0.02)


class TestCdf:
    def test_steps(self):
        cdf = evaluate.per_subject_cdf([0.9, 0.7, 0.9, 0.8])
        assert cdf == [(0.7, 0.25), (0.8, 0.5), (0.9, 1.0)]

    def test_empty(self):
        with pytest.raises(EmptyList):
            evaluate.per_subject_cdf([])


class TestRankCases:
    def test_basic_ranking(self):
        per = {"a": 0.9, "b": 0.5, "c": 0.7}
        assert evaluate.rank_cases(per) == ("a", "c", "b")

    def test_even_count_takes_lower_middle(self):
        per = {"a": 0.9, "b": 0.5, "c": 0.7, "d": 0.8}
        assert evaluate.rank_cases(per)[1] == "c"

    def test_ties_break_lexically(self):
        per = {"b": 0.9, "a": 0.9, "d": 0.1, "c": 0.1}
        best, _, worst = evaluate.rank_cases(per)
        assert best == "a"
        assert worst == "c"
        # one id a prefix of another: "s1" < "s10"
        assert evaluate.rank_cases({"s1": .9, "s10": .9, "s2": .5})[0] == "s1"

    def test_empty(self):
        with pytest.raises(EmptyList):
            evaluate.rank_cases({})


class TestPermutationImportance:
    def _model_and_data(self, useful_col=2, dim=6, seed=0):
        """A hand-built linear-ish model: only one column drives the logits."""
        rng = np.random.default_rng(seed)
        p = blstm.init_params(seed, input_dim=dim, hidden=4, layers=1)
        seqs = []
        for _ in range(3):
            y = rng.integers(0, 4, 20)
            X = rng.normal(size=(20, dim)) * 0.01
            X[:, useful_col] = y * 2.0 - 3.0
            seqs.append((X, y))
        cfg = blstm.TrainConfig(learning_rate=0.05, max_epochs=60,
                                batch_size=1, patience=60, seed=seed)
        params, _ = blstm.train(cfg, seqs)
        return params, seqs

    def test_planted_feature_ranks_first(self):
        params, seqs = self._model_and_data()
        names = [f"f{i}" for i in range(6)]
        ranking = evaluate.permutation_importance(params, seqs, names,
                                                  seed=0, repeats=3)
        assert ranking[0][0] == "f2"
        assert ranking[0][1] > 0.2

    def test_constant_feature_has_zero_importance(self):
        params, seqs = self._model_and_data()
        # a column that is constant across epochs is unchanged by shuffling
        frozen = [(np.array(X), y) for X, y in seqs]
        for X, _ in frozen:
            X[:, 5] = 1.0
        names = [f"f{i}" for i in range(6)]
        ranking = dict(evaluate.permutation_importance(params, frozen, names,
                                                       seed=0, repeats=2))
        assert ranking["f5"] == 0.0

    def test_deterministic_per_seed(self):
        params, seqs = self._model_and_data()
        names = [f"f{i}" for i in range(6)]
        a = evaluate.permutation_importance(params, seqs, names, seed=3)
        b = evaluate.permutation_importance(params, seqs, names, seed=3)
        assert a == b

    def test_argument_validation(self):
        params, seqs = self._model_and_data()
        with pytest.raises(ValueError):
            evaluate.permutation_importance(params, seqs, ["f"] * 6, repeats=0)
        with pytest.raises(EmptyList):
            evaluate.permutation_importance(params, [], ["f"] * 6)
        with pytest.raises(ValueError):
            evaluate.permutation_importance(params, seqs, ["f"] * 5)


class TestFormat:
    def test_confusion_rendering(self):
        text = evaluate.format_confusion(_cm(np.diag([1, 2, 3, 4])))
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split() == ["truth\\pred", "WAKE", "LIGHT", "DEEP", "REM"]
        assert lines[1].split() == ["WAKE", "1", "0", "0", "0"]
