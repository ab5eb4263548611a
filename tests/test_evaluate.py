import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbench.evaluate import (
    ConfusionCounts, aggregate_folds, confusion, evaluate, metrics, per_attack_dr,
    roc_auc,
)
from helpers import full_roc, roc_vertices


def rank_statistic_auc(scores, labels):
    """Exhaustive pairwise oracle: P(s+ > s-) + 0.5 * P(s+ = s-)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_basic(self):
        c = confusion([0.9, 0.1], [1, 0], 0.5)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_tie_goes_positive(self):
        c = confusion([0.5], [0], 0.5)
        assert c.fp == 1

    def test_all_negative(self):
        c = confusion([0.1] * 7, [0] * 7, 0.5)
        assert c.tn == 7 and c.total == 7

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0.5, 0.5], [1], 0.5)


class TestMetrics:
    def test_reference_counts(self):
        m = metrics(ConfusionCounts(tp=50, tn=40, fp=5, fn=5))
        assert abs(m.acc - 0.90) < 5e-5
        assert abs(m.dr - 50 / 55) < 5e-5
        assert abs(m.far - 5 / 45) < 5e-5
        assert abs(m.precision - 50 / 55) < 5e-5
        assert abs(m.f1 - 50 / 55) < 5e-5

    def test_perfect(self):
        m = metrics(ConfusionCounts(tp=10, tn=20, fp=0, fn=0))
        assert (m.acc, m.dr, m.precision, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert m.far == 0.0 and not m.degenerate

    def test_degenerate_zero_tp(self):
        m = metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=5))
        assert m.dr == 0.0 and m.f1 == 0.0 and m.degenerate

    def test_threshold_extremes(self):
        p = np.array([0.2, 0.8, 0.5])
        y = np.array([1, 0, 1])
        assert metrics(confusion(p, y, 0.0)).dr == 1.0
        assert metrics(confusion(p, y, 1.0 + 1e-9)).far == 0.0


class TestRocAuc:
    def test_hand_enumerable(self):
        _, auc = roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert auc == 0.75

    def test_perfect_separation(self):
        _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        n = 4000
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        _, auc = roc_auc(scores, labels)
        assert abs(auc - 0.5) < 0.05

    def test_oracle_equivalence_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of tied scores
            scores = rng.integers(0, 5, n) / 4.0
            _, auc = roc_auc(scores, labels)
            assert abs(auc - rank_statistic_auc(scores, labels)) < 1e-12

    def test_curve_shape(self):
        curve, _ = roc_auc([0.6, 0.6, 0.4, 0.3, 0.3], [1, 0, 1, 0, 1])
        assert curve.far[0] == 0.0 and curve.dr[0] == 0.0
        assert curve.far[-1] == 1.0 and curve.dr[-1] == 1.0
        assert (np.diff(curve.far) >= 0).all()
        assert (np.diff(curve.dr) >= 0).all()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        labels[0], labels[1] = 0, 1
        _, base = roc_auc(scores, labels)
        _, exp_auc = roc_auc(np.exp(scores), labels)
        _, affine_auc = roc_auc(3.0 * scores + 2.0, labels)
        assert abs(base - exp_auc) < 1e-12
        assert abs(base - affine_auc) < 1e-12

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        scores = rng.random(101)
        labels = rng.integers(0, 2, 101)
        labels[:2] = [0, 1]
        _, auc = roc_auc(scores, labels)
        _, auc_flipped = roc_auc(scores, 1 - labels)
        assert abs(auc + auc_flipped - 1.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("scores, labels, far, dr", [
        ([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]),
        ([0.5] * 4, [1, 0, 1, 0], [0.0, 1.0], [0.0, 1.0]),
        # three tie groups of one positive and one negative: one diagonal run
        ([0.9, 0.9, 0.5, 0.5, 0.1, 0.1], [1, 0, 0, 1, 1, 0], [0.0, 1.0], [0.0, 1.0]),
        # up, diagonal, diagonal, right: the two diagonal steps merge
        ([0.9, 0.7, 0.7, 0.6, 0.6, 0.1], [1, 1, 0, 0, 1, 0],
         [0.0, 0.0, 2 / 3, 1.0], [0.0, 1 / 3, 1.0, 1.0]),
    ], ids=["perfect", "all-tied", "diagonal", "mixed"])
    def test_known_vertex_curves(self, scores, labels, far, dr):
        curve, auc = roc_auc(scores, labels)
        assert curve.far.tolist() == far and curve.dr.tolist() == dr
        assert auc == rank_statistic_auc(scores, labels)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, bad):
        scores = [0.9, 0.1, bad, 0.5, bad]
        labels = [1, 0, 1, 0, 1]
        for check in (lambda: roc_auc(scores, labels), lambda: confusion(scores, labels),
                      lambda: per_attack_dr(scores, labels, ["a"] * 5),
                      lambda: evaluate(scores, labels)):
            with pytest.raises(ValueError, match="^probability at index 2 is not finite"):
                check()

    def test_nan_first_is_not_a_low_score(self):
        # a NaN once sorted below every score and read as a negative: AUC 0.5
        with pytest.raises(ValueError, match="index 0"):
            roc_auc([float("nan"), 0.9, 0.1, 0.5], [1, 1, 0, 0])


class TestPerAttackDr:
    def test_all_detected(self):
        table = per_attack_dr([0.9, 0.9, 0.1], [1, 1, 0],
                              ["dos", "scan", "benign"], 0.5)
        assert table == {"dos": (1, 1, 1.0), "scan": (1, 1, 1.0)}

    def test_none_detected(self):
        table = per_attack_dr([0.1] * 10, [1] * 10, ["worm"] * 10, 0.5)
        assert table["worm"] == (10, 0, 0.0)

    def test_planted_rates(self):
        rng = np.random.default_rng(3)
        rates = {"a": 0.9, "b": 0.5, "c": 0.2}
        n_per = 400
        labels, types, probs = [], [], []
        for name, rate in rates.items():
            labels += [1] * n_per
            types += [name] * n_per
            probs += list((rng.random(n_per) < rate).astype(float))
        table = per_attack_dr(probs, labels, types, 0.5)
        for name, rate in rates.items():
            actual, _, dr = table[name]
            sigma = np.sqrt(rate * (1 - rate) / n_per)
            assert actual == n_per
            assert abs(dr - rate) < 3 * sigma + 1e-9

    def test_two_folds_pooled(self):
        # the out-of-fold predictions of two folds, concatenated
        table = per_attack_dr([0.9, 0.1] + [0.2, 0.8, 0.3], [1, 0] + [1, 1, 0],
                              ["dos", "benign"] + ["dos", "dos", "benign"])
        assert table == {"dos": (3, 2, 2 / 3)}

    def test_alignment_mismatch(self):
        with pytest.raises(ValueError):
            per_attack_dr([0.5], [1, 1], ["a", "b"], 0.5)


class TestAggregate:
    def test_identical_reports(self):
        r = evaluate([0.9, 0.1], [1, 0])
        agg = aggregate_folds([r, r, r])
        assert agg.acc == r.acc and agg.auc == r.auc
        assert agg.counts.total == 3 * r.counts.total

    def test_mean_auc(self):
        a = evaluate([0.9, 0.8, 0.1], [1, 1, 0])
        b = evaluate([0.9, 0.2, 0.4], [1, 0, 1])
        agg = aggregate_folds([a, b])
        assert abs(agg.auc - (a.auc + b.auc) / 2) < 1e-15

    def test_counts_partition(self):
        rng = np.random.default_rng(4)
        reports = []
        total = 0
        for _ in range(5):
            n = int(rng.integers(10, 30))
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            reports.append(evaluate(rng.random(n), y))
            total += n
        assert aggregate_folds(reports).counts.total == total

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([])

    def test_single_report_metrics_recomputable_from_counts(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        report = evaluate(rng.random(40), y)
        m = metrics(report.counts)
        assert (m.acc, m.precision, m.dr, m.far, m.f1) == (
            report.acc, report.precision, report.dr, report.far, report.f1
        )


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=4, max_size=60))
@settings(max_examples=150, deadline=None)
def test_auc_matches_rank_oracle_property(pairs):
    scores = np.array([p for p, _ in pairs])
    labels = np.array([l for _, l in pairs])
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    curve, auc = roc_auc(scores, labels)
    assert abs(auc - rank_statistic_auc(scores, labels)) < 1e-12
    # the last tie group ends at the last row, so the curve ends at exactly (1, 1)
    assert (curve.far[-1], curve.dr[-1]) == (1.0, 1.0)


@given(st.lists(st.tuples(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                          st.integers(0, 1)), min_size=2, max_size=80))
@settings(max_examples=200, deadline=None)
def test_roc_curve_is_the_vertex_set_property(pairs):
    scores = np.array([p for p, _ in pairs])
    labels = np.array([l for _, l in pairs])
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    curve, auc = roc_auc(scores, labels)
    assert abs(auc - rank_statistic_auc(scores, labels)) < 1e-12
    fp, tp, far, dr = full_roc(scores, labels)
    assert repr(auc) == repr(float(np.trapezoid(dr, far)))
    # the kept points are full-curve points, same floats, same order
    index = {(f, d): i for i, (f, d) in enumerate(zip(far.tolist(), dr.tolist()))}
    kept = [index[point] for point in zip(curve.far.tolist(), curve.dr.tolist())]
    assert kept == sorted(set(kept))
    assert curve.far.tobytes() == far[kept].tobytes()
    assert curve.dr.tobytes() == dr[kept].tobytes()
    assert kept[0] == 0 and kept[-1] == fp.size - 1

    def cross(a, i, b):  # zero when point i lies on the line through a and b
        return int((fp[i] - fp[a]) * (tp[b] - tp[a]) - (tp[i] - tp[a]) * (fp[b] - fp[a]))

    for a, b in zip(kept, kept[1:]):
        assert all(cross(a, i, b) == 0 for i in range(a + 1, b))
    for a, v, b in zip(kept, kept[1:], kept[2:]):
        assert cross(a, v, b) != 0
    assert kept == roc_vertices(fp, tp)
