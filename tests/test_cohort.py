"""AHI grading, regular-sleep filter, stage merging, subject splits."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiosleep import cohort
from cardiosleep.cohort import AhiLevel
from cardiosleep.errors import EmptyHypnogram, EmptyList, NegativeAhi
from cardiosleep.types import FourStage, Hypnogram, SixStage, SubjectRecord


def _six(tokens):
    m = {"W": SixStage.W, "R": SixStage.REM, "1": SixStage.S1,
         "2": SixStage.S2, "3": SixStage.S3, "4": SixStage.S4}
    return Hypnogram(tuple(m[t] for t in tokens), "six")


class TestClassifyAhi:
    @pytest.mark.parametrize("ahi,level", [
        (0.0, AhiLevel.NO_APNEA),
        (4.999, AhiLevel.NO_APNEA),
        (5.0, AhiLevel.MILD),
        (14.999, AhiLevel.MILD),
        (15.0, AhiLevel.MEDIUM),
        (30.0, AhiLevel.MEDIUM),
        (30.001, AhiLevel.SEVERE),
        (80.0, AhiLevel.SEVERE),
    ])
    def test_boundaries(self, ahi, level):
        assert cohort.classify_ahi(ahi) is level

    def test_negative_rejected(self):
        with pytest.raises(NegativeAhi):
            cohort.classify_ahi(-0.1)

    @given(st.floats(0.0, 100.0))
    def test_monotone_in_ahi(self, ahi):
        level = cohort.classify_ahi(ahi)
        assert cohort.classify_ahi(ahi + 1.0) >= level


class TestRegularSleep:
    def test_exact_thresholds_inclusive(self):
        # 20 epochs: 1 deep (5%), 3 REM (15%)
        hyp = _six("3" + "R" * 3 + "2" * 16)
        assert cohort.is_regular_sleep(hyp)

    def test_just_below_deep_threshold(self):
        # 21 epochs: 1 deep is 4.76%
        hyp = _six("3" + "R" * 4 + "2" * 16)
        assert not cohort.is_regular_sleep(hyp)

    def test_just_below_rem_threshold(self):
        hyp = _six("33" + "R" * 5 + "2" * 33)  # REM 5/40 = 12.5%
        assert not cohort.is_regular_sleep(hyp)

    def test_s4_counts_as_deep(self):
        hyp = _six("4" + "R" * 3 + "2" * 16)
        assert cohort.is_regular_sleep(hyp)

    def test_wake_epochs_count_in_denominator(self):
        # 1 deep + 3 REM + 16 light + 20 wake: 5% and 15% of the sleep
        # epochs, but only 2.5% and 7.5% of all epochs
        hyp = _six("3" + "R" * 3 + "2" * 16 + "W" * 20)
        assert not cohort.is_regular_sleep(hyp)

    def test_empty_rejected(self):
        with pytest.raises(EmptyHypnogram):
            cohort.is_regular_sleep(Hypnogram((), "six"))

    def test_four_class_input_rejected(self):
        with pytest.raises(ValueError):
            cohort.is_regular_sleep(Hypnogram((FourStage.WAKE,), "four"))


class TestMergeStages:
    def test_mapping(self):
        merged = cohort.merge_stages(_six("W12R34"))
        assert merged.scheme == "four"
        assert [s.value for s in merged.labels] == [
            "WAKE", "LIGHT", "LIGHT", "REM", "DEEP", "DEEP"]

    def test_four_class_passthrough(self):
        hyp = Hypnogram((FourStage.REM,), "four")
        assert cohort.merge_stages(hyp) is hyp


class TestSelectCohort:
    def _subject(self, sid, ahi, tokens="3R R R 2222222222222222".replace(" ", "")):
        return SubjectRecord(subject_id=sid, ahi=ahi, hypnogram=_six(tokens))

    def test_gate_and_merge(self):
        subjects = [self._subject("a", 2.0), self._subject("b", 7.0)]
        kept, log = cohort.select_cohort(subjects)
        assert kept == ["a"]
        assert any("b\texcluded" in line for line in log)

    def test_missing_metadata_excluded(self):
        subjects = [SubjectRecord(subject_id="x", ahi=None, hypnogram=_six("W")),
                    SubjectRecord(subject_id="y", ahi=1.0, hypnogram=None)]
        kept, log = cohort.select_cohort(subjects)
        assert kept == []
        assert len(log) == 2

    def test_irregular_sleep_excluded(self):
        subjects = [SubjectRecord(subject_id="z", ahi=1.0,
                                  hypnogram=_six("W" * 20))]
        kept, log = cohort.select_cohort(subjects)
        assert kept == []
        assert "irregular sleep" in log[0]

    def test_negative_ahi_excluded_not_fatal(self):
        subjects = [SubjectRecord(subject_id="n", ahi=-1.0,
                                  hypnogram=_six("W")),
                    self._subject("ok", 0.0)]
        kept, _ = cohort.select_cohort(subjects)
        assert kept == ["ok"]


class TestSplitSubjects:
    def test_417_subjects_split_291_126(self):
        ids = [f"s{i:04d}" for i in range(417)]
        train, val = cohort.split_subjects(ids, 0.7, seed=0)
        assert len(train) == 291
        assert len(val) == 126

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"s{i}" for i in range(50)]
        a = cohort.split_subjects(ids, 0.7, seed=1)
        b = cohort.split_subjects(ids, 0.7, seed=1)
        c = cohort.split_subjects(ids, 0.7, seed=2)
        assert a == b
        assert a != c

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            cohort.split_subjects([], 0.7, 0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            cohort.split_subjects(["a"], 1.0, 0)

    @given(n=st.integers(1, 200), ratio=st.floats(0.05, 0.95),
           seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, ratio, seed):
        ids = [f"s{i}" for i in range(n)]
        train, val = cohort.split_subjects(ids, ratio, seed)
        assert len(train) == int(np.floor(ratio * n))
        assert sorted(train + val) == sorted(ids)
        assert not set(train) & set(val)
