"""Shared fixtures: one small synthetic subject reused across test modules."""
import numpy as np
import pytest

from cardiosleep import pipeline, registry, synth


@pytest.fixture(scope="session")
def clean_subject():
    """A low-noise 40-epoch subject with known stages."""
    return synth.generate_subject(seed=3, profile=synth.easy_profile(),
                                  n_epochs=40)


@pytest.fixture(scope="session")
def processed_subject(clean_subject):
    """The clean subject preprocessed with both belts, for either profile."""
    return pipeline.preprocess_subject(clean_subject, "two-channel")


@pytest.fixture(scope="session")
def night_960_subject():
    """A preprocessed 960-epoch synthetic night (seed 1000, 25 Hz belts),
    both belts."""
    record = synth.generate_subject(seed=1000, profile=synth.easy_profile(),
                                    n_epochs=960)
    return pipeline.preprocess_subject(record, "two-channel")


@pytest.fixture(scope="session")
def single_manifest():
    return registry.build_manifest("single")


@pytest.fixture(scope="session")
def feature_matrix(processed_subject, single_manifest):
    return registry.assemble_feature_matrix(processed_subject, single_manifest)


def random_rr(rng, n, mean=0.9, sd=0.05):
    """A plausible RR series: cumulative peak times plus per-interval values."""
    values = np.clip(rng.normal(mean, sd, n), 0.35, 1.9)
    times = np.concatenate([[0.2], 0.2 + np.cumsum(values)])
    return times[:-1], values
