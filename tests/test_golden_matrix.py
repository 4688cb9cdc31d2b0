"""Golden feature matrices: synth -> preprocess -> assembly must reproduce the
frozen 152-column output bit for bit, NaN positions included.

The two nights cover both breathing profiles. The 130-epoch night is long
enough that the 119-epoch sudden-variation window is clipped at both edges and
whole in the middle, and it has missing breathing entries.

Regenerate ``data/golden_matrices.npz`` only after a deliberate change to
feature values, by running this file as a script:

    PYTHONPATH=src python3 tests/test_golden_matrix.py
"""
from pathlib import Path

import numpy as np
import pytest

from cardiosleep import pipeline, registry, synth

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_matrices.npz"

# key -> (synth seed, epochs, manifest profile)
NIGHTS = {
    "single_seed3_40": (3, 40, "single"),
    "two_channel_seed11_130": (11, 130, "two-channel"),
}


def _matrix(seed: int, n_epochs: int, profile: str) -> np.ndarray:
    record = synth.generate_subject(seed=seed, profile=synth.easy_profile(),
                                    n_epochs=n_epochs)
    processed = pipeline.preprocess_subject(record, profile)
    return registry.assemble_feature_matrix(
        processed, registry.build_manifest(profile)).values


@pytest.mark.parametrize("key", sorted(NIGHTS))
def test_matrix_matches_golden(key):
    with np.load(GOLDEN) as d:
        expected = d[key]
    got = _matrix(*NIGHTS[key])
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **{k: _matrix(*v) for k, v in NIGHTS.items()})
    print(f"wrote {GOLDEN}")
