"""The in-package Philox sampler against numpy, its reference.

``sample_gamble`` reimplements ``numpy.random.Generator(Philox(seed))``'s
geometric(1/2) draws in integer arithmetic.  These tests compare the key,
the raw 64-bit words and the payoffs with numpy itself, and are skipped
where numpy is not installed.
"""

from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarsesum import Gamble, sample_gamble
from coarsesum.stpetersburg import _philox_key, _philox_words

np = pytest.importorskip("numpy")

#: 2**128 + 5 has five 32-bit entropy words, one more than SeedSequence's pool.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]


def numpy_payoffs(trials, seed, truncation):
    rounds = np.random.Generator(np.random.Philox(seed)).geometric(0.5, size=trials)
    return [1 << (min(int(n), truncation) - 1) for n in rounds]


@pytest.mark.parametrize("seed", SEEDS)
def test_key_matches_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert _philox_key(seed) == tuple(int(k) for k in want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
def test_raw_words_match_numpy_philox(seed, k):
    want = [int(w) for w in np.random.Philox(seed).random_raw(k)]
    assert list(islice(_philox_words(_philox_key(seed)), k)) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [0, 1, 4, 5, 1500])
@pytest.mark.parametrize("truncation", [1, 2, 64])
def test_payoffs_match_numpy(seed, trials, truncation):
    assert sample_gamble(Gamble(truncation), trials, seed) == \
        numpy_payoffs(trials, seed, truncation)


@given(st.integers(min_value=0, max_value=2**70 - 1), st.integers(0, 60),
       st.sampled_from([1, 2, 5, 64, 100]))
def test_payoffs_match_numpy_for_any_seed(seed, trials, truncation):
    assert sample_gamble(Gamble(truncation), trials, seed) == \
        numpy_payoffs(trials, seed, truncation)

