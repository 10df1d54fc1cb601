"""The in-package Philox sampler against numpy, its reference, and against a loop of
one block at a time.

``sample_gamble`` reimplements ``numpy.random.Generator(Philox(seed))``'s
geometric(1/2) draws in integer arithmetic.  Most tests here compare the key,
the raw 64-bit words and the payoffs with numpy itself, and are skipped where
numpy is not installed.  The lane test needs no numpy: it checks the words of
the batched generator against ``model.philox_blocks``, the oracle that draws one
block at a time, for short draws and for draws at the edges of its one batch size
of 4096 blocks.  Every draw asks the generator for the blocks it fills, as
``sample_gamble`` does.
"""

from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

import model
from coarsesum import sample_gamble
from coarsesum.stpetersburg import _philox_key, _philox_words

try:
    import numpy as np
except ImportError:
    np = None
needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed")

#: 2**128 + 5 has five 32-bit entropy words, one more than SeedSequence's pool.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]
#: Words drawn at the batch edges: a batch holds at most 4096 blocks of four words, so
#: draws end one word before, at and one word after one full batch, and just past two.
BATCH_EDGES = [4 * 4096 - 1, 4 * 4096, 4 * 4096 + 1, 4 * 8192 + 3]


def words(key, k):
    """The first ``k`` words, drawn as ``sample_gamble`` draws them: in the blocks they fill."""
    return list(islice(_philox_words(key, -(-k // 4)), k))


@pytest.mark.parametrize("seed", SEEDS)
def test_lane_words_match_one_block_at_a_time(seed):
    key = _philox_key(seed)
    counts = [*range(10), *BATCH_EDGES]
    want = list(islice(model.philox_blocks(key), max(counts)))
    for k in counts:
        assert words(key, k) == want[:k], k


def numpy_payoffs(trials, seed, truncation):
    rounds = np.random.Generator(np.random.Philox(seed)).geometric(0.5, size=trials)
    return [1 << (min(int(n), truncation) - 1) for n in rounds]


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_key_matches_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert _philox_key(seed) == tuple(int(k) for k in want)


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
def test_raw_words_match_numpy_philox(seed, k):
    want = [int(w) for w in np.random.Philox(seed).random_raw(k)]
    assert words(_philox_key(seed), k) == want


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [0, 1, 4, 5, 1500])
@pytest.mark.parametrize("truncation", [1, 2, 64])
def test_payoffs_match_numpy(seed, trials, truncation):
    assert sample_gamble(truncation, trials, seed) == \
        numpy_payoffs(trials, seed, truncation)


@needs_numpy
@given(st.integers(min_value=0, max_value=2**70 - 1), st.integers(0, 60),
       st.sampled_from([1, 2, 5, 64, 100]))
def test_payoffs_match_numpy_for_any_seed(seed, trials, truncation):
    assert sample_gamble(truncation, trials, seed) == \
        numpy_payoffs(trials, seed, truncation)

