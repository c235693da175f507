"""random_words / build_random_array reproduce randrange draws exactly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.kernels import build_array, build_random_array, random_words

#: 1, powers of two and their neighbours up to 2**31, plus arbitrary widths.
WIDTHS = st.one_of(
    st.integers(0, 31).flatmap(
        lambda k: st.sampled_from([max(1, (1 << k) + d) for d in (-1, 0, 1)])
    ),
    st.integers(1, 1 << 31),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    lo=st.integers(-(1 << 40), 1 << 40),
    width=WIDTHS,
    count=st.one_of(st.just(0), st.integers(0, 300)),
)
def test_random_words_matches_randrange(seed, lo, width, count):
    expected_rng = random.Random(seed)
    expected = [expected_rng.randrange(lo, lo + width) for _ in range(count)]
    rng = random.Random(seed)
    assert random_words(rng, lo, lo + width, count) == expected
    assert rng.getstate() == expected_rng.getstate()


def test_random_words_rejects_an_empty_range():
    with pytest.raises(ValueError):
        random_words(random.Random(0), 5, 5, 1)


def test_build_random_array_matches_build_array():
    expected_rng, rng = random.Random(3), random.Random(3)
    expected, memory = {0: 1}, {0: 1}
    build_array(expected, base=0x1000, num_words=100,
                value=lambda i: expected_rng.randrange(1, 255))
    build_random_array(memory, rng, base=0x1000, num_words=100, lo=1, hi=255)
    assert list(memory.items()) == list(expected.items())
    assert rng.getstate() == expected_rng.getstate()
