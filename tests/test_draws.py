"""The samplers' counter-based stream against SplitMix64 in Python ints."""

import warnings

import numpy as np
import pytest

import oracles
from fuzzyts import draws


def test_splitmix64_known_answers():
    # the first outputs of splitmix64.c from state 0
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    reference = oracles.SplitMix64(0)
    assert [reference.next() for _ in want] == want
    counters = np.arange(1, 4, dtype=np.uint64) * np.uint64(draws.GAMMA)
    assert draws.mix(counters).tolist() == want


@pytest.mark.parametrize("seed, layer", [(0, 0), (0, 3), (42, 2), (9, 1), (2 ** 63, 0),
                                         (2 ** 64 - 1, 3)])
def test_stream_equals_the_python_int_splitmix64_bit_for_bit(seed, layer):
    got, want = draws.Stream(seed, layer), oracles.Stream(seed, layer)
    assert got.random((3, 4)).tolist() == want.random((3, 4)).tolist()
    assert got.integers(-2, 7, 10).tolist() == want.integers(-2, 7, 10).tolist()
    assert got.uniform(0.5, 4.0, (5, 2)).tolist() == want.uniform(0.5, 4.0, (5, 2)).tolist()


def test_layers_and_seeds_give_different_streams():
    first = {(seed, layer): draws.Stream(seed, layer).random(4).tolist()
             for seed in (0, 1, 2 ** 64 - 1) for layer in range(4)}
    assert len({tuple(v) for v in first.values()}) == len(first)


def test_value_j_is_the_same_however_the_draws_are_split():
    split = draws.Stream(7, 2)
    parts = np.concatenate((split.random(5), split.random((7,))))
    assert parts.tolist() == draws.Stream(7, 2).random(12).tolist()
    rows = draws.Stream(7, 2).random((4, 3))
    assert rows.shape == (4, 3) and rows.ravel().tolist() == parts.tolist()


class LargestUniform(draws.Stream):
    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("low, high", [(0, 1), (0, 3), (-5, 6), (0, 10 ** 9 + 7),
                                       (0, 2 ** 52 + 1)])
def test_integers_stay_below_high_at_the_largest_uniform(low, high):
    assert LargestUniform(0, 0).integers(low, high, 3).tolist() == [high - 1] * 3


def test_drawing_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2 ** 64 - 1):
            stream = draws.Stream(seed, 3)
            values = stream.random(1000)
            stream.integers(0, 10, 100)
            stream.uniform(-1.0, 1.0, (50, 6))
    assert 0.0 <= values.min() and values.max() < 1.0
