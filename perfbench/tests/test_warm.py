from itertools import islice

import warm


def _first(seed, n=3000):
    return list(islice(warm.query_stream(seed), n))


def test_query_stream_repeats_for_a_seed_and_differs_across_seeds():
    assert _first(7) == _first(7)
    assert _first(7) != _first(8)


def test_query_stream_takes_turns():
    kinds = [q[0] for q in _first(1, 6)]
    pairs = [q[1] for q in _first(1, 6)]
    assert kinds == list(warm.KINDS) * 2
    assert pairs == [0, 0, 0, 1, 1, 1]
