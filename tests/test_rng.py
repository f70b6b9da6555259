from hypothesis import given
from hypothesis import strategies as st

from wsncrypt.rng import MASK64, mix64, mix64_lanes

LANE = (1 << 128) - 1

words = st.sampled_from([0, MASK64]) | st.integers(0, MASK64)


def pack(lanes):
    return sum(lane << (128 * i) for i, lane in enumerate(lanes))


def test_mix64_known_values():
    # splitmix64's first outputs from state 0 (Steele, Lea and Flood 2014)
    golden = 0x9E3779B97F4A7C15
    assert mix64(golden) == 0xE220A8397B1DCDAF
    assert mix64(2 * golden) == 0x6E789E6AA1B965F4


@given(st.integers(0, LANE))
def test_one_lane_is_mix64(x):
    assert mix64_lanes(x, MASK64) == mix64(x)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=64))
def test_packed_lanes_mix_like_mix64_each(lanes):
    """Lane i of the packed result is mix64 of lane i's low word, whatever
    its high half held, and no lane's bits reach its neighbour."""
    mask = pack([MASK64] * len(lanes))
    mixed = mix64_lanes(pack([low | (high << 64) for low, high in lanes]), mask)
    assert [(mixed >> (128 * i)) & LANE for i in range(len(lanes))] == [
        mix64(low) for low, _ in lanes
    ]
    assert mixed >> (128 * len(lanes)) == 0
