"""Tests for the one memo rule (`repro.core.memo`)."""

from repro.core.memo import Memo, Segments, next_epoch
from repro.core.observability import CACHE_SCHEMA_KEYS


class _State:
    """A source whose token is its ``epoch``."""

    def __init__(self):
        self.epoch = next_epoch()
        self.value = 0

    def write(self, value):
        self.value = value
        self.epoch = next_epoch()


def _token(state):
    return state.epoch


def _read(state, key):
    return (key, state.value)


class TestEpochs:
    def test_epochs_never_repeat(self):
        drawn = [next_epoch() for _ in range(100)]
        assert len(set(drawn)) == 100
        assert drawn == sorted(drawn)


class TestMemo:
    def test_hits_until_the_token_moves(self):
        state, memo = _State(), Memo(_token)
        assert memo.get(state, "k", _read, "k") == ("k", 0)
        assert memo.get(state, "k", _read, "k") == ("k", 0)
        state.write(1)
        assert memo.get(state, "k", _read, "k") == ("k", 1)
        stats = memo.stats()
        assert set(CACHE_SCHEMA_KEYS) <= set(stats)
        assert (stats["hits"], stats["misses"], stats["invalidations"],
                stats["evictions"], stats["size"]) == (1, 2, 1, 1, 1)

    def test_a_result_computed_while_the_token_moved_is_not_stored(self):
        state, memo = _State(), Memo(_token)

        def racing(source, key):
            found = _read(source, key)
            source.write(1)  # a writer lands after the read
            return found

        assert memo.get(state, "k", racing, "k") == ("k", 0)
        assert len(memo) == 0
        assert memo.get(state, "k", _read, "k") == ("k", 1)

    def test_a_full_memo_is_emptied(self):
        state, memo = _State(), Memo(_token, limit=2)
        for key in "abc":
            memo.get(state, key, _read, key)
        assert memo.items() == [("c", ("c", 0))]
        assert memo.stats()["evictions"] == 2
        assert memo.stats()["max_size"] == 2

    def test_without_a_token_values_depend_on_the_key_alone(self):
        memo, calls = Memo(limit=4), []

        def parse(source, text):
            calls.append(text)
            return text.upper()

        for _ in range(3):
            assert memo.get(None, "q", parse, "q") == "Q"
        assert calls == ["q"]
        memo.clear()
        assert "q" not in memo
        assert memo.get(None, "q", parse, "q") == "Q"
        assert calls == ["q", "q"]

    def test_a_none_value_is_remembered(self):
        state, memo, calls = _State(), Memo(_token), []

        def nothing(source, key):
            calls.append(key)
            return None

        assert memo.get(state, "k", nothing, "k") is None
        assert memo.get(state, "k", nothing, "k") is None
        assert calls == ["k"]


class TestSegments:
    def test_only_the_moved_segment_rebuilds(self):
        backings = [_State(), _State()]
        segments = Segments(lambda backing: backing.value)
        assert segments.values(backings) == [0, 0]
        assert (segments.hits, segments.misses, segments.rebuilds) == \
            (0, 1, 2)
        assert segments.values(backings) == [0, 0]
        backings[1].write(5)
        assert segments.values(backings) == [0, 5]
        assert (segments.hits, segments.misses, segments.rebuilds) == \
            (1, 2, 3)

    def test_a_replaced_backing_is_read_afresh(self):
        first, second = _State(), _State()
        second.value = 7
        segments = Segments(lambda backing: backing.value)
        assert segments.values([first]) == [0]
        assert segments.values([second]) == [7]
