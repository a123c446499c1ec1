import pytest

from perfbench import stats


class TestNearestRank:
    def test_rank_is_ceiling(self):
        assert stats.rank(50, 4) == 2
        assert stats.rank(50, 5) == 3
        assert stats.rank(90, 120) == 108
        assert stats.rank(99, 1000) == 990
        assert stats.rank(100, 7) == 7

    def test_percentile_picks_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 20) == 1.0
        assert stats.percentile(values, 21) == 2.0
        assert stats.percentile(values, 100) == 5.0
        assert stats.median([2.0, 1.0]) == 1.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.rank(0, 10)
        with pytest.raises(ValueError):
            stats.rank(101, 10)


class TestTenBeyondRule:
    @pytest.mark.parametrize(
        "p, enough", [(90, 100), (99, 1000), (95, 200), (99.9, 10000)]
    )
    def test_smallest_supporting_sample_count(self, p, enough):
        assert stats.min_samples(p) == enough
        assert stats.supports(p, enough)
        assert not stats.supports(p, enough - 1)
        assert stats.beyond(p, enough) == stats.TAIL_BEYOND

    def test_median_needs_one_sample(self):
        assert stats.supports(50, 1)
        assert stats.min_samples(50) == 1

    def test_outcome_flags_thin_tails(self):
        from perfbench.common import Outcome

        out = Outcome()
        out.percentiles("cell", [float(i) for i in range(120)], 50, 90)
        assert out.unsupported_tails() == []
        out.percentiles("warm", [1.0] * 999, 99)
        [message] = out.unsupported_tails()
        assert message.startswith("warm_p99_ms: 999 samples") and "need 1000" in message


class TestNameGrammar:
    @pytest.mark.parametrize(
        "name", ["wall_s", "regalloc.rap.s", "cfg.reachdefs.solves_per_function.allocate", "9a-b", "a" * 64]
    )
    def test_valid(self, name):
        assert stats.valid_name(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "a" * 65, "wall_s\n"])
    def test_invalid(self, name):
        assert not stats.valid_name(name)

    @pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "Minstr/s", "count/fn"])
    def test_units(self, unit):
        assert stats.valid_unit(unit)

    @pytest.mark.parametrize("unit", ["", "m s", "a" * 17])
    def test_bad_units(self, unit):
        assert not stats.valid_unit(unit)
