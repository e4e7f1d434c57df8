import random

from adlog import render
from adlog.selftest import (InstanceGenerator, brute_force_family,
                            random_ground_program, suite_fixtures,
                            suite_ordering)


class TestDeterminism:
    def test_instance_generator_replays_with_same_seed(self):
        def sample(seed):
            gen = InstanceGenerator(random.Random(seed))
            return [(render(s.up.program), render(s.up.delta), render(s.database))
                    for s in (gen.instance() for _ in range(10))]
        assert sample(42) == sample(42)
        assert sample(42) != sample(43)

    def test_ground_program_generator_replays(self):
        def sample(seed):
            rng = random.Random(seed)
            return [render(random_ground_program(rng)) for _ in range(10)]
        assert sample(5) == sample(5)

    def test_suite_results_replay_with_same_seed(self):
        first = suite_ordering(8, seed=123)
        second = suite_ordering(8, seed=123)
        assert (first.cases, first.failures) == (second.cases, second.failures)


class TestOracleShape:
    def test_brute_force_is_sorted_and_duplicate_free(self):
        rng = random.Random(9)
        for _ in range(10):
            program = random_ground_program(rng)
            family = brute_force_family(program)
            keys = [m.render_key() for m in family]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_fixture_suite_is_green():
    result = suite_fixtures()
    assert result.failures == []
