"""Seeded RNG stream determinism."""

from repro.sim.rng import SeededRNG


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(42).stream("workload")
        b = SeededRNG(42).stream("workload")
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)]

    def test_different_names_are_decorrelated(self):
        rng = SeededRNG(42)
        a = [rng.stream("a").random() for _ in range(5)]
        b = [rng.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = SeededRNG(1).stream("x").random()
        b = SeededRNG(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        rng = SeededRNG(0)
        assert rng.stream("x") is rng.stream("x")

    def test_creation_order_does_not_matter(self):
        forward = SeededRNG(7)
        forward.stream("first")
        value_forward = forward.stream("second").random()
        backward = SeededRNG(7)
        value_backward = backward.stream("second").random()
        backward.stream("first")
        assert value_forward == value_backward
