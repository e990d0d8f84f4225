import random

from hypadd.sampling import random_curve_fp, sample_pair_q, sample_point_fp

TEST_PRIME = 10007


def fp_pair(field, genus, rng):
    """A curve and two points on it over a prime field."""
    c = random_curve_fp(field, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


q_pair = sample_pair_q


def seeded(tag: str) -> random.Random:
    return random.Random(f"hypadd-tests:{tag}")
