import random

import pytest

from hypadd import make_field, star
from hypadd.errors import DegenerateConfiguration
from hypadd.sampling import random_curve_fp, sample_pair_q, sample_point_fp

TEST_PRIME = 10007


@pytest.fixture(scope="session")
def FQ():
    return make_field("q")


@pytest.fixture(scope="session")
def FP():
    return make_field("fp", TEST_PRIME)


def fp_pair(field, genus, rng):
    """A curve and two points on it over a prime field."""
    c = random_curve_fp(field, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


q_pair = sample_pair_q


def star_or_none(a1, a2):
    try:
        return star(a1, a2)
    except DegenerateConfiguration:
        return None


def seeded(tag: str) -> random.Random:
    return random.Random(f"hypadd-tests:{tag}")
