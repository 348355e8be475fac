from fractions import Fraction as F

import pytest
from hypothesis import settings

from vocagg import Domain, Profile

# A deeper search for CI: ``pytest --hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=2000, deadline=None)

A_VALUES = {
    "a": F(1, 10),
    "b": F(2, 10),
    "c": F(3, 10),
    "d": F(45, 100),
    "e": F(5, 10),
    "f": F(55, 100),
    "g": F(6, 10),
    "h": F(7, 10),
    "i": F(9, 10),
}


@pytest.fixture
def grades() -> Domain:
    return Domain(F(0), F(100))


@pytest.fixture
def grading_profile(grades) -> Profile:
    """Three graders' five-word scales: the running golden example."""
    return Profile.from_rows(
        grades,
        [(20, 40, 60, 80), (10, 20, 30, 50), (30, 45, 55, 70)],
    )


@pytest.fixture
def letters() -> dict[str, F]:
    """The nine interior values a < b < ... < i used by the mixed-activity example."""
    return dict(A_VALUES)


@pytest.fixture
def mixed_profile(letters) -> Profile:
    """Three agents with different active words, encoded over (0, 1)."""
    a, b, c, d, g, h = (letters[x] for x in "abcdgh")
    e, f, i = letters["e"], letters["f"], letters["i"]
    return Profile.from_rows(
        Domain(F(0), F(1)),
        [
            (c, h, 1, 1, 1, 1, 1),
            (0, b, b, d, d, g, g),
            (a, a, e, e, f, i, 1),
        ],
    )


def shared_endpoint_profile(a: F) -> Profile:
    """Three two-boundary agents whose only interior endpoint is ``a``.

    Every word is active for two of the three agents, yet each agent uses
    only two words; position rules cannot keep all three words active.
    """
    return Profile.from_rows(Domain(F(0), F(1)), [(a, 1), (a, a), (0, a)])
