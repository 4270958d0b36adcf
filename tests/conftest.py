"""Shared fixtures: the two worked examples used as golden data throughout,
plus hand-transcribed cohomology tables for the zip/Tate tests.
"""

import pytest

from triplets import validate_triplet

from oracles import hyper_table


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def t64():
    """n=4 example with three strands of H and one of C."""
    return validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])


@pytest.fixture(scope="session")
def t42():
    """n=3 example: the complex S^2 <- S(-2)^3 <- S(-3)."""
    return validate_triplet(3, [0, 2, 3], [0, 1, 2], [0, 2])


@pytest.fixture(scope="session")
def t44():
    """n=3 example: the rotation of t42."""
    return validate_triplet(3, [1, 2, 3], [1, 3], [0, 2, 3])


# Cohomology table of O(-1) -> O^2 on P^2 (the source complex of the n=3
# example), transcribed cell by cell from its published display.
IP1_CELLS = {
    (2, -5): 10, (2, -4): 6, (2, -3): 3, (2, -2): 1,
    (1, -5): 1, (1, -4): 1, (1, -3): 1, (1, -2): 1, (1, -1): 1,
    (0, 0): 2, (0, 1): 5, (0, 2): 9, (0, 3): 14,
}

# Table of the dual complex O^2 -> O(1) on P^2.
IP1_DUAL_CELLS = {
    (1, -5): 14, (1, -4): 9, (1, -3): 5, (1, -2): 2,
    (0, -1): 1, (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1,
    (-1, 0): 1, (-1, 1): 3, (-1, 2): 6, (-1, 3): 10,
}

# The n=4 example's hypercohomology table on columns -5..3.
T64_CELLS = {
    (2, -5): 87, (2, -4): 33, (2, -3): 8,
    (0, -2): 2, (0, -1): 3, (0, 0): 3, (0, 1): 3, (0, 2): 3, (0, 3): 3,
    (-1, 0): 1, (-1, 1): 3, (-1, 2): 6, (-1, 3): 10,
    (-2, -1): 3, (-2, 0): 15, (-2, 1): 45, (-2, 2): 105, (-2, 3): 210,
}


@pytest.fixture(scope="session")
def ip1_table():
    return hyper_table((-5, 3), dict(IP1_CELLS))


@pytest.fixture(scope="session")
def ip1_dual_table():
    return hyper_table((-5, 3), dict(IP1_DUAL_CELLS))


@pytest.fixture(scope="session")
def t64_table():
    return hyper_table((-5, 3), dict(T64_CELLS))
