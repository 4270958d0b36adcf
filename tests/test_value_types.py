"""The value-type contract: each of the seven value types has a fixed repr
(error messages embed it), hashes and compares as the tuple of its fields,
refuses assignment to a field, and keeps no state beside its fields."""

from fractions import Fraction

import pytest

from triplets import (
    AlphaVector,
    RootSequence,
    betti,
    chi_family,
    pure_zip,
    solve_alpha,
    supernatural_table,
    validate_triplet,
)


def _t64():
    return validate_triplet(4, [0, 1, 2], [0, 2, 4], [2, 3, 4])


# (build, field values, repr): build() makes a fresh instance each call.
CASES = {
    "HomologyTriplet": (
        _t64,
        (4, (0, 1, 2), (0, 2, 4), (2, 3, 4)),
        "HomologyTriplet(n=4, B=(0, 1, 2), H=(0, 2, 4), C=(2, 3, 4))",
    ),
    "AlphaVector": (
        lambda: solve_alpha(_t64()),
        (4, (0, 1, 2), (3, -3, 2, 0, 0)),
        "AlphaVector(n=4, support=(0, 1, 2), values=(3, -3, 2, 0, 0))",
    ),
    "ChiFamily": (
        lambda: chi_family(_t64(), solve_alpha(_t64())),
        (((3,), (0, 0, 1), (0, 0, 0, 0, 3)), ((0, 0, 2, 3, 3),), ()),
        "ChiFamily(chi_series=((3,), (0, 0, 1), (0, 0, 0, 0, 3)), psi_series=((0, 0, 2, 3, 3),), flags=())",
    ),
    "BettiDiagram": (
        lambda: betti(_t64()),
        (((0, 0, 3), (1, 1, 12), (2, 2, 12)),),
        "BettiDiagram(entries=((0, 0, 3), (1, 1, 12), (2, 2, 12)))",
    ),
    "HyperTable": (
        lambda: supernatural_table(RootSequence((-1,)), window=(-1, 1)),
        ((-1, 1), ((0, 0, 1), (0, 1, 2), (1, -1, 1))),
        "HyperTable(window=(-1, 1), entries=((0, 0, 1), (0, 1, 2), (1, -1, 1)))",
    ),
    "RootSequence": (
        lambda: RootSequence([-1, -3], 2),
        ((-1, -3), Fraction(2)),
        "RootSequence(roots=(-1, -3), scale=Fraction(2, 1))",
    ),
    "PureComplexReport": (
        lambda: pure_zip(RootSequence((-1, -2)), 4),
        (4, (0, 3, 4), (1, 4, 3), True, True),
        "PureComplexReport(n=4, degrees=(0, 3, 4), ranks=(1, 4, 3), is_resolution=True, is_cm=True)",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    build, fields, text = CASES[name]
    x = build()
    assert type(x).__name__ == name
    assert repr(x) == text
    assert hash(x) == hash(fields)
    again = build()
    assert again is not x and again == x and type(x)(*fields) == x
    for field in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    assert repr(x) == text
    assert not hasattr(x, "__dict__")  # no hidden state beside the fields


def test_replace_goes_through_the_constructor():
    # namedtuple's _replace builds through _make, which would skip __new__.
    rs = RootSequence((-1, -2), Fraction(3, 2))
    with pytest.raises(ValueError, match="^scale must be positive$"):
        rs._replace(scale=0)
    with pytest.raises(ValueError, match="^roots must be strictly decreasing"):
        rs._replace(roots=(1, 2))
    assert rs._replace(scale=3) == RootSequence((-1, -2), 3)
