import re
from importlib import resources

import numpy as np
import pytest

from artingeo.presentation import (
    INF,
    CoxeterPresentation,
    PresentationError,
    format_presentation,
    parse_presentation,
)
from artingeo.presets import PRESET_NAMES, load_preset
from artingeo.words import format_word


def test_classification_examples():
    p345 = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 4, (2, 3): 5})
    r = p345.classification()
    assert r["large"] and r["satisfies_33m"] and not r["extra_large"]

    p433 = CoxeterPresentation.from_labels(3, {(1, 2): 4, (1, 3): 3, (2, 3): 3})
    r = p433.classification()
    assert r["large"] and not r["satisfies_33m"]

    da4 = CoxeterPresentation.dihedral(4)
    r = da4.classification()
    assert r["dihedral"] and r["extra_large"] and r["satisfies_33m"]


def test_33m_needs_finite_third_edge():
    # two labels 3 but the third edge missing: no (3,3,m) triangle
    p = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 3})
    assert p.satisfies_33m()
    # in either assignment of the triangle
    p2 = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): 7, (2, 3): 3})
    assert not p2.satisfies_33m()


def test_free_and_infinite_labels():
    free2 = CoxeterPresentation.from_labels(2, {})
    assert free2.is_free() and free2.is_large()
    z = CoxeterPresentation.from_labels(1, {})
    assert z.is_free()
    assert CoxeterPresentation.dihedral(INF).is_free()


@pytest.mark.parametrize("inf", [float("inf"), np.inf])
def test_float_infinity_is_stored_as_inf(inf):
    p = CoxeterPresentation.from_labels(2, {(1, 2): inf})
    assert p.m[0][1] is INF and p.m[1][0] is INF
    assert p.is_free()
    assert format_presentation(p) == format_presentation(CoxeterPresentation.dihedral(INF))


def test_integral_float_label_is_stored_as_int():
    p = CoxeterPresentation.from_labels(2, {(1, 2): 4.0})
    assert type(p.label(1, 2)) is int and p.label(1, 2) == 4
    assert format_presentation(p) == "n = 2\nmatrix =\n1 4\n4 1\n"
    assert p == CoxeterPresentation.dihedral(4)


def test_malformed_matrices():
    with pytest.raises(PresentationError):
        CoxeterPresentation(2, ((1, 3), (4, 1)))  # asymmetric
    with pytest.raises(PresentationError):
        CoxeterPresentation(2, ((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(PresentationError):
        CoxeterPresentation(2, ((1, 1), (1, 1)))  # off-diagonal below 2
    for pair in ((0, 1), (1, 4), (2, 2), (-1, 2)):  # not two distinct generators of 1..3
        with pytest.raises(PresentationError, match=re.escape(str(pair))):
            CoxeterPresentation.from_labels(3, {pair: 4})
    # one pair given twice with two labels, either way round or inf first
    for labels in ({(1, 2): 3, (2, 1): 4}, {(1, 2): INF, (2, 1): 3}):
        with pytest.raises(PresentationError, match=re.escape("(2, 1)")):
            CoxeterPresentation.from_labels(2, labels)
    # the same label twice is the same matrix
    assert CoxeterPresentation.from_labels(2, {(1, 2): 4, (2, 1): 4}) == CoxeterPresentation.dihedral(4)
    # label 2 is representable even though the group is not large type
    p = CoxeterPresentation.dihedral(2)
    assert not p.is_large()


def test_relator_sides():
    p = CoxeterPresentation.dihedral(3)
    lhs, rhs = p.relator_sides(1, 2)
    assert format_word(lhs) == "aba" and format_word(rhs) == "bab"
    with pytest.raises(ValueError):
        CoxeterPresentation.dihedral(INF).relator_sides(1, 2)


def test_file_roundtrip():
    p = CoxeterPresentation.from_labels(3, {(1, 2): 3, (1, 3): INF, (2, 3): 5})
    again = parse_presentation(format_presentation(p))
    assert again == p


def test_file_errors():
    with pytest.raises(PresentationError):
        parse_presentation("matrix =\n1 3\n3 1\n")  # n missing
    with pytest.raises(PresentationError):
        parse_presentation("n = 2\nmatrix =\n1 3\n")  # too few entries
    # unknown lines before the matrix, a second n line, and non-integer n or
    # entries name their line
    for text, line in (
        ("n = 2\nfoo bar\nmatrix =\n1 3\n3 1\n", "foo bar"),
        ("nonsense = 7\nn = 2\nmatrix =\n1 3\n3 1\n", "nonsense = 7"),
        ("n = two\nmatrix =\n1 3\n3 1\n", "n = two"),
        ("n = 2\nmatrix =\n1 3\n3 x\n", "3 x"),
        ("n = 2\nmatrix = 1 3.5 3.5 1\n", "matrix = 1 3.5 3.5 1"),
        ("n = 3\nmatrix =\n1 3\n3 1\nn = 2\n", "n = 2"),  # a second n, after the matrix
        ("n = 2\nn = 2\nmatrix =\n1 3\n3 1\n", "n = 2"),
    ):
        with pytest.raises(PresentationError, match=re.escape(repr(line))):
            parse_presentation(text)


def test_presets_load_and_classify():
    # every shipped file is registered, so each loads by name below
    files = resources.files("artingeo").joinpath("presets").iterdir()
    assert {f.name.removesuffix(".txt") for f in files if f.name.endswith(".txt")} == set(
        PRESET_NAMES
    )
    for name in PRESET_NAMES:
        pres = load_preset(name)
        assert pres.is_large()
    assert load_preset("dainf").is_free()
    assert not load_preset("counterexample433").satisfies_33m()
    assert load_preset("triangle444").is_extra_large()
    with pytest.raises(ValueError):
        load_preset("nonesuch")
