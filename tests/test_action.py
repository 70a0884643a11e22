from fractions import Fraction

import pytest

from resolvedk.action import WindowError, WindowRule
from resolvedk.chargroup import Character
from resolvedk.fgab import FgAbGroup
from resolvedk.fixtures import sphere_rotation, sphere_rotation_speed


Z = FgAbGroup.free(1)
C2 = FgAbGroup(0, (2,))


def test_window_explicit():
    rule = WindowRule.explicit([(0,), (2,)])
    chars = rule.materialize(Z)
    assert [c.coords for c in chars] == [(0,), (2,)]
    with pytest.raises(WindowError, match="cannot be resized"):
        rule.materialize(Z, radius=3)


@pytest.mark.parametrize("chars", [[], ()], ids=["list", "tuple"])
def test_explicit_window_needs_characters(chars):
    with pytest.raises(ValueError, match="explicit window needs characters"):
        WindowRule.explicit(chars)


@pytest.mark.parametrize("group, chars, repeated", [
    (Z, [(0,), (1,), (0,)], r"\(0,\)"),
    (C2, [(0,), (1,), (2,)], r"\(0,\)"),
    (C2, [(1,), (-1,)], r"\(1,\)"),
], ids=["direct", "after-reduction", "negative"])
def test_explicit_window_refuses_a_repeated_character(group, chars, repeated):
    # each kept character carries one (K0, K1) copy, so a repeat would count twice
    with pytest.raises(WindowError, match="repeats the character " + repeated):
        WindowRule.explicit(chars).materialize(group)


def test_window_full():
    assert len(WindowRule.full().materialize(C2)) == 2
    with pytest.raises(WindowError, match="infinite dual"):
        WindowRule.full().materialize(Z)


def test_window_ball():
    rule = WindowRule.ball(2)
    chars = rule.materialize(Z)
    assert sorted(c.coords[0] for c in chars) == [-2, -1, 0, 1, 2]
    # override radius
    assert len(rule.materialize(Z, radius=0)) == 1
    # free times torsion: ball bounds the free part, torsion is complete
    mixed = FgAbGroup(1, (2,))
    chars = rule.materialize(mixed, radius=1)
    assert len(chars) == 3 * 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: WindowRule.ball(2.7),
        lambda: WindowRule.residue_ball(3.5, 1),
        lambda: WindowRule.explicit([(0.5, 1.2)]),
        lambda: WindowRule.ball(2).materialize(Z, radius=1.5),
    ],
    ids=["ball-radius", "modulus", "explicit-chars", "materialize-radius"],
)
def test_window_rule_refuses_floats(make):
    # WindowRule.ball(2.7).radius used to be 2, and (0.5, 1.2) the character (0, 1)
    with pytest.raises(TypeError):
        make()


def test_window_rule_refuses_non_integral_rationals():
    with pytest.raises(ValueError, match="window radius 5/2"):
        WindowRule.ball(Fraction(5, 2))
    with pytest.raises(ValueError):
        WindowRule.explicit([(Fraction(1, 2),)])
    rule = WindowRule.explicit([(Fraction(4, 2),)])
    assert rule.chars == ((2,),) and type(rule.chars[0][0]) is int


def test_window_residue_ball():
    rule = WindowRule.residue_ball(3, 1)
    chars = rule.materialize(Z)
    values = sorted(c.coords[0] for c in chars)
    assert values == [-3, -2, -1, 0, 1, 2, 3, 4, 5]
    assert len({v % 3 for v in values}) == 3
    # every residue class has the same count
    from collections import Counter
    counts = Counter(v % 3 for v in values)
    assert set(counts.values()) == {3}
    with pytest.raises(WindowError, match="infinite cyclic"):
        rule.materialize(C2)


def test_action_windows_and_sections():
    action = sphere_rotation()
    windows = action.windows(radius=1)
    assert [c.coords for c in windows["0"]] == [()]
    assert len(windows["N"]) == 3
    sections = action.sections(windows)
    ghat = sections["N"](Character(Z, (1,)))
    assert ghat.coords == (1,)
    # the root's single character lifts to 0 in the ambient dual
    assert sections["0"](Character(FgAbGroup.free(0), ())).coords == (0,)


def test_window_saturation_check():
    action = sphere_rotation_speed(3)
    windows, rows = action.window_rows(radius=1)
    assert windows == action.windows(radius=1)
    assert rows.checks == [
        ("windows materialize", True, ""),
        ("windows saturated under edge restrictions", True, ""),
    ]
    # keep one root character: the pole characters off its residue have nowhere to go
    action.window_rules["0"] = WindowRule.explicit([[0]])
    windows, rows = action.window_rows()
    assert windows == action.windows()
    assert rows.failures() == [
        ("windows saturated under edge restrictions", "unsaturated on 0<N at (-2,), 0<S at (-2,)")
    ]
    # a window that does not materialize has no saturation row
    windows, rows = action.window_rows(radius=1)
    assert windows is None
    assert rows.checks == [
        ("windows materialize", False, "explicit windows cannot be resized")
    ]


def test_sphere_action_validates():
    action = sphere_rotation()
    rep = action.validate(radius=1)
    assert rep.ok, str(rep)


def test_speed_sphere_validates_and_windows_align():
    action = sphere_rotation_speed(2)
    rep = action.validate(radius=1)
    assert rep.ok, str(rep)
    windows = action.windows(radius=1)
    assert len(windows["0"]) == 2
    assert len(windows["N"]) == 6  # two residues, three entries each


def test_validate_flags_missing_space():
    action = sphere_rotation()
    del action.spaces["N"]
    rep = action.validate(radius=1)
    failed = dict(rep.failures())
    assert "space data matches node set" in failed
    assert "missing ['N']" in failed["space data matches node set"]


def test_validate_flags_bad_bundle_shape():
    action = sphere_rotation()
    action.bundles["poles"]["N"] = {(0, 0): (2,)}
    rep = action.validate(radius=1)
    assert "bundle 'poles' entry shapes" in dict(rep.failures())


def test_validate_flags_odd_chern_vector():
    action = sphere_rotation()
    # (0, 0, 1) has support on the interval's degree-one slot
    action.chern.reps["0"] = ((0, 0, 1),)
    rep = action.validate(radius=1)
    assert "Chern representatives shaped and even" in dict(rep.failures())
