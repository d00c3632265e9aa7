"""Scenario file parsing: grammar, validation diagnostics, round-trips."""

import math

import pytest

from rotor.catalog import build_catalog
from rotor.errors import ConfigError
from rotor.scenario import (generator_section_text, parse_scenario,
                            parse_scenario_text)

FULL = """\
# a file exercising every section kind
[generator h]
x = trig(0.05, 2, 0)
y = trig(0.1, 1, 0)

[generator dehn]
matrix = 1 0 1 1

[generator tr]
x = const(0.25)
y = const(0.5)

[word pair]
letters = dehn tr

[measure circ]
kind = circle
x0 = 0.25
atoms = 8

[measure hc]
kind = hcircle
y0 = 0.125

[measure grid]
kind = grid
k = 4

[measure pt]
kind = dirac
at = 0.1 0.2

[measure orb]
kind = orbit
word = tr
n = 32
seed = 0.0 0.0

[tolerances]
invariance = 1e-5
fixed = 1e-8
sigma = 1e-7

[classify]
generators = dehn

[rotation_set hull]
word = pair
n = 50
seeds = 4
deck = 1 0

[invariant_measure]
seed = grid
phi = tr
g0 = tr
extension = dehn
L = 8
tol = 1e-7

[fixed_points]
word = h
grid = 32

[fixed_points franks]
word = tr
measure = orb

[rotev]
g = dehn
h = tr
measure = grid
pmax = 3

[klein]
word = tr
measure = circ
"""


def parse(text):
    return parse_scenario_text(text)


def test_full_scenario_parses():
    scn = parse(FULL)
    assert sorted(g.name for g in scn.group.generators) == ["dehn", "h", "tr"]
    assert set(scn.words) == {"pair"}
    assert set(scn.measures) == {"circ", "hc", "grid", "pt", "orb"}
    assert [a.kind for a in scn.analyses] == [
        "classify", "rotation_set", "invariant_measure", "fixed_points",
        "fixed_points", "rotev", "klein"]


def test_measure_shapes():
    scn = parse(FULL)
    assert len(scn.measures["circ"]) == 8
    assert len(scn.measures["hc"]) == 16
    assert len(scn.measures["grid"]) == 16
    assert len(scn.measures["pt"]) == 1
    # the (1/4, 1/2) translation orbit closes after 4 steps and the
    # 32-point window collapses onto those atoms
    assert len(scn.measures["orb"]) == 4
    assert all(p[0] == 0.25 for p in scn.measures["circ"].points)


def test_tolerances_override():
    scn = parse(FULL)
    assert scn.tolerances == {"invariance": 1e-5, "fixed": 1e-8,
                              "sigma": 1e-7}


def test_rotation_set_params():
    scn = parse(FULL)
    req = next(a for a in scn.analyses if a.kind == "rotation_set")
    assert req.name == "hull"
    assert req.slug == "rotation_set_hull"
    assert req.params["n"] == 50
    assert req.params["seeds"] == 4
    assert req.params["deck"] == (1, 0)
    assert req.params["word"] is scn.words["pair"]


def test_invariant_measure_builds_spec_at_parse_time():
    scn = parse(FULL)
    req = next(a for a in scn.analyses if a.kind == "invariant_measure")
    spec = req.params["spec"]
    assert len(spec.generators_G0) == 1
    assert len(spec.extension_gens) == 1
    assert req.params["L"] == 8
    assert req.params["force"] is False


def test_invariant_measure_g0_misdeclaration_fails_at_parse():
    # a word with a nontrivial linear part cannot sit in the G0 slot;
    # the scenario layer reports that with the section's line number
    text = """\
[generator dehn]
matrix = 1 0 1 1

[measure grid]
kind = grid
k = 2

[invariant_measure]
seed = grid
phi = dehn
g0 = dehn
"""
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert "line 8" in str(exc.value)
    assert "not isotopic" in str(exc.value)


def test_torsion_extension_parses():
    # a precondition-violating extension is a run-time concern (force can
    # still run it), not a validation error
    text = """\
[generator phi]
matrix = -1 0 0 -1

[generator tr]
x = const(0.25)

[measure grid]
kind = grid
k = 2

[invariant_measure]
seed = grid
phi = tr
extension = phi
force = true
"""
    scn = parse(text)
    assert scn.analyses[0].params["force"] is True


def test_fixed_points_tol_defaults_track_mode():
    scn = parse(FULL)
    plain, franks = [a for a in scn.analyses if a.kind == "fixed_points"]
    assert plain.params["measure"] is None
    assert plain.params["tol"] == 1e-8       # fixed tolerance
    assert franks.params["measure"] is not None
    assert franks.params["tol"] == 1e-5      # invariance tolerance


def test_klein_symmetrize_defaults():
    scn = parse(FULL)
    req = next(a for a in scn.analyses if a.kind == "klein")
    assert req.params["symmetrize"] is True
    scn2 = parse(FULL.replace("word = tr\nmeasure = circ",
                              "word = tr"))
    req2 = next(a for a in scn2.analyses if a.kind == "klein")
    assert req2.params["measure"] is None
    assert req2.params["symmetrize"] is False


def test_word_resolution_prefers_declared_name():
    text = """\
[generator a]
x = const(0.1)

[word a_twice]
letters = a a

[rotation_set]
word = a_twice
n = 2
seeds = 1

[rotation_set inline]
word = a a'
n = 2
seeds = 1
"""
    scn = parse(text)
    first, second = scn.analyses
    assert first.params["word"] is scn.words["a_twice"]
    assert second.params["word"].is_identity_word()


# --- diagnostics carry line numbers


@pytest.mark.parametrize("text,lineno,frag", [
    ("[nonsense]\n", 1, "unknown section kind"),
    ("[generator]\n", 1, "needs a name"),
    ("[tolerances extra]\n", 1, "takes no name"),
    ("[generator 2bad]\n", 1, "bad name"),
    ("[generator g\n", 1, "unterminated"),
    ("x = const(1)\n", 1, "key before any section"),
    ("[generator g]\njunk line\n", 2, "expected key = value"),
    ("[generator g]\nx = const(0.1)\nwat = 3\n\n[classify]\ngenerators = g\n",
     3, "unknown key"),
    ("[generator g]\nmatrix = 1 0 0 1\nmatrix = 1 0 0 1\n", 3,
     "duplicate key"),
    ("[generator g]\nx = wobble(1)\n", 2, "bad term"),
    ("[generator g]\nx = const(1, 2)\n", 2, "const takes one value"),
    ("[generator g]\nx = trig(0.1)\n", 2, "trig takes"),
    ("[generator g]\nmatrix = 1 0 0\n", 2, "expected 4 integers"),
    ("[generator g]\nmatrix = 1 0 0 2\n", 2, "generator 'g'"),
    ("[generator g]\nx = const(0.1)\n\n[generator g]\n", 4,
     "already declared"),
    ("[generator g]\nx = trig(0.9, 3, 0)\n", 1, "not certified"),
])
def test_validation_errors_have_line_numbers(text, lineno, frag):
    with pytest.raises(ConfigError) as exc:
        parse(text)
    msg = str(exc.value)
    assert frag in msg
    assert "line %d" % lineno in msg


GOOD_PREFIX = "[generator g]\nx = const(0.1)\n\n"


@pytest.mark.parametrize("tail,frag", [
    ("[rotation_set]\nword = nosuch\n", "cannot resolve word"),
    ("[rotation_set]\nword = g\nn = 0\n", "n >= 1"),
    ("[rotev]\ng = g\nh = g\nmeasure = nope\n", "unknown measure"),
    ("[fixed_points]\n", "exactly one of"),
    ("[fixed_points]\nword = g\nwords = g\n", "exactly one of"),
    ("[measure q]\nkind = blob\n", "unknown measure kind"),
    ("[measure q]\nkind = dirac\n", "needs at"),
    ("[measure q]\nkind = grid\nk = 0\n", "k >= 1"),
    ("[measure q]\nkind = orbit\nword = g\nn = 0\n", "n >= 1"),
    ("[classify]\ngenerators = g nosuch\n", "unknown generator"),
    ("[tolerances]\nfixed = 0\n", "must be positive"),
    ("[tolerances]\nfixed = 1e-9\n\n[tolerances]\n", "already declared"),
    ("[rotev]\ng = g\nh = g\nmeasure = m\npmax = 0\n", "pmax >= 1"),
    ("[fixed_points]\nwords = g g\nmeasure = m\n", "single word"),
])
def test_section_level_errors(tail, frag):
    text = GOOD_PREFIX + "[measure m]\nkind = grid\nk = 2\n\n" + tail
    with pytest.raises(ConfigError, match=frag):
        parse(text)


BAD_VALUES = [
    ("[measure q]\nkind = circle\nx0 = nan\n", "x0 = nan"),
    ("[measure q]\nkind = hcircle\ny0 = 0.5\natoms = 0\n", "atoms = 0"),
    ("[measure q]\nkind = dirac\nat = inf 0.3\n", "at = inf 0.3"),
    ("[measure q]\nkind = orbit\nword = g\nseed = nan 0\n", "seed = nan 0"),
    ("[measure q]\nkind = orbit\nword = g\nn = 0\n", "n = 0"),
    ("[measure q]\nkind = grid\nk = 0\n", "k = 0"),
    ("[measure q]\nkind = grid\nk = junk\n", "k = junk"),
    ("[invariant_measure]\nseed = m\nphi = g\nL = 0\n", "L = 0"),
    ("[invariant_measure]\nseed = m\nphi = g\ntol = nan\n", "tol = nan"),
    ("[fixed_points]\nword = g\ntol = -1\n", "tol = -1"),
    ("[fixed_points]\nword = g\ngrid = 0\n", "grid = 0"),
    ("[klein]\nword = g\nsigma_tol = 0\n", "sigma_tol = 0"),
    ("[rotation_set]\nword = g\nseeds = 0\n", "seeds = 0"),
    ("[rotev]\ng = g\nh = g\nmeasure = m\npmax = 0\n", "pmax = 0"),
    ("[tolerances]\nsigma = inf\n", "sigma = inf"),
]


@pytest.mark.parametrize("tail,bad", BAD_VALUES,
                         ids=[bad.replace(" = ", "=").replace(" ", "_")
                              for _, bad in BAD_VALUES])
def test_bad_values_fail_on_their_own_line(tail, bad):
    # counts are integers >= 1, tolerances finite and > 0, coordinates
    # finite; the error names the line of the offending key
    text = GOOD_PREFIX + "[measure m]\nkind = grid\nk = 2\n\n" + tail
    lineno = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match="^line %d: " % lineno):
        parse(text)


def test_no_generators_rejected():
    with pytest.raises(ConfigError, match="no \\[generator\\]"):
        parse("[classify]\ngenerators = g\n")


def test_no_analyses_rejected():
    with pytest.raises(ConfigError, match="no analysis"):
        parse("[generator g]\nx = const(0.1)\n")


def test_duplicate_slug_rejected():
    text = GOOD_PREFIX + ("[rotation_set]\nword = g\n\n"
                          "[rotation_set]\nword = g\n")
    with pytest.raises(ConfigError, match="give one of them a name"):
        parse(text)


def test_franks_multiword_rejected_with_measure_line():
    text = GOOD_PREFIX + ("[measure m]\nkind = grid\nk = 2\n\n"
                          "[fixed_points]\nwords = g g\nmeasure = m\n")
    with pytest.raises(ConfigError, match="line 10"):
        parse(text)


def test_tolerances_apply_regardless_of_position():
    # the tolerances block sits after the analysis that consumes it
    text = GOOD_PREFIX + ("[fixed_points]\nword = g\n\n"
                          "[tolerances]\nfixed = 1e-4\n")
    scn = parse(text)
    assert scn.analyses[0].params["tol"] == 1e-4


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n\n[generator g]  # trailing\n"
            "x = const(0.1)   # on a value\n\n[fixed_points]\nword = g\n")
    scn = parse(text)
    assert scn.group.generators[0].disp_x[0][0] == 0.1


# --- serialization round-trip


def test_generator_sections_round_trip_catalog():
    cat = build_catalog()
    text = "".join(generator_section_text(g) + "\n" for g in cat.generators)
    text += "[classify]\ngenerators = %s\n" % " ".join(
        g.name for g in cat.generators)
    scn = parse(text)
    for orig, back in zip(cat.generators, scn.group.generators):
        assert back.name == orig.name
        assert back.linear == orig.linear
        assert back.disp_x == orig.disp_x
        assert back.disp_y == orig.disp_y


def test_term_text_forms():
    cat = build_catalog()
    h = next(g for g in cat.generators if g.name == "h")
    text = generator_section_text(h)
    assert "trig(0.05, 2, 0)" in text
    assert "matrix" not in text          # identity matrix is implied
    tr = next(g for g in cat.generators if g.name == "tr")
    assert "const(" in generator_section_text(tr)


def test_parse_scenario_reads_file(tmp_path):
    p = tmp_path / "s.scn"
    p.write_text(GOOD_PREFIX + "[fixed_points]\nword = g\n")
    scn = parse_scenario(p)
    assert scn.analyses[0].kind == "fixed_points"
