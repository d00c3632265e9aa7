"""Declarative scenario files: parse, validate, serialize.

A scenario is plain text split into sections.  A section header is a
bracketed line naming a kind and, for declarations, a name:

    [generator h]
    matrix = 1 0 0 1
    x = trig(0.05, 2, 0)
    y = trig(0.1, 1, 0)

    [word ww]
    letters = h h

    [measure circ]
    kind = circle
    x0 = 0.25

    [rotation_set hull]
    word = h
    n = 1000
    seeds = 64

Blank lines and text after '#' are ignored.  Numbers are decimal with no
locale dependence.  Declaration kinds (generator, word, measure) require
a name; analysis kinds (classify, rotation_set, invariant_measure,
fixed_points, rotev, klein) take an optional one, used to name report
files; [tolerances] appears at most once and is never named.

Displacement terms are const(v) for a constant offset and
trig(amp, kx, ky[, phase]) for amp*sin(2*pi*(kx*x + ky*y) + phase).
A word value is either the name of a [word] section or an inline string
of generator names, apostrophe for inverse: "dehn tr'".

Counts are integers >= 1, tolerances are > 0 and coordinates are finite.
Every validation failure raises ConfigError carrying a line number: the
offending key's, or the section's when a required key is missing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .averaging import GroupSpec
from .catalog import circle_measure, horizontal_circle_measure
from .errors import ConfigError, RotorError
from .maps import (Generator, MapGroup, Word, constant_term, linear_part,
                   trig_term)
from .mcg import MCGClass
from .measures import EmpiricalMeasure, krylov_bogolyubov

__all__ = [
    "AnalysisRequest",
    "Scenario",
    "generator_section_text",
    "parse_scenario",
    "parse_scenario_text",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TERM_RE = re.compile(r"^(const|trig)\(([^()]*)\)$")

_DECLARATIONS = ("generator", "word", "measure")
_ANALYSES = ("classify", "rotation_set", "invariant_measure",
             "fixed_points", "rotev", "klein")

# tolerance knobs analyses fall back to when a section has no local value
_TOLERANCE_KEYS = {"invariance": 1e-6, "fixed": 1e-9, "sigma": 1e-9}


def _err(line: int, msg: str) -> ConfigError:
    return ConfigError("line %d: %s" % (line, msg))


@dataclass(frozen=True)
class AnalysisRequest:
    kind: str
    name: Optional[str]
    params: dict

    @property
    def slug(self) -> str:
        """Base name for this request's report files."""
        return self.kind if self.name is None else "%s_%s" % (self.kind,
                                                              self.name)


@dataclass
class Scenario:
    group: MapGroup
    words: Dict[str, Word]
    measures: Dict[str, EmpiricalMeasure]
    analyses: List[AnalysisRequest]
    tolerances: Dict[str, float] = field(
        default_factory=lambda: dict(_TOLERANCE_KEYS))


# --- raw sectioning


def _split_sections(text: str) -> List[_Section]:
    sections: List[_Section] = []
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise _err(lineno, "unterminated section header %r" % raw.strip())
            tokens = line[1:-1].split()
            if len(tokens) not in (1, 2):
                raise _err(lineno, "section header needs a kind and at most "
                                   "one name, got %r" % line)
            kind = tokens[0]
            name = tokens[1] if len(tokens) == 2 else None
            if kind not in _DECLARATIONS + _ANALYSES + ("tolerances",):
                raise _err(lineno, "unknown section kind %r" % kind)
            if kind in _DECLARATIONS and name is None:
                raise _err(lineno, "[%s] needs a name" % kind)
            if kind == "tolerances" and name is not None:
                raise _err(lineno, "[tolerances] takes no name")
            if name is not None and not _NAME_RE.match(name):
                raise _err(lineno, "bad name %r (letters, digits, "
                                   "underscore; not starting with a digit)"
                           % name)
            current = _Section(kind, name, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise _err(lineno, "expected key = value, got %r" % line)
        if current is None:
            raise _err(lineno, "key before any section header")
        key, value = line.split("=", 1)
        current.values.setdefault(key.strip(), []).append(
            (lineno, value.strip()))
    return sections


# --- typed key extraction: a parser maps (key, text) to a value or raises
# ValueError with the message, which _Section.get turns into a ConfigError


def _text(key, text):
    return text


def _number(key, text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("%s: expected a finite number, got %r" % (key, text))
    return value


def _positive(key, text):
    value = _number(key, text)
    if not value > 0.0:
        raise ValueError("%s must be positive, got %r" % (key, text))
    return value


def _integer(key, text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s: expected an integer, got %r" % (key, text))


def _count(key, text):
    value = _integer(key, text)
    if value < 1:
        raise ValueError("expected %s >= 1, got %r" % (key, text))
    return value


def _nonempty(key, text):
    if not text:
        raise ValueError("%s: expected a word, got an empty value" % key)
    return text


def _bool(key, text):
    if text not in ("true", "false"):
        raise ValueError("%s: expected true or false, got %r" % (key, text))
    return text == "true"


def _names(key, text):
    names = text.split()
    if not names:
        raise ValueError("%s: expected at least one name" % key)
    return names


def _pair(parse):
    def pair(key, text):
        parts = text.split()
        if len(parts) != 2:
            raise ValueError("%s: expected two values, got %r" % (key, text))
        return tuple(parse(key, part) for part in parts)
    return pair


def _matrix(key, text):
    parts = text.split()
    if len(parts) != 4:
        raise ValueError("%s: expected 4 integers a b c d" % key)
    return [_integer(key, part) for part in parts]


class _Section:
    """One section: its header and its key = value pairs, read through the
    value parsers.  Each read marks its key as known."""

    def __init__(self, kind, name, line):
        self.kind = kind
        self.name = name
        self.line = line
        self.title = kind if name is None else kind + " " + name
        self.values: Dict[str, List[Tuple[int, str]]] = {}
        self.seen = set()

    def get(self, key, parse=_text, default=None, required=False):
        """The parsed value of a key that appears at most once; a repeated
        key or a value parse rejects fails on the key's own line."""
        found = self.repeated(key)
        if not found:
            if required:
                raise _err(self.line, "[%s] needs %s =" % (self.title, key))
            return default
        lineno, text = found[-1]
        if len(found) > 1:
            raise _err(lineno, "duplicate key %r in [%s]" % (key, self.kind))
        try:
            return parse(key, text)
        except ValueError as exc:
            raise _err(lineno, str(exc))

    def line_of(self, key) -> int:
        return self.values[key][0][0]

    def repeated(self, key):
        self.seen.add(key)
        return self.values.get(key, [])

    def _resolve(self, scn: Scenario, key, text) -> Word:
        # a declared word by name, else an inline word over the group
        if text in scn.words:
            return scn.words[text]
        try:
            return scn.group.word(text)
        except RotorError as exc:
            raise _err(self.line_of(key), "cannot resolve word %r: %s"
                       % (text, exc))

    def word(self, scn: Scenario, key, required=True):
        """(word, text) of a word-valued key; (None, None) when absent."""
        text = self.get(key, _nonempty, required=required)
        if text is None:
            return None, None
        return self._resolve(scn, key, text), text

    def words(self, scn: Scenario, key):
        """(words, names) of a list of words; ([], None) when absent."""
        names = self.get(key, _names)
        if names is None:
            return [], None
        return [self._resolve(scn, key, nm) for nm in names], names

    def measure(self, scn: Scenario, key, required=True):
        """(measure, name) of a measure-valued key; (None, None) when absent."""
        name = self.get(key, required=required)
        if name is None:
            return None, None
        if name not in scn.measures:
            raise _err(self.line_of(key), "unknown measure %r" % name)
        return scn.measures[name], name

    def reject_unknown(self):
        # keys in order of first appearance, so the first unknown key in
        # the file is the one reported, on its first line
        for key, found in self.values.items():
            if key not in self.seen:
                raise _err(found[0][0], "unknown key %r in [%s]"
                           % (key, self.kind))


# --- declaration builders


def _parse_term(lineno: int, text: str):
    m = _TERM_RE.match(text)
    if not m:
        raise _err(lineno, "bad term %r; want const(v) or "
                           "trig(amp, kx, ky[, phase])" % text)
    fn, body = m.groups()
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    try:
        args = [_number(fn, p) for p in parts]
    except ValueError:
        raise _err(lineno, "bad number in term %r" % text)
    if fn == "const":
        if len(args) != 1:
            raise _err(lineno, "const takes one value, got %d" % len(args))
        return constant_term(args[0])
    if len(args) not in (3, 4):
        raise _err(lineno, "trig takes amp, kx, ky and an optional phase")
    try:
        return trig_term(*args)
    except RotorError as exc:
        raise _err(lineno, str(exc))


def _build_generator(sec: _Section) -> Generator:
    entries = sec.get("matrix", _matrix)
    try:
        linear = (MCGClass.identity() if entries is None
                  else MCGClass(*entries))
    except RotorError as exc:
        raise _err(sec.line_of("matrix"), "generator %r: %s"
                   % (sec.name, exc))
    disp_x = [_parse_term(lineno, v) for lineno, v in sec.repeated("x")]
    disp_y = [_parse_term(lineno, v) for lineno, v in sec.repeated("y")]
    sec.reject_unknown()
    try:
        gen = Generator(sec.name, linear, disp_x=disp_x, disp_y=disp_y)
    except RotorError as exc:
        raise _err(sec.line, "generator %r: %s" % (sec.name, exc))
    if not gen.certified:
        raise _err(sec.line,
                   "generator %r: displacement is not certified invertible "
                   "(contraction margin %.3f <= 0)"
                   % (sec.name, gen.contraction_margin))
    return gen


def _build_measure(scn: Scenario, sec: _Section) -> EmpiricalMeasure:
    kind = sec.get("kind", required=True)
    if kind == "circle":
        mu = circle_measure(sec.get("x0", _number, required=True),
                            sec.get("atoms", _count, 16))
    elif kind == "hcircle":
        mu = horizontal_circle_measure(sec.get("y0", _number, required=True),
                                       sec.get("atoms", _count, 16))
    elif kind == "grid":
        mu = EmpiricalMeasure.uniform_grid(sec.get("k", _count, required=True))
    elif kind == "dirac":
        at = sec.get("at", _pair(_number), required=True)
        mu = EmpiricalMeasure.dirac(at)
    elif kind == "orbit":
        w, _ = sec.word(scn, "word")
        seed = sec.get("seed", _pair(_number), (0.0, 0.0))
        n = sec.get("n", _count, 2048)
        mu = krylov_bogolyubov(w, seed, n, n)
    else:
        raise _err(sec.line_of("kind"),
                   "unknown measure kind %r; want circle, hcircle, grid, "
                   "dirac or orbit" % kind)
    sec.reject_unknown()
    return mu


# --- analysis builders


def _build_analysis(scn: Scenario, sec: _Section) -> AnalysisRequest:
    kind = sec.kind
    params: dict = {}

    if kind == "classify":
        gens = []
        for nm in sec.get("generators", _names, required=True):
            try:
                w = scn.group.by_name(nm)
            except RotorError:
                raise _err(sec.line_of("generators"),
                           "unknown generator %r" % nm)
            gens.append((nm, linear_part(w)))
        params["generators"] = gens

    elif kind == "rotation_set":
        params["word"], params["word_text"] = sec.word(scn, "word")
        params["n"] = sec.get("n", _count, 1000)
        params["seeds"] = sec.get("seeds", _count, 64)
        params["deck"] = sec.get("deck", _pair(_integer), (0, 0))

    elif kind == "invariant_measure":
        params["seed"], params["seed_name"] = sec.measure(scn, "seed")
        params["phi"], params["phi_text"] = sec.word(scn, "phi")
        params["g0"], _ = sec.words(scn, "g0")
        params["extension"], _ = sec.words(scn, "extension")
        # group data misdeclarations are scenario validation failures,
        # caught here with a line number rather than mid-run
        try:
            params["spec"] = GroupSpec(
                generators_G0=tuple(params["g0"]),
                extension_gens=tuple((w, linear_part(w))
                                     for w in params["extension"]))
        except ConfigError as exc:
            raise _err(sec.line, str(exc))
        params["L"] = sec.get("L", _count, 256)
        params["tol"] = sec.get("tol", _positive, 1e-9)
        params["force"] = sec.get("force", _bool, False)

    elif kind == "fixed_points":
        word, wtext = sec.word(scn, "word", required=False)
        params["words"], params["word_texts"] = sec.words(scn, "words")
        if (wtext is None) == (params["word_texts"] is None):
            raise _err(sec.line,
                       "[fixed_points] needs exactly one of word =, words =")
        if wtext is not None:
            params["words"], params["word_texts"] = [word], [wtext]
        params["grid"] = sec.get("grid", _count, 64)
        params["measure"], params["measure_name"] = sec.measure(
            scn, "measure", required=False)
        if params["measure"] is not None and len(params["words"]) != 1:
            raise _err(sec.line_of("measure"),
                       "a Franks certificate needs a single word")
        # a Franks run bounds the measure's invariance defect, a plain scan
        # bounds the pointwise residual; the defaults differ accordingly
        fallback = scn.tolerances["fixed" if params["measure"] is None
                                  else "invariance"]
        params["tol"] = sec.get("tol", _positive, fallback)

    elif kind == "rotev":
        params["g"], params["g_text"] = sec.word(scn, "g")
        params["h"], params["h_text"] = sec.word(scn, "h")
        params["measure"], params["measure_name"] = sec.measure(scn,
                                                                "measure")
        params["pmax"] = sec.get("pmax", _count, 5)

    elif kind == "klein":
        params["word"], params["word_text"] = sec.word(scn, "word")
        params["deck"] = sec.get("deck", _pair(_integer), (0, 0))
        params["sigma_tol"] = sec.get("sigma_tol", _positive,
                                      scn.tolerances["sigma"])
        params["measure"], params["measure_name"] = sec.measure(
            scn, "measure", required=False)
        params["symmetrize"] = sec.get("symmetrize", _bool,
                                       params["measure"] is not None)

    sec.reject_unknown()
    return AnalysisRequest(kind, sec.name, params)


# --- top level


def parse_scenario_text(text: str, path: str = "<scenario>") -> Scenario:
    sections = _split_sections(text)

    gens: List[Generator] = []
    seen_names: Dict[str, int] = {}
    for s in sections:
        if s.kind != "generator":
            continue
        if s.name in seen_names:
            raise _err(s.line, "generator %r already declared on line %d"
                       % (s.name, seen_names[s.name]))
        seen_names[s.name] = s.line
        gens.append(_build_generator(s))
    if not gens:
        raise ConfigError("%s: no [generator] sections" % path)
    group = MapGroup(gens)

    scn = Scenario(group=group, words={}, measures={}, analyses=[])

    # tolerances before anything that reads defaults from them
    seen_tol = None
    for s in sections:
        if s.kind != "tolerances":
            continue
        if seen_tol is not None:
            raise _err(s.line, "[tolerances] already declared on line %d"
                       % seen_tol)
        seen_tol = s.line
        for key in _TOLERANCE_KEYS:
            scn.tolerances[key] = s.get(key, _positive, scn.tolerances[key])
        s.reject_unknown()

    for s in sections:
        if s.kind != "word":
            continue
        if s.name in seen_names:
            raise _err(s.line, "name %r already declared on line %d"
                       % (s.name, seen_names[s.name]))
        seen_names[s.name] = s.line
        letters = s.get("letters", _nonempty, required=True)
        s.reject_unknown()
        try:
            scn.words[s.name] = group.word(letters)
        except RotorError as exc:
            raise _err(s.line_of("letters"), str(exc))

    for s in sections:
        if s.kind != "measure":
            continue
        if s.name in scn.measures:
            raise _err(s.line, "measure %r already declared" % s.name)
        scn.measures[s.name] = _build_measure(scn, s)

    slugs: Dict[str, int] = {}
    for s in sections:
        if s.kind not in _ANALYSES:
            continue
        req = _build_analysis(scn, s)
        if req.slug in slugs:
            raise _err(s.line, "analysis [%s] already declared on line %d; "
                               "give one of them a name"
                       % (s.title, slugs[req.slug]))
        slugs[req.slug] = s.line
        scn.analyses.append(req)

    if not scn.analyses:
        raise ConfigError("%s: no analysis sections" % path)
    return scn


def parse_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, str(path))


# --- serialization (the examples subcommand writes catalog maps back out)


def _term_text(term) -> str:
    amp, kx, ky, phase = term
    if kx == 0 and ky == 0 and phase == math.pi / 2:
        return "const(%r)" % amp
    if phase == 0.0:
        return "trig(%r, %d, %d)" % (amp, int(kx), int(ky))
    return "trig(%r, %d, %d, %r)" % (amp, int(kx), int(ky), phase)


def generator_section_text(gen: Generator) -> str:
    """The [generator] section reproducing gen exactly on reparse."""
    lines = ["[generator %s]" % gen.name]
    if not gen.linear.is_identity():
        a, b, c, d = (gen.linear.a, gen.linear.b, gen.linear.c, gen.linear.d)
        lines.append("matrix = %d %d %d %d" % (a, b, c, d))
    for t in gen.disp_x:
        lines.append("x = %s" % _term_text(t))
    for t in gen.disp_y:
        lines.append("y = %s" % _term_text(t))
    return "\n".join(lines) + "\n"
