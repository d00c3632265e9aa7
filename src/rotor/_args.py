"""Argument readers: the one decision of what counts as a valid argument.

A reader read(value, name) returns the value as the body uses it (a point
set as a finite float array (m, 2), a word as its lift) or raises
InvalidArgument; a class stands for the reader of its instances.
@reads(param=reader, ...) runs a callable's readers on the arguments
passed, in parameter order, before the body; an argument that is its
parameter's default is passed unread.  REGISTRY maps each declared
callable to its readers, and the contract tests are generated from it.
"""

import functools
import inspect
import math
import os
from numbers import Integral, Real

import numpy as np

from .errors import InvalidArgument

# declared callable -> {parameter: reader}
REGISTRY = {}


def reads(**readers):
    """Declare the readers of a callable's parameters, by name.

    The wrapper is compiled here, once, with the callable's own parameter
    list, so a call costs one frame more than its readers.
    """
    readers = {k: _reader(r) for k, r in readers.items()}

    def declare(fn):
        env, head, args = {"_fn": fn}, [], []
        for name, p in inspect.signature(fn).parameters.items():
            if p.kind is not p.POSITIONAL_OR_KEYWORD:
                raise TypeError("@reads takes plain parameters, not %s" % p)
            arg = name
            if name in readers:
                env["_r_" + name] = readers[name]
                arg = "_r_%s(%s, %r)" % (name, name, name)
            if p.default is p.empty:
                head.append(name)
            else:
                env["_d_" + name] = p.default
                head.append("%s=_d_%s" % (name, name))
                if name in readers:
                    arg = "%s if %s is _d_%s else %s" % (name, name, name, arg)
            args.append(arg)
        source = "def %s(%s):\n    return _fn(%s)" % (
            fn.__name__, ", ".join(head), ", ".join(args))
        exec(compile(source, "<reads %s>" % fn.__qualname__, "exec"), env)
        wrapper = functools.update_wrapper(env[fn.__name__], fn)
        REGISTRY[wrapper] = readers
        return wrapper
    return declare


def _reader(r):
    return kind(r) if isinstance(r, type) else r


def _rule(what, holds, convert=None):
    """The reader of the values for which holds(value) is true, passed on
    as convert(value); a holds that raises rejects the value."""
    def read(value, name):
        try:
            if holds(value):
                return value if convert is None else convert(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise InvalidArgument("%s must be %s, not %r" % (name, what, value))
    return read


def count(least, most=math.inf):
    """An integer >= least (and <= most); a float or a string raises."""
    return _rule("an integer " + (">= %d" % least if most == math.inf
                                  else "in %d..%d" % (least, most)),
                 lambda v: isinstance(v, Integral) and least <= v <= most)


def kind(*types):
    """An instance of one of the types, passed on as it is."""
    return _rule(" or ".join(t.__name__ for t in types),
                 lambda v: isinstance(v, types))


# NaN, inf, zero or a negative tolerance makes every comparison with it
# meaningless
POSITIVE = _rule("a finite number > 0",
                 lambda v: isinstance(v, Real) and 0.0 < v < math.inf)
# a NaN amplitude would read as a Lipschitz bound of 0 and certify a
# generator whose maps return NaN; an int too large for a float raises
FINITE = _rule("a finite number",
               lambda v: isinstance(v, Real) and math.isfinite(v), float)
# 2.0 passes, as the scenario parser reads numbers as floats; the kernels
# hold frequencies and deck translations as floats, exact up to 2**53
INTEGRAL = _rule("an integer of size <= 2**53",
                 lambda v: v == int(v) and abs(v) <= 2 ** 53, int)
PATH = kind(str, os.PathLike)


def POINTS(values, name):
    # finite float points (m, 2); a lone pair (2,) is one point
    try:
        pts = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument("%s: %s" % (name, exc)) from None
    if pts.shape == (2,):
        pts = pts.reshape(1, 2)
    elif pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidArgument("%s must have shape (m, 2) or (2,), got %s"
                              % (name, pts.shape))
    if not np.isfinite(pts).all():
        raise InvalidArgument("%s: points must be finite" % name)
    return pts


def POINT(value, name):
    # one finite point (x, y) of floats
    pts = POINTS(value, name)
    if len(pts) != 1:
        raise InvalidArgument("%s must be one point" % name)
    return float(pts[0, 0]), float(pts[0, 1])


def each(*items):
    """An iterable, read before its elements, as a tuple: every element
    read by the one reader given, or, given several, exactly one element
    for each reader, read by it."""
    items = tuple(_reader(r) for r in items)

    def read(value, name):
        try:
            values = tuple(value)
        except TypeError:
            raise InvalidArgument("%s must be iterable, not %r"
                                  % (name, value)) from None
        fields = items * len(values) if len(items) == 1 else items
        if len(fields) != len(values):
            raise InvalidArgument("%s must hold %d values, not %r"
                                  % (name, len(items), value))
        return tuple([r(v, name) for r, v in zip(fields, values)])
    return read


def terms(make):
    """Displacement terms: tuples of make's arguments, each built by make."""
    def read(value, name):
        try:
            return tuple(make(*t) for t in value)
        except TypeError:
            raise InvalidArgument("%s must be tuples of %s's arguments, not %r"
                                  % (name, make.__name__, value)) from None
    return read
