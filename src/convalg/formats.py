"""Line-oriented text formats for topologies, structures, maps and step functions.

All formats are UTF-8 with ``#`` comments. Parse errors carry the file
path and line number so the CLI can name the offending line.
"""

from __future__ import annotations

from fractions import Fraction

from .convolution import LatticeMap
from .lattice import make_topology
from .relstruct import RelationalStructure, Signature
from .terms import App, Equation, Var
from .type2 import StepFunction

_ZERO, _ONE = Fraction(0), Fraction(1)
# Parsing, printing and evaluating a term all recurse, once per nesting level.
MAX_TERM_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message, line=None, path=None):
        where = path or "<input>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _labels(text, what, i, path):
    labels = text.split()
    if len(set(labels)) < len(labels):
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        raise ParseError(f"duplicate {what} {repeated}", i, path)
    return labels


def parse_topology(text, path=None):
    """`points: a b c` followed by one `open: ...` line per generator."""
    points = None
    generators = []
    for i, line in _lines(text):
        if line.startswith("points:"):
            if points is not None:
                raise ParseError("duplicate points line", i, path)
            points = _labels(line[len("points:"):], "points", i, path)
        elif line.startswith("open:"):
            if points is None:
                raise ParseError("open line before points line", i, path)
            labels = _labels(line[len("open:"):], "points", i, path)
            unknown = set(labels) - set(points)
            if unknown:
                raise ParseError(f"unknown points {sorted(unknown)}", i, path)
            generators.append(frozenset(labels))
        else:
            raise ParseError(f"unrecognized line {line!r}", i, path)
    if points is None:
        raise ParseError("missing points line", None, path)
    return make_topology(points, generators)


def parse_structure(text, path=None):
    """`carrier: ...` then `relation NAME arity N` blocks of tuple lines."""
    carrier = None
    symbols = []
    relations = {}
    current = want = None
    for i, line in _lines(text):
        parts = line.split()
        if line.startswith("carrier:"):
            if carrier is not None:
                raise ParseError("duplicate carrier line", i, path)
            carrier = tuple(_labels(line[len("carrier:"):], "carrier elements", i, path))
        elif parts[0] == "relation":
            if len(parts) != 4 or parts[2] != "arity":
                raise ParseError("expected `relation NAME arity N`", i, path)
            name = parts[1]
            try:
                arity = int(parts[3])
            except ValueError:
                raise ParseError(f"bad arity {parts[3]!r}", i, path) from None
            if arity < 0:
                raise ParseError("arity must be nonnegative", i, path)
            if name in relations:
                raise ParseError(f"duplicate relation {name}", i, path)
            symbols.append((name, arity))
            relations[name] = set()
            current, want = name, arity + 1
        else:
            if carrier is None or current is None:
                raise ParseError("tuple line outside a relation block", i, path)
            entries = tuple(parts)
            if len(entries) != want:
                raise ParseError(
                    f"tuple has {len(entries)} entries, expected {want}", i, path
                )
            unknown = set(entries) - set(carrier)
            if unknown:
                raise ParseError(f"unknown carrier elements {sorted(unknown)}", i, path)
            relations[current].add(entries)
    if carrier is None:
        raise ParseError("missing carrier line", None, path)
    return RelationalStructure(carrier, Signature(symbols), relations)


def parse_subset(token, i=None, path=None):
    """Subset literal `{x1 x3}`; `{}` is the empty set. A repeated element is refused."""
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError(f"subset literal must be braced, got {token!r}", i, path)
    return frozenset(_labels(token[1:-1], "subset elements", i, path))


def _parse_value(token, lattice, i, path):
    token = token.strip()
    if token.startswith("{"):
        value = parse_subset(token, i, path)
    else:
        value = _parse_fraction(token, i, path, "lattice value")
    if value not in lattice.index:
        raise ParseError(f"{token!r} is not an element of the lattice", i, path)
    return value


def parse_lattice_map(text, carrier, lattice, path=None):
    """One `x -> value` line per carrier element; value is a subset literal
    for open-set lattices or a fraction for chains."""
    values = {}
    for i, line in _lines(text):
        if "->" not in line:
            raise ParseError("expected `element -> value`", i, path)
        left, right = line.split("->", 1)
        x = left.strip()
        if x not in carrier:
            raise ParseError(f"unknown carrier element {x!r}", i, path)
        if x in values:
            raise ParseError(f"duplicate entry for {x!r}", i, path)
        values[x] = _parse_value(right, lattice, i, path)
    missing = set(carrier) - set(values)
    if missing:
        raise ParseError(f"missing entries for {sorted(missing)}", None, path)
    return LatticeMap.from_values(carrier, lattice, values)


def _parse_fraction(token, i, path, what="rational"):
    """The rational a token writes. Exponent notation is refused before ``Fraction``
    sees it, because ``Fraction`` computes 10**exp before any range check."""
    if "e" not in token and "E" not in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad {what} {token!r}", i, path)


def parse_step_function(text, path=None):
    """`point X -> V` and `interval (A,B) -> V` lines; omitted pieces are 0.

    A declared interval may span several breakpoints introduced by other
    lines, and gives them its value unless a point line sets theirs;
    overlapping declarations must not conflict.
    """
    point_decls = {}
    interval_decls = []
    for i, line in _lines(text):
        if "->" not in line:
            raise ParseError("expected `point ... -> v` or `interval ... -> v`", i, path)
        left, right = line.split("->", 1)
        value = _parse_fraction(right.strip(), i, path)
        if not (_ZERO <= value <= _ONE):
            raise ParseError(f"value {right.strip()} outside [0, 1]", i, path)
        parts = left.split(None, 1)
        if len(parts) != 2:
            raise ParseError("expected `point X` or `interval (A,B)`", i, path)
        kind, piece = parts[0], parts[1].strip()
        if kind == "point":
            x = _parse_fraction(piece, i, path)
            if not (_ZERO <= x <= _ONE):
                raise ParseError(f"point {piece} outside [0, 1]", i, path)
            if x in point_decls:
                raise ParseError(f"duplicate point {piece}", i, path)
            point_decls[x] = value
        elif kind == "interval":
            if not (piece.startswith("(") and piece.endswith(")")) or piece.count(",") != 1:
                raise ParseError("interval must be written (A,B)", i, path)
            a_tok, b_tok = piece[1:-1].split(",")
            a = _parse_fraction(a_tok.strip(), i, path)
            b = _parse_fraction(b_tok.strip(), i, path)
            if not (_ZERO <= a < b <= _ONE):
                raise ParseError(f"bad interval {piece}", i, path)
            interval_decls.append((a, b, value, i))
        else:
            raise ParseError(f"unrecognized piece kind {kind!r}", i, path)
    ends = [x for a, b, _, _ in interval_decls for x in (a, b)]
    bps = sorted({_ZERO, _ONE, *point_decls, *ends})
    index = {b: k for k, b in enumerate(bps)}
    # piece 2k is breakpoint k and piece 2k + 1 the interval after it; declarations are in
    # line order, so the first on a piece has the lowest line
    covering = [[] for _ in range(2 * len(bps) - 1)]
    for a, b, v, i in interval_decls:
        for k in range(2 * index[a] + 1, 2 * index[b]):
            covering[k].append((v, i))
    values = []
    for k, decls in enumerate(covering):
        vals = {v for v, _ in decls}
        if len(vals) > 1:  # two values on a breakpoint first differ on the interval before it
            lo, hi = bps[k // 2], bps[k // 2 + 1]
            raise ParseError(f"conflicting values on ({lo},{hi})", decls[0][1], path)
        values.append(vals.pop() if vals else _ZERO)
    pvs = [point_decls.get(x, v) for x, v in zip(bps, values[::2])]
    return StepFunction(bps, pvs, values[1::2])


def _tokenize(line):
    return line.replace("(", " ( ").replace(")", " ) ").split()


def _parse_term(tokens, pos, signature, i, path, depth=0):
    if pos >= len(tokens):
        raise ParseError("unexpected end of term", i, path)
    tok = tokens[pos]
    if tok == "(":
        if depth == MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} applications", i, path)
        if pos + 1 >= len(tokens):
            raise ParseError("unexpected end of term", i, path)
        name = tokens[pos + 1]
        if name in ("(", ")"):
            raise ParseError("expected a symbol after (", i, path)
        if name not in signature.names:
            raise ParseError(f"unknown symbol {name!r}", i, path)
        arity = signature.arity(name)
        args = []
        pos += 2
        for _ in range(arity):
            term, pos = _parse_term(tokens, pos, signature, i, path, depth + 1)
            args.append(term)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ParseError(f"expected ) closing {name}", i, path)
        return App(name, tuple(args)), pos + 1
    if tok == ")":
        raise ParseError("unexpected )", i, path)
    if tok in signature.names:
        if signature.arity(tok) != 0:
            raise ParseError(f"symbol {tok!r} needs arguments", i, path)
        return App(tok, ()), pos + 1
    return Var(tok), pos + 1


def parse_equation(line, signature, lineno=None, path=None):
    """Prefix-notation equation, e.g. `(f v w) = (f w v)`."""
    if "=" not in line:
        raise ParseError("equation needs a top-level =", lineno, path)
    left, right = (_tokenize(side) for side in line.split("=", 1))
    lhs, pos = _parse_term(left, 0, signature, lineno, path)
    if pos != len(left):
        raise ParseError("trailing tokens on left side", lineno, path)
    rhs, pos = _parse_term(right, 0, signature, lineno, path)
    if pos != len(right):
        raise ParseError("trailing tokens on right side", lineno, path)
    return Equation(lhs, rhs)


def parse_equations(text, signature, path=None):
    return [parse_equation(line, signature, i, path) for i, line in _lines(text)]


def format_element(value):
    """Canonical printing: sorted braced sets for opens, plain fractions for
    chain elements."""
    if isinstance(value, frozenset):
        return "{" + " ".join(str(x) for x in sorted(value)) + "}"
    return str(value)


def format_map(m):
    return "\n".join(f"{x} -> {format_element(v)}" for x, v in m.values.items())


def format_step_function(f):
    # each accessor decodes a fresh tuple of Fractions, so read each once
    bps, pvs, ivs = f.breakpoints, f.point_values, f.interval_values
    lines = [f"point {b} -> {v}" for b, v in zip(bps, pvs) if v]
    lines += [f"interval ({a},{b}) -> {v}" for a, b, v in zip(bps, bps[1:], ivs) if v]
    return "\n".join(lines) or "# identically zero"
