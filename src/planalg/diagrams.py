"""Colours and Temperley-Lieb diagrams (non-crossing perfect matchings)."""

from __future__ import annotations

from functools import lru_cache

from . import config
from .errors import InternalError, ParseError, PreconditionError, ValidationError


_COLOURS = {}       # (n, minus) -> the one Colour with those values


class Colour:
    """A box colour: 0_+, 0_- or a positive integer.

    An unqualified 0 always resolves to 0_+; that rule lives here and
    nowhere else.  There is one instance per colour, validated when first
    built, so colours compare and hash by identity.
    """

    __slots__ = ("n", "minus")

    def __new__(cls, n: int, minus: bool = False):
        colour = _COLOURS.get((n, minus))
        if colour is None:
            if n < 0:
                raise PreconditionError("colour must be non-negative")
            if minus and n != 0:
                raise PreconditionError("only colour 0 carries a shading sign")
            colour = _COLOURS[n, minus] = super().__new__(cls)
            colour.n = int(n)           # a bool from JSON is kept as 0 or 1
            colour.minus = bool(minus)
        return colour

    def __reduce__(self):
        return (Colour, (self.n, self.minus))

    @classmethod
    def of(cls, value) -> "Colour":
        if isinstance(value, Colour):
            return value
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, str):
            s = value.strip()
            if s in ("0+", "0_+"):
                return cls(0)
            if s in ("0-", "0_-"):
                return cls(0, minus=True)
            return cls(int(s))
        raise PreconditionError(f"cannot interpret {value!r} as a colour")

    @classmethod
    def capped(cls, value) -> "Colour":
        """`of` for user input, which may not exceed `config.COLOUR_CAP`: every
        marked point of a box is allocated, so a huge colour is refused first."""
        colour = cls.of(value)
        if colour.n > config.COLOUR_CAP:
            raise ParseError(
                f"colour {colour.n} exceeds the configured cap {config.COLOUR_CAP}")
        return colour

    @property
    def points(self) -> int:
        return 2 * self.n

    def to_json(self):
        if self.n == 0:
            return "0-" if self.minus else "0+"
        return self.n

    def __repr__(self):
        if self.n == 0:
            return "0-" if self.minus else "0+"
        return str(self.n)


ZERO_PLUS = Colour(0)
ZERO_MINUS = Colour(0, minus=True)


def catalan(n: int) -> int:
    return 1 if n == 0 else catalan(n - 1) * 2 * (2 * n - 1) // (n + 1)


_INTERNED = {}      # (n, minus, pairs) -> the one Diagram with that pairing


class _Interned(type):
    """`Diagram(colour, pairs)` returns the one instance of that pairing, kept
    for the life of the process.  The lookup comes first, so `__init__` runs,
    and validates, once per new pairing; one that fails is never kept."""

    def __call__(cls, colour, pairs):
        colour = Colour.of(colour)
        key = (colour.n, colour.minus, _sorted_pairs(pairs))
        diagram = _INTERNED.get(key)
        if diagram is None:
            diagram = _INTERNED[key] = super().__call__(colour, key[2])
        return diagram


def traced_diagram(colour: Colour, pairs: tuple) -> "Diagram":
    """The interned diagram of traced, already sorted `pairs`, or a new one
    validated by `Diagram(...)`: one that crosses raises `InternalError`."""
    try:
        return _INTERNED.get((colour.n, colour.minus, pairs)) or Diagram(colour, pairs)
    except ValidationError as exc:
        raise InternalError(f"a traced output pairing crosses: {exc}") from exc


def _sorted_pairs(pairs) -> tuple:
    """The pairs sorted, each smaller end first; each must be two `int`s."""
    out = []
    for p in pairs:
        try:
            a, b = p
        except (TypeError, ValueError):
            raise ValidationError(f"pair {p!r} is not two endpoints") from None
        if type(a) is not int or type(b) is not int:
            raise ValidationError(f"pair {p!r} has an endpoint that is not an int")
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


class Diagram(metaclass=_Interned):
    """A non-crossing perfect matching of the 2n boundary points of an n-box.

    Points are numbered 1..2n clockwise.  Stored as a sorted tuple of pairs,
    each pair with the smaller endpoint first; diagrams compare by identity.
    `outs` is `((self, 0),)`, the diagram as the one output of a scalar
    kernel term, built once.
    """

    __slots__ = ("colour", "pairs", "outs", "_partner", "_mirror")

    def __init__(self, colour: Colour, pairs: tuple):
        self.colour = colour
        self.pairs = pairs
        self.outs = ((self, 0),)
        partner = {}
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        self._partner = partner
        self._mirror = None
        self._validate()

    def _validate(self):
        n2 = self.colour.points
        if sorted(self._partner) != list(range(1, n2 + 1)):
            raise ValidationError(
                f"pairing is not a perfect matching of 1..{n2}")
        for a, b in self.pairs:
            if (a + b) % 2 == 0:
                raise ValidationError(
                    f"pair ({a},{b}) joins two points of equal parity",
                    strand=(a, b))
        # stack scan: non-crossing iff every closer matches the top opener
        stack = []
        for p in range(1, n2 + 1):
            q = self._partner[p]
            if q > p:
                stack.append(p)
            else:
                if not stack or stack[-1] != q:
                    raise ValidationError(
                        f"pair ({q},{p}) crosses another strand", strand=(q, p))
                stack.pop()

    def partner(self, p: int) -> int:
        return self._partner[p]

    def reflect(self) -> "Diagram":
        """Mirror image: point i goes to 2n+1-i; found once per diagram."""
        if self._mirror is None:
            m = self.colour.points + 1
            self._mirror = Diagram(self.colour, [(m - b, m - a) for a, b in self.pairs])
        return self._mirror

    def __reduce__(self):
        return (Diagram, (self.colour, self.pairs))

    def to_json(self):
        return [list(p) for p in self.pairs]

    def __repr__(self):
        inner = ",".join(f"{a}-{b}" for a, b in self.pairs)
        return f"D{self.colour}({inner})"


def identity_diagram(colour) -> Diagram:
    """The unit 1_n: point i joined to 2n+1-i."""
    n = Colour.of(colour).n
    return Diagram(colour, [(i, 2 * n + 1 - i) for i in range(1, n + 1)])


def _matchings(points: tuple) -> list:
    """All non-crossing matchings of an ordered run of points (sorted lists of pairs)."""
    if not points:
        return [[]]
    out = []
    first = points[0]
    # first can only pair inside the run at odd offsets (even block enclosed)
    for j in range(1, len(points), 2):
        inside = _matchings(points[1:j])
        outside = _matchings(points[j + 1:])
        for ins in inside:
            for outs in outside:
                out.append([(first, points[j])] + ins + outs)
    return out


@lru_cache(maxsize=None)
def _enumerate_cached(colour: Colour):
    return tuple(Diagram(colour, m)
                 for m in _matchings(tuple(range(1, colour.points + 1))))


def enumerate_diagrams(colour) -> tuple:
    """All diagrams of the given colour in lexicographic order; Catalan(n) many."""
    colour = Colour.of(colour)
    if colour.n > config.COLOUR_CAP:
        raise PreconditionError(
            f"colour {colour.n} exceeds the configured cap {config.COLOUR_CAP}")
    return _enumerate_cached(colour)
