"""Sign sequences: exact bookkeeping of sign changes.

A sign sequence records the signs a numeric sequence or a continuous
function takes on, in order.  Every sequence reduces to a *pure* form by
dropping zeros and collapsing runs of equal signs; the pure form retains
exactly the strong sign changes (strictly positive to strictly negative
or vice versa) and their directions.  Shapes of term-structure curves
are read off the pure sign sequence of the curve's derivative: each
``+ -`` transition is a hump (local maximum), each ``- +`` transition a
dip (local minimum).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable


class Sign(IntEnum):
    MINUS = -1
    ZERO = 0
    PLUS = 1

    @classmethod
    def of(cls, value: float, eps: float = 0.0) -> "Sign":
        """Sign of a real value; magnitudes <= eps count as zero."""
        if abs(value) <= eps:
            return cls.ZERO
        return cls.PLUS if value > 0 else cls.MINUS

    def __str__(self) -> str:
        return _SIGN_CHARS[self]


_SIGN_CHARS = {Sign.PLUS: "+", Sign.MINUS: "-", Sign.ZERO: "0"}
_CHAR_SIGNS = {"+": Sign.PLUS, "-": Sign.MINUS, "0": Sign.ZERO}


@dataclass(frozen=True)
class SignSeq:
    """Finite ordered sequence over {+, -, 0}.

    The empty sequence is reserved as the *empty-pure marker*: it is what
    an all-zero sequence reduces to and carries no sign information.
    User-facing constructors require at least one sign.
    """

    signs: tuple[Sign, ...]

    @classmethod
    def of(cls, signs: Iterable[Sign | int]) -> "SignSeq":
        sgns = tuple(Sign(s) for s in signs)
        if not sgns:
            raise ValueError("sign sequence must be non-empty")
        return cls(sgns)

    @classmethod
    def parse(cls, text: str) -> "SignSeq":
        """Parse a compact string such as '+-0+' into a sign sequence."""
        try:
            return cls.of(_CHAR_SIGNS[c] for c in text)
        except KeyError as exc:
            raise ValueError(f"invalid sign character {exc.args[0]!r}") from None

    @classmethod
    def pure(cls, first: Sign, changes: int) -> "SignSeq":
        """The pure sequence with a given first sign and change count."""
        if first is Sign.ZERO:
            if changes:
                raise ValueError("pure sequence with changes needs a nonzero first sign")
            return EMPTY_PURE
        return cls(tuple(Sign(first * (-1) ** k) for k in range(changes + 1)))

    @property
    def is_empty(self) -> bool:
        return not self.signs

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def __str__(self) -> str:
        return "".join(_SIGN_CHARS[s] for s in self.signs)


#: What an all-zero sequence reduces to; callers must treat it as carrying
#: no sign information.
EMPTY_PURE = SignSeq(())


def reduce(seq: SignSeq) -> SignSeq:
    """Reduce to pure form: drop zeros, collapse runs of equal signs."""
    out: list[Sign] = []
    for s in seq.signs:
        if s is Sign.ZERO:
            continue
        if not out or out[-1] is not s:
            out.append(s)
    return SignSeq(tuple(out))


def equivalent(a: SignSeq, b: SignSeq) -> bool:
    """True iff both sequences reduce to the same pure sequence."""
    return reduce(a) == reduce(b)


def subsequence(a: SignSeq, b: SignSeq) -> bool:
    """True iff reduce(a) is an order-preserving subsequence of reduce(b)."""
    ra, rb = reduce(a).signs, reduce(b).signs
    it = iter(rb)
    return all(any(s is t for t in it) for s in ra)


def head_subsequence(a: SignSeq, b: SignSeq) -> bool:
    """Subsequence relation that also preserves the initial sign.

    An empty reduction of ``a`` is a head of anything (vacuously).
    """
    ra, rb = reduce(a), reduce(b)
    if ra.is_empty:
        return True
    if rb.is_empty:
        return False
    return ra.signs[0] is rb.signs[0] and subsequence(ra, rb)


@dataclass(frozen=True)
class ShapeName:
    """Name of a term-structure shape.

    ``changes`` counts the strong sign changes of the curve derivative
    (equals the number of local extrema); ``first`` is the initial sign
    of the derivative, None for the degenerate flat shape.  Patterns
    outside the named list are labelled ``other`` and keep both fields
    so a violating pattern can be reported exactly.
    """

    label: str
    changes: int
    first: Sign | None

    @classmethod
    def other(cls, changes: int, first: Sign) -> "ShapeName":
        return cls("other", changes, first)

    @property
    def is_named(self) -> bool:
        return self.label != "other"

    def __str__(self) -> str:
        if self.label == "other":
            return f"other(k={self.changes},first={self.first})"
        return self.label


FLAT = ShapeName("flat", 0, None)
NORMAL = ShapeName("normal", 0, Sign.PLUS)
INVERSE = ShapeName("inverse", 0, Sign.MINUS)
HUMPED = ShapeName("humped", 1, Sign.PLUS)
DIPPED = ShapeName("dipped", 1, Sign.MINUS)
HD = ShapeName("HD", 2, Sign.PLUS)
DH = ShapeName("DH", 2, Sign.MINUS)
HDH = ShapeName("HDH", 3, Sign.PLUS)
DHD = ShapeName("DHD", 3, Sign.MINUS)
HDHD = ShapeName("HDHD", 4, Sign.PLUS)

NAMED_SHAPES = (FLAT, NORMAL, INVERSE, HUMPED, DIPPED, HD, DH, HDH, DHD, HDHD)

_SHAPES_BY_KEY = {(s.first, s.changes): s for s in NAMED_SHAPES if s.first is not None}
_SHAPES_BY_LABEL = {s.label: s for s in NAMED_SHAPES}


def shape_from_label(label: str) -> ShapeName:
    """Look up a named shape by its label ('normal', 'HDH', ...)."""
    try:
        return _SHAPES_BY_LABEL[label]
    except KeyError:
        raise ValueError(
            f"unknown shape {label!r}; expected one of "
            f"{sorted(_SHAPES_BY_LABEL)}"
        ) from None


def shape_of(derivative_sseq: SignSeq) -> ShapeName:
    """Map the (reduced) sign sequence of a curve derivative to its shape."""
    pure = reduce(derivative_sseq)
    if pure.is_empty:
        return FLAT
    first = pure.signs[0]
    changes = len(pure) - 1
    return _SHAPES_BY_KEY.get((first, changes), ShapeName.other(changes, first))
