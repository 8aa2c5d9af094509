"""GF(2^m) arithmetic backed by exp/log tables, with explicit operation counting.

Elements are plain ints in [0, 2^m); the binary digits are the coordinates in
the standard basis (1, a, a^2, ..., a^(m-1)) where a is a root of the chosen
primitive polynomial.  Addition is XOR.  Multiplication goes through the
discrete-log tables so the cost model is independent of the reduction
strategy.

Counting is opt-in: arithmetic methods accept an optional OpCount that the
caller owns.  One counter per unit of work.
"""

from __future__ import annotations

from dataclasses import dataclass

# One primitive polynomial per extension degree (bit i = coefficient of x^i).
# The m=3 entry is x^3 + x + 1, which fixes exp = [1,2,4,3,6,7,5] and keeps
# the 7-point worked example reproducible.
PRIMITIVE_POLYS: dict[int, int] = {
    2: 0b111,                  # x^2 + x + 1
    3: 0b1011,                 # x^3 + x + 1
    4: 0b10011,                # x^4 + x + 1
    5: 0b100101,               # x^5 + x^2 + 1
    6: 0b1000011,              # x^6 + x + 1
    7: 0b10001001,             # x^7 + x^3 + 1
    8: 0b100011101,            # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,           # x^9 + x^4 + 1
    10: 0b10000001001,         # x^10 + x^3 + 1
    11: 0b100000000101,        # x^11 + x^2 + 1
    12: 0b1000001010011,       # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,      # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,     # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,    # x^15 + x + 1
    16: 0b10001000000001011,   # x^16 + x^12 + x^3 + x + 1
}

M_MIN = 2
M_MAX = 16


@dataclass(frozen=True)
class FieldSpec:
    """Extension degree plus the primitive polynomial defining GF(2^m).

    primitive_poly=None selects the embedded default for m.
    """

    m: int
    primitive_poly: int | None = None

    def resolved_poly(self) -> int:
        if self.primitive_poly is not None:
            return self.primitive_poly
        try:
            return PRIMITIVE_POLYS[self.m]
        except KeyError:
            raise ValueError(f"m={self.m} out of range [{M_MIN},{M_MAX}]") from None


@dataclass
class OpCount:
    """Tally of GF(2^m) multiplications and additions for one pipeline stage.

    A multiplication by 0 or 1 is free: only a product of two elements > 1
    counts.
    """

    mults: int = 0
    adds: int = 0

    def count_mul(self, a: int, b: int) -> None:
        if a > 1 and b > 1:
            self.mults += 1


class FieldContext:
    """Immutable GF(2^m) arithmetic context: tables, length n = 2^m - 1."""

    __slots__ = ("spec", "m", "n", "exp", "log", "_exp2")

    def __init__(self, spec: FieldSpec, exp: list[int], log: list[int]):
        self.spec = spec
        self.m = spec.m
        self.n = (1 << spec.m) - 1
        self.exp = exp
        self.log = log
        self._exp2 = exp + exp  # avoids % n on log-sum lookups

    def add(self, a: int, b: int, oc: OpCount | None = None) -> int:
        if oc is not None:
            oc.adds += 1
        return a ^ b

    def mul(self, a: int, b: int, oc: OpCount | None = None) -> int:
        if oc is not None:
            oc.count_mul(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp2[self.log[a] + self.log[b]]

    def __eq__(self, other: object) -> bool:
        """Fields built from the same m and polynomial are the same field."""
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self is other or (self.m, self.spec.resolved_poly()) == (other.m, other.spec.resolved_poly())

    def __hash__(self) -> int:
        return hash((self.m, self.spec.resolved_poly()))

    def __repr__(self) -> str:
        return f"FieldContext(m={self.m}, poly={self.spec.resolved_poly():#x})"


def build_field(spec: FieldSpec) -> FieldContext:
    """Construct the exp/log tables for GF(2^m) by repeated multiplication by a.

    Raises ValueError for m outside [2,16], a malformed modulus, or a
    polynomial whose root has order below 2^m - 1 (not primitive).
    """
    m = spec.m
    if not (M_MIN <= m <= M_MAX):
        raise ValueError(f"m={m} out of range [{M_MIN},{M_MAX}]")
    poly = spec.resolved_poly()
    if poly < 0:
        raise ValueError(f"polynomial {poly:#x} is negative")
    if poly.bit_length() != m + 1:
        raise ValueError(f"polynomial {poly:#x} does not have degree {m}")
    if not poly & 1:
        raise ValueError(f"polynomial {poly:#x} has zero constant term")

    n = (1 << m) - 1
    exp = [0] * n
    log = [-1] * (1 << m)
    x = 1
    for i in range(n):
        if log[x] != -1:
            raise ValueError(f"polynomial {poly:#x} is not primitive")
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= poly
    if x != 1:
        raise ValueError(f"polynomial {poly:#x} is not primitive")
    return FieldContext(spec, exp, log)


def default_field(m: int) -> FieldContext:
    """GF(2^m) over the embedded default primitive polynomial."""
    return build_field(FieldSpec(m))
