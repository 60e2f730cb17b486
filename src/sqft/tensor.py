"""GF(2) tensor algebra: elements of V^(x)n, gradings, digital operators.

An element of V^(x)n is a set of basis words; presence means coefficient 1.
A word is an int whose bit i is the letter in factor i (0 or 1). Addition is
symmetric difference. Factor 0 is the least significant bit and comes first
when a word is written as a string: "011" has factor 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

MATRIX_ARITY_CAP = 12


@dataclass(frozen=True)
class Z2Tensor:
    arity: int
    words: frozenset[int]

    @staticmethod
    def zero(arity: int) -> "Z2Tensor":
        return Z2Tensor(arity, frozenset())

    @staticmethod
    def scalar_one() -> "Z2Tensor":
        return Z2Tensor(0, frozenset({0}))

    @staticmethod
    def word(arity: int, bits: int) -> "Z2Tensor":
        if bits >> arity:
            raise ValueError("word has bits beyond the arity")
        return Z2Tensor(arity, frozenset({bits}))

    @staticmethod
    def from_strings(arity: int, *words: str) -> "Z2Tensor":
        vals = set()
        for w in words:
            if len(w) != arity or set(w) - {"0", "1"}:
                raise ValueError(f"bad word {w!r} for arity {arity}")
            vals.add(sum(1 << i for i, ch in enumerate(w) if ch == "1"))
        return Z2Tensor(arity, frozenset(vals))

    def word_strings(self) -> list[str]:
        return sorted(
            "".join("1" if (w >> i) & 1 else "0" for i in range(self.arity))
            for w in self.words
        )

    def __add__(self, other: "Z2Tensor") -> "Z2Tensor":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return Z2Tensor(self.arity, self.words ^ other.words)

    def tensor(self, other: "Z2Tensor") -> "Z2Tensor":
        words = frozenset(
            a | (b << self.arity) for a in self.words for b in other.words
        )
        return Z2Tensor(self.arity + other.arity, words)

    def is_zero(self) -> bool:
        return not self.words

    def permute(self, perm: Sequence[int]) -> "Z2Tensor":
        """Move factor i to position perm[i]."""
        out = set()
        for w in self.words:
            nw = 0
            for i in range(self.arity):
                if (w >> i) & 1:
                    nw |= 1 << perm[i]
            out.add(nw)
        return Z2Tensor(self.arity, frozenset(out))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Z2Tensor({self.arity}, 0)"
        return f"Z2Tensor({self.arity}, {'+'.join(self.word_strings())})"


@dataclass(frozen=True)
class GradingTriple:
    n0: int
    n1: int
    e: int


def grading(word: int, arity: int) -> GradingTriple:
    n1 = bin(word & ((1 << arity) - 1)).count("1")
    n0 = arity - n1
    return GradingTriple(n0, n1, n1 - n0)


def euler_grades(x: Z2Tensor) -> set[int]:
    return {grading(w, x.arity).e for w in x.words}


def is_homogeneous(x: Z2Tensor, e: int) -> bool:
    return all(g == e for g in euler_grades(x))


# ---------------------------------------------------------------------------
# digital operators

CREATE0, CREATE1 = "create0", "create1"
ANNIHILATE0, ANNIHILATE1 = "annihilate0", "annihilate1"


@dataclass(frozen=True)
class DigitalOp:
    """A creation a*_b or a general annihilation a_b (x) 1^(x)m.

    `factor` is the created/annihilated tensor slot in the *input* indexing
    for annihilations and in the *output* indexing for creations. Annihilation
    `acted` slots are input slots; everything else is carried unchanged, with
    slots above the annihilated factor shifting down by one on output.
    """

    kind: str
    factor: int
    arity_in: int
    acted: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind in (CREATE0, CREATE1):
            if self.acted:
                raise ValueError("creations have no acted factors")
            if not 0 <= self.factor <= self.arity_in:
                raise ValueError("created factor out of range")
        else:
            if not 0 <= self.factor < self.arity_in:
                raise ValueError("annihilated factor out of range")
            if self.factor in self.acted:
                raise ValueError("acted factors must avoid the annihilated one")
            if len(set(self.acted)) != len(self.acted):
                raise ValueError("acted factors repeat")
            for j in self.acted:
                if not 0 <= j < self.arity_in:
                    raise ValueError("acted factor out of range")

    @property
    def arity_out(self) -> int:
        if self.kind in (CREATE0, CREATE1):
            return self.arity_in + 1
        return self.arity_in - 1


def create_op(bit: int, arity_in: int) -> DigitalOp:
    return DigitalOp(CREATE1 if bit else CREATE0, arity_in, arity_in)


def annihilate_op(bit: int, arity_in: int, factor: int,
                  acted: Iterable[int]) -> DigitalOp:
    return DigitalOp(ANNIHILATE1 if bit else ANNIHILATE0, factor, arity_in,
                     tuple(acted))


def _insert_bit(word: int, pos: int, bit: int) -> int:
    low = word & ((1 << pos) - 1)
    high = word >> pos
    return low | (bit << pos) | (high << (pos + 1))


def _delete_bit(word: int, pos: int) -> int:
    low = word & ((1 << pos) - 1)
    high = word >> (pos + 1)
    return low | (high << pos)


def apply_create(op: DigitalOp, x: Z2Tensor) -> Z2Tensor:
    if op.kind not in (CREATE0, CREATE1):
        raise ValueError("not a creation")
    if x.arity != op.arity_in:
        raise ValueError("arity mismatch")
    bit = 1 if op.kind == CREATE1 else 0
    return Z2Tensor(op.arity_out,
                    frozenset(_insert_bit(w, op.factor, bit) for w in x.words))


def apply_annihilate(op: DigitalOp, x: Z2Tensor) -> Z2Tensor:
    if op.kind not in (ANNIHILATE0, ANNIHILATE1):
        raise ValueError("not an annihilation")
    if x.arity != op.arity_in:
        raise ValueError("arity mismatch")
    want = 1 if op.kind == ANNIHILATE1 else 0
    out: set[int] = set()
    for w in x.words:
        have = (w >> op.factor) & 1
        if have == want:
            out ^= {_delete_bit(w, op.factor)}
        else:
            # wrong letter in the annihilated slot: delete it anyway and sum
            # over compensating flips in the acted factors
            for j in op.acted:
                if (w >> j) & 1 == want:
                    out ^= {_delete_bit(w ^ (1 << j), op.factor)}
    return Z2Tensor(op.arity_out, frozenset(out))


def apply_op(op: DigitalOp, x: Z2Tensor) -> Z2Tensor:
    if op.kind in (CREATE0, CREATE1):
        return apply_create(op, x)
    return apply_annihilate(op, x)


# ---------------------------------------------------------------------------
# composition


@dataclass(frozen=True)
class LinearMap:
    """A GF(2)-linear map given by its action on basis words.

    `columns[w]` is the image of basis word w encoded as a bitmask over output
    basis words. Available as an explicit table only up to MATRIX_ARITY_CAP
    input factors; `apply` always works.
    """

    arity_in: int
    arity_out: int
    fn: Callable[[Z2Tensor], Z2Tensor]

    def apply(self, x: Z2Tensor) -> Z2Tensor:
        if x.arity != self.arity_in:
            raise ValueError("arity mismatch")
        return self.fn(x)

    def __call__(self, x: Z2Tensor) -> Z2Tensor:
        return self.apply(x)

    def columns(self) -> list[int]:
        if self.arity_in > MATRIX_ARITY_CAP:
            raise ValueError("matrix form capped at arity "
                             f"{MATRIX_ARITY_CAP}")
        cols = []
        for w in range(1 << self.arity_in):
            img = self.apply(Z2Tensor.word(self.arity_in, w))
            cols.append(sum(1 << v for v in img.words))
        return cols

    def equals(self, other: "LinearMap") -> bool:
        if (self.arity_in, self.arity_out) != (other.arity_in, other.arity_out):
            return False
        return self.columns() == other.columns()


def identity_map(arity: int) -> LinearMap:
    return LinearMap(arity, arity, lambda x: x)


def compose(ops: Sequence[DigitalOp]) -> LinearMap:
    """Sequential application, first op first."""
    arity = ops[0].arity_in if ops else 0
    cur = arity
    for op in ops:
        if op.arity_in != cur:
            raise ValueError("operator arities do not chain")
        cur = op.arity_out
    ops = tuple(ops)

    def fn(x: Z2Tensor) -> Z2Tensor:
        for op in ops:
            x = apply_op(op, x)
        return x

    if not ops:
        return identity_map(arity)
    return LinearMap(ops[0].arity_in, ops[-1].arity_out, fn)


# ---------------------------------------------------------------------------
# diagonal-slide basis change


def slide_map(x: Z2Tensor, i: int, j: int, block: tuple[tuple[int, int], ...]) -> Z2Tensor:
    """Apply a 2x2 block at factors (i, j), fixing the equal-bit words.

    Basis order of the block is (01, 10), meaning (bit_i, bit_j) = (0,1) then
    (1,0). Column k of `block` is the image of basis vector k.
    """
    return Z2Tensor(x.arity, frozenset(slide_words(x.words, i, j, block)))


def slide_words(words: Iterable[int], i: int, j: int,
                block: tuple[tuple[int, int], ...]) -> list[int]:
    """`slide_map` on distinct words, as a list of distinct words.

    The words that differ only at i and j share one span (01, 10), so the
    block acts on each such pair's coefficients at once; the images of
    distinct pairs and the equal-bit words never meet.
    """
    if i == j:
        raise ValueError("factors must differ")
    bit_i, bit_j = 1 << i, 1 << j
    both = bit_i | bit_j
    out: list[int] = []
    pairs: dict[int, int] = {}       # word with bits i, j clear -> coefficients
    for w in words:
        b = w & both
        if b == 0 or b == both:
            out.append(w)
        else:
            base = w ^ b
            pairs[base] = pairs.get(base, 0) ^ (1 if b == bit_j else 2)
    # image of each coefficient vector: bit 0 for 01, bit 1 for 10
    cols = [block[0][k] | block[1][k] << 1 for k in (0, 1)]
    image = (0, cols[0], cols[1], cols[0] ^ cols[1])
    for base, v in pairs.items():
        v = image[v]
        if v & 1:
            out.append(base | bit_j)
        if v & 2:
            out.append(base | bit_i)
    return out


# ---------------------------------------------------------------------------
# GF(2) rank, for census dimension checks


def gf2_rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}      # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)
