"""Trevisan-style function ingredients: weak designs, a Hadamard code with
Walsh-Hadamard list decoding, coordinate restriction, and the evaluation map.

The evaluation map feeds a seed y through a family of coordinate sets: bit i
of the output is the encoded message read at position y restricted to set i.
Bits are ints inside (bit a of the codeword of x is the parity of x & a);
'0'/'1' strings appear only at the public functions.

Design files go through the codec in `omex.graph` (`save_design` and
`load_design` are its bindings); loading refuses a design that breaks its
own invariants.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .extractor import ExtractorView
from .graph import (INT, ROWS, BipartiteGraph, GraphInvariantError, load,
                    read_fields, save)
from .limits import charge_edges, check_draw_bits
from .rng import SplitMix64


@dataclass(frozen=True)
class WeakDesign:
    """Sets S_1..S_m of size block_size inside {1..d} with bounded pairwise
    intersections: for each i > 1, sum_{j<i} 2^(|S_i inter S_j|) <= m - 1."""

    d: int
    block_size: int
    sets: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sets)

    def to_doc(self) -> dict:
        return {"d": self.d, "block_size": self.block_size,
                "sets": [list(s) for s in self.sets]}

    @staticmethod
    def from_doc(doc) -> "WeakDesign":
        """A design file; an empty family or any `verify_weak_design`
        violation raises GraphInvariantError."""
        d, block_size, sets = read_fields(doc, d=INT, block_size=INT, sets=ROWS)
        if not sets:
            raise GraphInvariantError("a design needs at least one set")
        design = WeakDesign(d, block_size, tuple(map(tuple, sets)))
        violation = verify_weak_design(design)
        if violation is not None:
            raise GraphInvariantError(str(violation))
        return design


@dataclass(frozen=True)
class DesignViolation:
    index: int          # 1-based set index
    kind: str           # "size" | "range" | "intersection_sum"
    value: int

    def __str__(self) -> str:
        return f"set {self.index}: {self.kind} violation (value {self.value})"


def verify_weak_design(design: WeakDesign, m: int | None = None) -> DesignViolation | None:
    """First violated invariant, or None. `m` is the family-size bound the
    intersection sums are checked against (defaults to the number of sets)."""
    if m is None:
        m = design.m
    for i, s in enumerate(design.sets, start=1):
        if len(set(s)) != design.block_size or len(s) != design.block_size:
            return DesignViolation(i, "size", len(set(s)))
        if any(not 1 <= x <= design.d for x in s):
            return DesignViolation(i, "range", min(s) if min(s) < 1 else max(s))
    for i in range(1, design.m):
        si = set(design.sets[i])
        total = sum(2 ** len(si & set(design.sets[j])) for j in range(i))
        if total > m - 1:
            return DesignViolation(i + 1, "intersection_sum", total)
    return None


# search budget of greedy_weak_design: draws per set slot, fresh starts
GREEDY_TRIES_PER_SET = 200
GREEDY_RESTARTS = 50


def greedy_weak_design(block_size: int, m: int, d: int,
                       seed: int) -> WeakDesign:
    """Randomized greedy construction: draw candidate blocks until one keeps
    the partial intersection sum within m - 1, restarting from scratch when
    a slot cannot be filled. Deterministic given the seed; raises when the
    budget runs out, or at once when no design of this shape exists (the
    caller should raise d)."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if d < block_size:
        raise ValueError(f"universe size {d} smaller than block size {block_size}")
    if m < 1:
        raise ValueError("m must be positive")
    # set i has i terms 2^a >= 1 + a in a sum of at most m - 1, so it
    # shares at most j = m - 1 - i coordinates with the sets before it
    need = block_size + sum(max(0, block_size - j) for j in range(m - 1))
    if d < need:
        raise RuntimeError(
            f"no weak design exists for (block_size={block_size}, m={m}, "
            f"d={d}): set i shares at most m - 1 - i coordinates with the "
            f"sets before it, so d >= {need}; raise d")
    rng = SplitMix64(seed)
    for _ in range(GREEDY_RESTARTS):
        sets: list[tuple[int, ...]] = []
        masks: list[int] = []
        for _ in range(m):
            for _ in range(GREEDY_TRIES_PER_SET):
                draw = rng.sample(d, block_size)
                mask = sum(1 << x for x in draw)
                if sum(2 ** (mask & prev).bit_count() for prev in masks) <= m - 1:
                    sets.append(tuple(sorted(x + 1 for x in draw)))
                    masks.append(mask)
                    break
            else:
                break  # the slot could not be filled: restart
        else:
            design = WeakDesign(d, block_size, tuple(sets))
            violation = verify_weak_design(design, m)
            if violation is not None:  # construction bug, not bad luck
                raise AssertionError(f"greedy produced invalid design: {violation}")
            return design
    raise RuntimeError(
        f"no weak design found for (block_size={block_size}, m={m}, d={d}) "
        f"within {GREEDY_RESTARTS} restarts; raise d")


save_design = save
load_design = partial(load, kind=WeakDesign)


def _check_bits(s: str, what: str) -> int:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"{what} must be a nonempty string of 0s and 1s: {s!r}")
    return int(s, 2)


def _bits(x: int, width: int) -> str:
    return format(x, f"0{width}b") if width else ""


@dataclass(frozen=True)
class CodeTable:
    """Hadamard code parameters: messages of n_msg bits, codewords of
    2^n_msg bits, list-decoding radius (1/2 + delta)."""

    n_msg: int
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.n_msg < 1:
            raise ValueError("n_msg must be positive")
        if not 0 < self.delta <= Fraction(1, 4):
            raise ValueError(f"delta must be in (0, 1/4], got {self.delta}")

    @property
    def codeword_length(self) -> int:
        return 2 ** self.n_msg


def _message(code: CodeTable, u: str) -> int:
    x = _check_bits(u, "message")
    if len(u) != code.n_msg:
        raise ValueError(f"message length {len(u)} != n_msg {code.n_msg}")
    return x


def _parities(x: int, masks) -> int:
    """Bit i is the parity of x & masks[i], the first bit most significant.
    Over masks 0..2^n_msg - 1 that is the Hadamard codeword of x; over
    one-bit masks it gathers the bits of x they select."""
    out = 0
    for mask in masks:
        out = out << 1 | (x & mask).bit_count() & 1
    return out


def encode(code: CodeTable, u: str) -> str:
    """Bit at position a is the inner product <u, a> mod 2, positions
    enumerated as n_msg-bit strings in numeric order."""
    nbar = code.codeword_length
    return _bits(_parities(_message(code, u), range(nbar)), nbar)


def list_decode(code: CodeTable, word: str) -> list[str]:
    """All messages whose codeword agrees with `word` on at least a
    (1/2 + delta) fraction of positions, in message (numeric) order. A fast
    Walsh-Hadamard transform of the signs (-1)^w_a gives every message u
    F[u] = sum_a (-1)^(w_a + <u, a>) = 2 * agree(u) - 2^n_msg at once."""
    _check_bits(word, "word")
    nbar = code.codeword_length
    if len(word) != nbar:
        raise ValueError(f"word length {len(word)} != codeword length {nbar}")
    f = [1 if ch == "0" else -1 for ch in word]
    h = 1
    while h < nbar:
        for i in range(0, nbar, 2 * h):
            for j in range(i, i + h):
                a, b = f[j], f[j + h]
                f[j], f[j + h] = a + b, a - b
        h *= 2
    # agree >= (1/2 + delta) * nbar with agree = (nbar + F) / 2, in integers
    p, q = code.delta.numerator, code.delta.denominator
    return [_bits(u, code.n_msg) for u, F in enumerate(f)
            if q * (nbar + F) >= nbar * (q + 2 * p)]


def _masks(coords, d: int) -> list[int]:
    """One-bit masks selecting 1-based coordinates of a d-bit seed, ascending;
    coordinate 1 is the most significant bit."""
    coords = sorted(coords)
    if any(not 1 <= c <= d for c in coords):
        raise ValueError(f"coordinates {coords} out of range for |y| = {d}")
    return [1 << (d - c) for c in coords]


def restrict(y: str, coords) -> str:
    """Bits of y at the given 1-based coordinates, ascending."""
    seed = _check_bits(y, "seed string")
    masks = _masks(coords, len(y))
    return _bits(_parities(seed, masks), len(masks))


def _check_block_size(code: CodeTable, design: WeakDesign) -> None:
    if design.block_size != code.n_msg:
        raise ValueError(
            f"design block size {design.block_size} != message length "
            f"{code.n_msg} (positions of the codeword are n_msg-bit strings)")


def trevisan_eval(code: CodeTable, design: WeakDesign, u: str, y: str) -> str:
    """m-bit output: bit i reads the encoded message at position y|_{S_i}."""
    _check_block_size(code, design)
    seed = _check_bits(y, "seed string")
    if len(y) != design.d:
        raise ValueError(f"seed length {len(y)} != design universe {design.d}")
    x = _message(code, u)
    positions = [_parities(seed, _masks(s, design.d)) for s in design.sets]
    return _bits(_parities(x, positions), design.m)


def as_extractor_view(code: CodeTable, design: WeakDesign, K: int, eps) -> ExtractorView:
    """The evaluation map as a left-regular graph: left part is all messages,
    edge labels are all seeds, right part is all m-bit outputs. Useful for
    measuring empirical deviation; no extractor guarantee is implied at desk
    scale. Bit i of the output, <x, y|S_i> mod 2, is linear in the seed y
    over GF(2), so a row is fixed by its outputs on the d one-bit seeds and
    is built by doubling from seed bit 0 (coordinate d) upward: 2^(n+d)
    XORs in all. The 2^(n+d) edges are charged to `gen_edges` after the
    design checks, before the first row."""
    _check_block_size(code, design)
    n, d = code.n_msg, design.d
    masks = [_masks(s, d) for s in design.sets]
    check_draw_bits(n + d, "view edges")    # before 2^(n+d) is built
    charge_edges(2 ** (n + d), "view edges")
    unit_positions = [[_parities(1 << j, m) for m in masks] for j in range(d)]
    rows = []
    for x in range(2 ** n):
        row = [0]
        for positions in unit_positions:
            bit = _parities(x, positions)
            row += [r ^ bit for r in row]
        rows.append(tuple(row))
    return ExtractorView(BipartiteGraph(n, 2 ** design.m, 2 ** d, tuple(rows)),
                         K, eps)
