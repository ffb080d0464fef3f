"""Trevisan-style function ingredients: weak designs, a Hadamard code with
brute-force list decoding, coordinate restriction, and the evaluation map.

The evaluation map feeds a seed y through a family of coordinate sets: bit i
of the output is the encoded message read at position y restricted to set i.
Desk scale favors the Hadamard code (codeword length 2^n_msg) because its
exhaustive decoder doubles as the agreement oracle the tests compare against.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .extractor import ExtractorView
from .graph import INT, ROWS, BipartiteGraph, read_fields
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


def greedy_weak_design(block_size: int, m: int, d: int, seed: int,
                       tries_per_set: int = 200,
                       restarts: int = 50) -> WeakDesign:
    """Randomized greedy construction: draw candidate blocks until one keeps
    the partial intersection sum within m - 1, restarting from scratch when
    a slot cannot be filled. Deterministic given the seed; raises when the
    budget runs out (the caller should raise d)."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if d < block_size:
        raise ValueError(f"universe size {d} smaller than block size {block_size}")
    if m < 1:
        raise ValueError("m must be positive")
    rng = SplitMix64(seed)
    for _ in range(restarts):
        sets: list[tuple[int, ...]] = []
        chosen_sets: list[set[int]] = []
        feasible = True
        for _ in range(m):
            placed = False
            for _ in range(tries_per_set):
                cand = tuple(sorted(x + 1 for x in rng.sample(d, block_size)))
                cand_set = set(cand)
                total = sum(2 ** len(cand_set & prev) for prev in chosen_sets)
                if total <= m - 1:
                    sets.append(cand)
                    chosen_sets.append(cand_set)
                    placed = True
                    break
            if not placed:
                feasible = False
                break
        if feasible:
            design = WeakDesign(d, block_size, tuple(sets))
            violation = verify_weak_design(design, m)
            if violation is not None:  # construction bug, not bad luck
                raise AssertionError(f"greedy produced invalid design: {violation}")
            return design
    raise RuntimeError(
        f"no weak design found for (block_size={block_size}, m={m}, d={d}) "
        f"within {restarts} restarts; raise d")


def design_to_json(design: WeakDesign) -> str:
    doc = {"d": design.d, "block_size": design.block_size,
           "sets": [list(s) for s in design.sets]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def design_from_json(text: str) -> WeakDesign:
    d, block_size, sets = read_fields(json.loads(text), d=INT,
                                      block_size=INT, sets=ROWS)
    return WeakDesign(d, block_size, tuple(tuple(s) for s in sets))


def save_design(design: WeakDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_to_json(design))


def load_design(path) -> WeakDesign:
    with open(path, "r", encoding="utf-8") as fh:
        return design_from_json(fh.read())


def _check_bits(s: str, what: str) -> str:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"{what} must be a nonempty string of 0s and 1s: {s!r}")
    return s


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


def encode(code: CodeTable, u: str) -> str:
    """Bit at position a is the inner product <u, a> mod 2, positions
    enumerated as n_msg-bit strings in numeric order."""
    _check_bits(u, "message")
    if len(u) != code.n_msg:
        raise ValueError(f"message length {len(u)} != n_msg {code.n_msg}")
    bits = []
    for a in range(code.codeword_length):
        abits = format(a, f"0{code.n_msg}b")
        bits.append(str(sum(int(x) & int(y) for x, y in zip(u, abits)) & 1))
    return "".join(bits)


@lru_cache(maxsize=16)
def _codeword_table(n_msg: int) -> tuple[str, ...]:
    code = CodeTable(n_msg, Fraction(1, 4))
    return tuple(encode(code, format(u, f"0{n_msg}b")) for u in range(2 ** n_msg))


def list_decode(code: CodeTable, word: str) -> list[str]:
    """All messages whose codeword agrees with `word` on at least a
    (1/2 + delta) fraction of positions, by trying every message. Returned
    in message (numeric) order."""
    _check_bits(word, "word")
    nbar = code.codeword_length
    if len(word) != nbar:
        raise ValueError(f"word length {len(word)} != codeword length {nbar}")
    # agree >= (1/2 + delta) * nbar, compared exactly in integers
    p, q = code.delta.numerator, code.delta.denominator
    out = []
    for u_int, cw in enumerate(_codeword_table(code.n_msg)):
        agree = sum(1 for a, b in zip(cw, word) if a == b)
        if 2 * q * agree >= nbar * (q + 2 * p):
            out.append(format(u_int, f"0{code.n_msg}b"))
    return out


def restrict(y: str, coords) -> str:
    """Bits of y at the given 1-based coordinates, ascending."""
    _check_bits(y, "seed string")
    coords = sorted(coords)
    if any(not 1 <= c <= len(y) for c in coords):
        raise ValueError(f"coordinates {coords} out of range for |y| = {len(y)}")
    return "".join(y[c - 1] for c in coords)


def trevisan_eval(code: CodeTable, design: WeakDesign, u: str, y: str) -> str:
    """m-bit output: bit i reads the encoded message at position y|_{S_i}."""
    if design.block_size != code.n_msg:
        raise ValueError(
            f"design block size {design.block_size} != message length "
            f"{code.n_msg} (positions of the codeword are n_msg-bit strings)")
    _check_bits(y, "seed string")
    if len(y) != design.d:
        raise ValueError(f"seed length {len(y)} != design universe {design.d}")
    cw = encode(code, u)
    return "".join(cw[int(restrict(y, s), 2)] for s in design.sets)


def as_extractor_view(code: CodeTable, design: WeakDesign, K: int, eps) -> ExtractorView:
    """The evaluation map as a left-regular graph: left part is all messages,
    edge labels are all seeds, right part is all m-bit outputs. Useful for
    measuring empirical deviation; no extractor guarantee is implied at desk
    scale."""
    n = code.n_msg
    d = design.d
    m = design.m
    # the restriction pattern depends on the seed only, so precompute it
    positions = [
        [int(restrict(format(y, f"0{d}b"), s), 2) for s in design.sets]
        for y in range(2 ** d)
    ]
    rows = []
    for u_int in range(2 ** n):
        cw = encode(code, format(u_int, f"0{n}b"))
        rows.append(tuple(
            int("".join(cw[p] for p in pos), 2) for pos in positions))
    graph = BipartiteGraph(n, 2 ** m, 2 ** d, tuple(rows))
    return ExtractorView(graph, K, eps)
