"""Bounded-degree bipartite graphs, and the JSON codec of every omex file.

Left vertices are integers 0..left_size-1 (left_size <= 2^n, so each index
fits in n bits); right vertices are integers 0..right_size-1. Neighbor lists
keep construction order and may repeat a right vertex: the randomized
constructions draw with replacement, and the position of an edge inside a
list is meaningful (decoders address neighbors by ordinal).

Every file kind (graph, extractor view, enumerated set, weak design,
fingerprint) is a class with `to_doc` and `from_doc`; `to_json`/`from_json`
and `save`/`load` are the one canonical path between those documents and
bytes, and `read_fields` checks the fields of every `from_doc`.
"""

import json
from dataclasses import dataclass, field


class GraphError(Exception):
    pass


class GraphFormatError(GraphError):
    """The file does not parse into the expected fields."""


class GraphInvariantError(GraphError):
    """The parsed graph violates a structural invariant."""


@dataclass(frozen=True)
class Violation:
    rule: str
    vertex: int | None
    detail: str

    def __str__(self) -> str:
        where = f" at left vertex {self.vertex}" if self.vertex is not None else ""
        return f"{self.rule}{where}: {self.detail}"


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite graph with per-left-vertex ordered neighbor lists."""

    n: int                                   # left indices fit in n bits
    right_size: int
    max_degree: int
    neighbors: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @staticmethod
    def build(n: int, right_size: int, max_degree: int,
              neighbors: list[list[int]]) -> "BipartiteGraph":
        return BipartiteGraph(n, right_size, max_degree,
                              tuple(tuple(row) for row in neighbors)).checked()

    def checked(self) -> "BipartiteGraph":
        """The graph itself; GraphInvariantError names its first violation."""
        v = validate(self)
        if v is not None:
            raise GraphInvariantError(str(v))
        return self

    def to_doc(self) -> dict:
        self.checked()
        return {"n": self.n, "right_size": self.right_size,
                "max_degree": self.max_degree,
                "neighbors": [list(row) for row in self.neighbors]}

    @staticmethod
    def from_doc(doc) -> "BipartiteGraph":
        return BipartiteGraph.build(*read_fields(
            doc, n=INT, right_size=INT, max_degree=INT, neighbors=ROWS))

    @property
    def left_size(self) -> int:
        return len(self.neighbors)

    def neighbors_of(self, left_index: int) -> tuple[int, ...]:
        """Stored neighbor list of a left vertex, order and multiplicity kept."""
        if not 0 <= left_index < self.left_size:
            raise IndexError(f"left index {left_index} out of range")
        return self.neighbors[left_index]

    def degree_of(self, left_index: int) -> int:
        return len(self.neighbors_of(left_index))


def validate(g: BipartiteGraph) -> Violation | None:
    """First violated invariant with the offending vertex, or None if valid."""
    if g.n < 0:
        return Violation("n_nonnegative", None, f"n = {g.n}")
    if g.right_size < 1:
        return Violation("right_size_positive", None, f"right_size = {g.right_size}")
    if g.max_degree < 0:
        return Violation("max_degree_nonnegative", None, f"max_degree = {g.max_degree}")
    if max(g.left_size - 1, 0).bit_length() > g.n:   # left_size > 2^n
        return Violation("left_size_bound", None,
                         f"{g.left_size} left vertices exceed 2^{g.n}")
    for left, row in enumerate(g.neighbors):
        if len(row) > g.max_degree:
            return Violation("degree_bound", left,
                             f"degree {len(row)} > max_degree {g.max_degree}")
        for r in row:
            if not 0 <= r < g.right_size:
                return Violation("neighbor_range", left,
                                 f"neighbor {r} not in [0, {g.right_size})")
    return None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


# field kinds of the JSON files: (name used in errors, test of a value)
INT = ("an integer", _is_int)
STR = ("a string", lambda x: isinstance(x, str))
INTS = ("an array of integers", _is_ints)
ROWS = ("an array of integer arrays",
        lambda x: isinstance(x, list) and all(map(_is_ints, x)))


def read_fields(doc, **kinds) -> list:
    """Values of the named fields of a parsed JSON object, in argument
    order, each checked against its kind (INT, STR, INTS, ROWS, or another
    (name, test) pair). A non-object, a missing field or an ill-typed one
    raises GraphFormatError."""
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")
    values = []
    for key, (kind, test) in kinds.items():
        if key not in doc:
            raise GraphFormatError(f"missing field {key!r}")
        if not test(doc[key]):
            raise GraphFormatError(f"field {key!r} must be {kind}")
        values.append(doc[key])
    return values


def to_json(obj) -> str:
    """Canonical file bytes of `obj.to_doc()`: sorted keys, no whitespace,
    one trailing newline, so saving an object twice gives equal bytes."""
    return json.dumps(obj.to_doc(), sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str, kind=BipartiteGraph):
    """`kind.from_doc` of the parsed text; the one place files are parsed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"not valid JSON: {e}") from e
    return kind.from_doc(doc)


def save(obj, path) -> None:
    text = to_json(obj)  # before opening: an invalid object leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load(path, kind=BipartiteGraph):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read(), kind)


def complete_graph(n: int, right_size: int) -> BipartiteGraph:
    """Every left vertex adjacent to every right vertex, in right-index order."""
    row = tuple(range(right_size))
    return BipartiteGraph(n, right_size, right_size, tuple(row for _ in range(2 ** n)))
