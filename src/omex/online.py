"""On-line matching: greedy layered engine, audits, and the game search.

Requests arrive one at a time and each must irrevocably take an unused
right neighbor or be rejected. The layered construction stacks copies of
an off-line-good graph; the greedy engine walks the layers in order and
takes the first unused copy, which keeps the per-layer accounting that
`half_rejection_audit` verifies. `online_strategy_exists` settles, by
exhaustive game-tree search, whether any on-line algorithm at all can
survive every adversary order.
"""

import math
from dataclasses import dataclass, field

from .graph import BipartiteGraph
from .limits import LimitExceeded, default_limits
from .offline import hall_check


def counterexample_graph() -> BipartiteGraph:
    """Smallest graph where off-line matching up to size 2 works but no
    on-line strategy does: x sees both right vertices, y and z see one each.
    An adversary that starts with x wins whatever the algorithm picks."""
    return BipartiteGraph(2, 2, 2, ((0, 1), (0,), (1,)))


@dataclass(frozen=True)
class LayeredGraph:
    """`copies` stacked replicas of a base graph's right part.

    Right vertex r of copy j becomes index j * base.right_size + r, and each
    left neighbor list is the base list repeated once per layer, layer-major.
    A first-unused greedy scan of that list therefore tries layer 0 fully
    before touching layer 1, and so on.
    """

    base: BipartiteGraph
    copies: int
    graph: BipartiteGraph

    @staticmethod
    def build(base: BipartiteGraph, copies: int) -> "LayeredGraph":
        """Materialize the stacked rows, charging left * degree * copies
        entries to the `gen_edges` budget first."""
        if copies < 1:
            raise ValueError("need at least one copy")
        edges = base.left_size * base.max_degree * copies
        limit = default_limits().gen_edges
        if edges > limit:
            raise LimitExceeded(f"{edges} layered edges exceed limit {limit}")
        width = base.right_size
        rows = tuple(
            tuple(layer * width + r for layer in range(copies) for r in row)
            for row in base.neighbors)
        derived = BipartiteGraph(base.n, width * copies,
                                 base.max_degree * copies, rows)
        return LayeredGraph(base, copies, derived)


def layered(base: BipartiteGraph, k: int) -> LayeredGraph:
    """(k+1) layers over a base that must pass hall_check(2^k).

    The stacking multiplies right size and left degrees by k+1 and turns
    off-line goodness into an on-line guarantee for up to 2^k requests.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k = {k}")
    witness = hall_check(base, 2 ** k)
    if witness is not None:
        raise ValueError(
            f"base graph fails hall_check({2 ** k}): witness {witness}")
    return LayeredGraph.build(base, k + 1)


@dataclass
class MatchingSession:
    """Mutable state of one on-line run. Assignments are final: a matched
    pair is never revised, a rejected request is never retried. Only the
    decisions are stored: `matched`, the `requested` and `used` bitmasks
    and the request order `_order`; the per-layer counts derive from them.
    """

    graph: BipartiteGraph | LayeredGraph
    capacity: int
    matched: dict[int, int] = field(default_factory=dict)
    requested: int = 0
    used: int = 0
    _order: list[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        lg = self.graph
        if not isinstance(lg, LayeredGraph):  # a plain graph is one layer
            lg = LayeredGraph(lg, 1, lg)
        self._rows = lg.graph.neighbors
        self._width, self._copies = lg.base.right_size, lg.copies

    @property
    def rejections(self) -> list[int]:
        """The rejected left vertices, in request order."""
        return [v for v in self._order if v not in self.matched]

    @property
    def reached(self) -> list[int]:
        """Requests that reached each layer: every rejected one, and those
        served in it or a higher layer."""
        rejected = len(self._order) - len(self.matched)
        return [rejected + (self.used >> layer * self._width).bit_count()
                for layer in range(self._copies)]

    @property
    def forwarded(self) -> list[int]:
        """Requests forwarded past each layer: those that reached the next
        layer up, or every rejected one past the top layer."""
        return self.reached[1:] + [len(self._order) - len(self.matched)]

    def request(self, left_index: int) -> int | None:
        """Serve one request: the matched right index, or None if rejected.

        Takes the first unused neighbor in stored order, which lies in the
        lowest layer that still has one. A request out of range, repeated
        or over capacity raises ValueError and leaves the session unchanged.
        """
        if not 0 <= left_index < len(self._rows):
            raise ValueError(f"left vertex {left_index} not in "
                             f"[0, {len(self._rows)})")
        if self.requested >> left_index & 1:
            raise ValueError(f"left vertex {left_index} already requested")
        if len(self._order) >= self.capacity:
            raise ValueError(f"capacity {self.capacity} exhausted")
        return self._step(left_index)

    def _reply(self, left_index: int) -> int | None:
        """The right index `request` would take now, changing nothing: the
        first unused one in stored order, or None."""
        used = self.used
        for r in self._rows[left_index]:
            if not used >> r & 1:
                return r
        return None

    def _step(self, left_index: int) -> int | None:
        """The greedy walk of `request`, for a vertex known to be valid."""
        self.requested |= 1 << left_index
        self._order.append(left_index)
        r = self._reply(left_index)
        if r is not None:
            self.used |= 1 << r
            self.matched[left_index] = r
        return r

    def _undo(self) -> None:
        """Reverse the latest `_step` exactly."""
        left_index = self._order.pop()
        self.requested ^= 1 << left_index
        r = self.matched.pop(left_index, None)
        if r is not None:
            self.used ^= 1 << r


@dataclass(frozen=True)
class AuditViolation:
    layer: int
    reached: int
    forwarded: int

    def __str__(self) -> str:
        return (f"layer {self.layer}: {self.forwarded} forwarded past it, "
                f"more than half of the {self.reached} that reached it")


def half_rejection_audit(session: MatchingSession) -> AuditViolation | None:
    """Check that no layer forwarded more than half (rounded up) of the
    requests that reached it. On a layered graph whose base is off-line
    good this holds for every request order; a violation localizes a
    broken precondition to its layer."""
    width, used = session._width, session.used
    rejected = len(session._order) - len(session.matched)
    reached = len(session._order)  # every request reaches layer 0
    for layer in range(session._copies):
        forwarded = rejected + (used >> (layer + 1) * width).bit_count()
        if forwarded > (reached + 1) // 2:
            return AuditViolation(layer, reached, forwarded)
        reached = forwarded
    return None


@dataclass
class GameResult:
    exists: bool
    strategy: dict | None
    nodes: int


def online_strategy_exists(g: BipartiteGraph, s: int) -> GameResult:
    """Exhaustive adversary-vs-algorithm search.

    The adversary presents any unrequested left vertex; the algorithm must
    commit an unused neighbor. `exists` is True iff the algorithm can serve
    every adversary sequence of length <= s; the returned strategy maps each
    adversary move to the first winning reply in stored neighbor order.
    Positions are memoized on (requested, used), both int bitmasks. The
    strategy shares the subtree of equal positions, and the last moves of
    its lines share one `{"pick": r, "next": {}}` per reply r.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    budget = default_limits().game_nodes
    nleft = g.left_size
    rows = g.neighbors
    top = min(s, nleft)
    memo: dict[tuple[int, int], bool] = {}
    nodes = 0

    def wins(requested: int, used: int, depth: int) -> bool:
        nonlocal nodes
        if depth >= top:
            return True
        key = (requested, used)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > budget:
            raise LimitExceeded(f"game tree exceeds {budget} nodes")
        result = True
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            tried = used  # a reply already tried is a repeat, like a used one
            for r in rows[v]:
                rbit = 1 << r
                if tried & rbit:
                    continue
                tried |= rbit
                if wins(requested | bit, used | rbit, depth + 1):
                    break
            else:
                result = False
                break
        memo[key] = result
        return result

    trees: dict[tuple[int, int], dict] = {}
    last_moves: dict[int, dict] = {}

    # A second walk, because `wins` memoizes plain bools and so a losing
    # game keeps no trees. Memoizing subtrees instead halves the time of
    # small winning games, but a losing game then builds one per winning
    # position: a random (5,1,1) graph at s=5 (113,459 nodes) went from
    # 1.65 s to 8.4 s and from 17.6 MB to 597 MB traced peak (2 vCPUs).
    def build_tree(requested: int, used: int, depth: int) -> dict:
        if depth >= top:
            return {}
        # equal positions share one subtree, as in `wins`
        key = (requested, used)
        if key in trees:
            return trees[key]
        tree = trees[key] = {}
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            for r in rows[v]:
                rbit = 1 << r
                if used & rbit:
                    continue
                if wins(requested | bit, used | rbit, depth + 1):
                    if depth + 1 < top:
                        tree[v] = {"pick": r, "next": build_tree(
                            requested | bit, used | rbit, depth + 1)}
                    else:       # most moves are last ones: share them
                        if r not in last_moves:
                            last_moves[r] = {"pick": r, "next": {}}
                        tree[v] = last_moves[r]
                    break
        return tree

    # each calls itself: free the cycles and memos now, on a refusal too
    try:
        strategy = build_tree(0, 0, 0) if wins(0, 0, 0) else None
    finally:
        del wins, build_tree
    return GameResult(strategy is not None, strategy, nodes)


@dataclass
class SequenceSweep:
    sequences: int
    first_rejection: list[int] | None
    first_audit_violation: tuple[list[int], AuditViolation] | None
    # nodes the walk stepped through, and subtrees counted from the cache
    # of passing states instead; neither takes part in equality
    visited: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.first_rejection is None and self.first_audit_violation is None


def _serving_mask(session: MatchingSession) -> int:
    """The base right vertices free in some layer where one more request
    can be served with the audit still passing, for a session that has
    rejected none and passes `half_rejection_audit`. One more request is
    then served and passes the audit iff its base row meets this mask.

    A request served in layer L adds one to what each layer below L
    forwards and to what each layer up to L reaches. Layers L and up keep
    passing: each forwards as many as before and reaches at least as many.
    So the request passes iff every layer below L passes with one more
    forwarded and one more reached. The layers where it passes are thus
    the lowest few, layer 0 always among them, and greedy serves the
    request in one of them iff its row meets a vertex free in one of them.
    """
    width, used = session._width, session.used
    full = (1 << width) - 1
    mask = ~used & full
    reached = len(session._order)       # reached layer 0
    for layer in range(1, session._copies):
        forwarded = (used >> layer * width).bit_count()  # past layer - 1
        if forwarded + 1 > (reached + 2) // 2:
            break
        mask |= ~(used >> layer * width) & full
        reached = forwarded
    return mask


def exhaustive_online_check(lg: LayeredGraph, capacity: int) -> SequenceSweep:
    """Run the greedy engine over every sequence of distinct left vertices
    of length <= capacity, sharing prefixes depth-first with undo.

    Each prefix is itself a complete request stream, so rejection-freedom
    and the half-rejection audit are checked at every node of the tree.
    The search stops at the first node that fails either check.

    Whether a child passes is read off its parent's `_serving_mask`, so a
    leaf is settled without stepping the engine; a failing child is
    stepped and audited for the report. The session's future and its
    per-layer counts depend only on its `requested` and `used` bitmasks,
    so they key its state. A node whose state already headed a subtree
    that passed throughout is not descended: its subtree's sequences are
    counted in closed form. Only passing subtrees are cached, so the first
    failing node, its prefix and `sequences` are those of the full walk.
    The `subset_nodes` budget bounds the nodes visited.
    """
    if capacity < 1:
        raise ValueError(f"need capacity >= 1, got {capacity}")
    budget = default_limits().subset_nodes
    nleft = lg.graph.left_size
    session = MatchingSession(lg, capacity)
    top = min(capacity, nleft)
    # below[j]: sequences strictly below a node at depth j
    below = [sum(math.perm(nleft - j, i) for i in range(1, top - j + 1))
             for j in range(top + 1)]
    rowmasks = [sum(1 << r for r in set(row)) for row in lg.base.neighbors]
    passed: set[tuple[int, int]] = set()
    sweep = SequenceSweep(0, None, None)
    visited = sequences = hits = 0
    # the walk is at a node of depth `depth`, the session holding its
    # prefix; todo[depth] holds the left vertices not yet tried below it
    # and serving[depth] its `_serving_mask`
    todo = [iter(range(nleft))] + [None] * top
    serving = [_serving_mask(session)] + [0] * top
    depth = 0
    while True:
        requested, used = session.requested, session.used
        mask = serving[depth]
        leaves = depth + 1 == top       # the children end their sequences
        for v in todo[depth]:
            if requested >> v & 1:
                continue
            if visited == budget:
                raise LimitExceeded(
                    f"sequence tree exceeds {budget} nodes: visited "
                    f"{visited} nodes, counted {sequences} sequences, "
                    f"cached {len(passed)} passing states")
            visited += 1
            sequences += 1
            if not rowmasks[v] & mask:  # the first failure ends the walk
                if session._step(v) is None:
                    sweep.first_rejection = list(session._order)
                violation = half_rejection_audit(session)
                if violation is not None:
                    sweep.first_audit_violation = (list(session._order),
                                                   violation)
                break
            if leaves:
                continue
            key = (requested | 1 << v, used | 1 << session._reply(v))
            if key in passed:
                hits += 1
                sequences += below[depth + 1]
                continue
            session._step(v)            # enter the child
            depth += 1
            todo[depth] = iter(range(nleft))
            serving[depth] = _serving_mask(session)
            break
        else:                           # every child passed
            if depth == 0:
                break
            passed.add((requested, used))
            depth -= 1
            session._undo()
            continue
        if not sweep.ok:
            break
    sweep.sequences, sweep.visited, sweep.memo_hits = sequences, visited, hits
    return sweep
