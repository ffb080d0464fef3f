"""On-line matching: greedy layered engine, audits, and the game search.

Requests arrive one at a time and each must irrevocably take an unused
right neighbor or be rejected. The layered construction stacks copies of
an off-line-good graph; the greedy engine walks the layers in order and
takes the first unused copy, which keeps the per-layer accounting that
`half_rejection_audit` verifies. `online_strategy_exists` settles, by
exhaustive game-tree search, whether any on-line algorithm at all can
survive every adversary order.
"""

from dataclasses import dataclass, field
from itertools import repeat
from operator import and_

from .graph import BipartiteGraph
from .limits import LimitExceeded, charge_edges, default_limits
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
        charge_edges(base.left_size * base.max_degree * copies,
                     "layered edges")
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
    if k > base.n:
        raise ValueError(f"k = {k} exceeds the base graph's n = {base.n}")
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

    graph: LayeredGraph
    capacity: int
    matched: dict[int, int] = field(default_factory=dict)
    requested: int = 0
    used: int = 0
    _order: list[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"need capacity >= 0, got {self.capacity}")
        self._rows = self.graph.graph.neighbors
        self._width = self.graph.base.right_size
        self._copies = self.graph.copies

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
        self.requested |= 1 << left_index
        self._order.append(left_index)
        r = _first_free(self._rows[left_index], self.used)
        if r is not None:
            self.used |= 1 << r
            self.matched[left_index] = r
        return r


def _first_free(row, used: int) -> int | None:
    """The greedy rule: the first right index of `row`, in stored order,
    that is not in the `used` bitmask, or None."""
    for r in row:
        if not used >> r & 1:
            return r
    return None


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
    for layer, (reached, forwarded) in enumerate(
            zip(session.reached, session.forwarded)):
        if forwarded > (reached + 1) // 2:
            return AuditViolation(layer, reached, forwarded)
    return None


@dataclass
class GameResult:
    exists: bool
    strategy: dict | None
    nodes: int


def _descend(search, *root):
    """Run the recursion `search(*root)` and return its result. `search` is
    a generator function whose recursive calls are written `result = yield
    args` and whose result is its return value. The suspended frames wait
    on one list, so memory, not the interpreter's recursion limit, bounds
    the depth."""
    stack, result = [search(*root)], None
    while stack:
        try:
            args = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(search(*args))
            result = None
    return result


def online_strategy_exists(g: BipartiteGraph, s: int) -> GameResult:
    """Exhaustive adversary-vs-algorithm search.

    The adversary presents any unrequested left vertex; the algorithm must
    commit an unused neighbor. `exists` is True iff the algorithm can serve
    every adversary sequence of length <= s; the returned strategy maps each
    adversary move to the first winning reply in stored neighbor order.
    Positions are memoized on (requested, used), both int bitmasks, and
    searched depth first in frames on one explicit stack (`_descend`), so
    `game_nodes` alone bounds the game. A position one move from the end
    wins iff every unrequested left vertex still has an unused neighbor.
    The strategy, read from the memo, shares the subtree of equal
    positions, and the last moves of its lines share one
    `{"pick": r, "next": {}}` per reply r.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    budget = default_limits().game_nodes
    nleft, width, rows = g.left_size, g.right_size, g.neighbors
    last = min(s, nleft) - 1            # the depth of the last move
    # `last` right vertices are used at the last move, so only a left
    # vertex with at most `last` distinct neighbors can lack an unused one:
    # its neighbors as a mask, and its own bit above them, set if requested
    reach = [sum(1 << r for r in set(row)) for row in rows]
    few = [mask | 1 << width + v for v, mask in enumerate(reach)
           if mask.bit_count() <= last]
    full = (1 << width) - 1
    memo: dict[tuple[int, int], bool] = {}
    nodes = 0

    def count():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise LimitExceeded(f"game tree exceeds {budget} nodes: "
                                f"decided {len(memo)} positions")

    def last_move(requested, used):     # any unused neighbor serves it
        count()
        won = memo[requested, used] = all(map(and_, few, repeat(
            ~used & full | requested << width)))
        return won

    def search(requested, used, depth):
        count()
        for v in range(nleft):
            if requested >> v & 1:
                continue
            tried = used                # right vertices used or tried for v
            for r in rows[v]:
                if tried >> r & 1:
                    continue
                tried |= 1 << r
                child = (requested | 1 << v, used | 1 << r)
                won = memo.get(child)
                if won is None:
                    won = (last_move(*child) if depth + 1 == last
                           else (yield (*child, depth + 1)))
                if won:
                    break
            else:                       # no reply wins v
                memo[requested, used] = False
                return False
        memo[requested, used] = True
        return True

    if not (last_move(0, 0) if last == 0 else _descend(search, 0, 0, 0)):
        return GameResult(False, None, nodes)

    # Read from the memo of plain bools: in a winning position each move's
    # pick is its first reply whose child is memo-True, and the search
    # decided every reply up to that one. Memoizing subtrees in the search
    # halves the time of small winning games, but a losing game then builds
    # one per winning position: 8.4 s for 1.65 s and 597 MB for 17.6 MB
    # traced peak on a random (5,1,1) graph at s=5 (113,459 nodes, 2 vCPUs).
    strategy: dict = {}
    trees = {(0, 0): strategy}          # equal positions share one subtree
    last_moves: dict[int, dict] = {}
    work = [(0, 0, 0)]                  # positions whose subtree is unfilled
    while work:
        requested, used, depth = work.pop()
        tree = trees[requested, used]
        for v in range(nleft):
            if requested >> v & 1:
                continue
            if depth == last:       # the first unused reply wins a last move
                row = rows[v]
                r = row[0]
                if used >> r & 1:
                    r = _first_free(row, used)
                if r not in last_moves:   # most moves are last ones
                    last_moves[r] = {"pick": r, "next": {}}
                tree[v] = last_moves[r]
                continue
            for r in rows[v]:
                if used >> r & 1:
                    continue
                key = (requested | 1 << v, used | 1 << r)
                if memo.get(key):
                    break
            if key not in trees:
                trees[key] = {}
                work.append((*key, depth + 1))
            tree[v] = {"pick": r, "next": trees[key]}
    return GameResult(True, strategy, nodes)


@dataclass
class SequenceSweep:
    sequences: int
    first_rejection: list[int] | None
    first_audit_violation: tuple[list[int], AuditViolation] | None
    # nodes the walk visited, and subtrees counted in closed form instead,
    # from the cache of passing states or the certificate that every
    # request below is served in layer 0 or 1 with the audit passing; none
    # takes part in equality
    visited: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)
    certified: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.first_rejection is None and self.first_audit_violation is None


def _serving_mask(used: int, width: int, copies: int) -> int:
    """The base right vertices free in some layer where one more request
    can be served with the audit still passing, for a session over `copies`
    layers of `width` right vertices that has taken the right vertices in
    `used`, one per request, rejected none and passes
    `half_rejection_audit`. One more request is then served and passes the
    audit iff its base row meets this mask.

    A request served in layer L adds one to what each layer below L
    forwards and to what each layer up to L reaches. Layers L and up keep
    passing: each forwards as many as before and reaches at least as many.
    So the request passes iff every layer below L passes with one more
    forwarded and one more reached. The layers where it passes are thus
    the lowest few, layer 0 always among them, and greedy serves the
    request in one of them iff its row meets a vertex free in one of them.
    """
    full = (1 << width) - 1
    mask = ~used & full
    reached = used.bit_count()          # reached layer 0
    for layer in range(1, copies):
        forwarded = (used >> layer * width).bit_count()  # past layer - 1
        if forwarded + 1 > (reached + 2) // 2:
            break
        mask |= ~(used >> layer * width) & full
        reached = forwarded
    return mask


def exhaustive_online_check(lg: LayeredGraph, capacity: int) -> SequenceSweep:
    """Run the greedy engine over every sequence of distinct left vertices
    of length <= capacity, sharing prefixes depth first.

    Each prefix is itself a complete request stream, so rejection-freedom
    and the half-rejection audit are checked at every node of the tree.
    The search stops at the first node that fails either check.

    The walk is a recursion on one explicit stack of frames (`_descend`),
    one per node entered. It keeps each node's `(requested, used)`
    bitmasks, which fix the engine's future and its per-layer counts, and
    steps no session: a child's reply is the greedy rule `_first_free`. A
    child v passes iff `reach[v] & served`: its distinct base neighbours
    meet `served`, the node's `_serving_mask`, which each frame computes
    once; on a walked path every request was served, so that mask depends
    on `used` alone. Only the first failing sequence is replayed in a
    `MatchingSession` and audited by `half_rejection_audit`, for the
    report.

    Two rules count a passing node's subtree in closed form instead of
    descending into it. A node whose state already headed a subtree that
    passed throughout is a cache hit. The other is a certificate. At a
    node at depth j, an unrequested left vertex is weak when fewer than
    need = top - j of its distinct base neighbours have an unused layer-0
    copy, top being the longest sequence. Rows are layer-major, so greedy
    serves a vertex that is not weak in layer 0: at most need - 1 requests
    come before it below, each taking one layer-0 vertex. Let t =
    min(#weak, need) and f the requests served above layer 0. The node is
    certified when no vertex is weak, or, over two copies or more, when
    (a) each weak vertex has at least t distinct base neighbours with an
    unused layer-1 copy and (b) 2 (f + t) <= j + t + 1. By (a), each weak
    vertex is served in layer 0 or 1, since at most t - 1 weak ones come
    before it; so no request is rejected, and no layer from 1 up forwards
    more than before while reaching at least as many. Layer 0 forwards at
    most t more: after i more requests at most min(i, t), and its slack
    ceil((j + i) / 2) - f - i never grows with i, so (b), the audit at
    i = t, covers every node below. Every node that is not a leaf is
    tested, the root only when its children are not leaves and the
    budget allows a node. A parent tests its children with two masks of
    its unrequested left vertices, counted once from `used`: `low`, those
    with fewer distinct base neighbours free in layer 0 than a child
    needs, and `tight`, those with exactly as many. A reply at base
    vertex r of layer 0 takes one from the vertices whose rows meet r,
    and a higher reply none, so a child's weak vertices are those it has
    not requested in `low`, or in `tight` with a row meeting r. Both rules
    skip only passing subtrees, so the first failing node, its prefix and
    `sequences` are those of the full walk. `subset_nodes` bounds the
    nodes visited; a budget of 0 or below refuses at the first child.
    """
    if capacity < 1:
        raise ValueError(f"need capacity >= 1, got {capacity}")
    budget = default_limits().subset_nodes
    base, rows = lg.base, lg.graph.neighbors
    nleft, width, copies = base.left_size, base.right_size, lg.copies
    top = min(capacity, nleft)
    # below[j]: sequences strictly below a node at depth j
    below = [0] * (top + 1)
    for j in range(top - 1, -1, -1):
        below[j] = (nleft - j) * (1 + below[j + 1])
    # each left vertex's distinct base neighbours, as a mask
    reach = [sum(1 << r for r in set(row)) for row in base.neighbors]
    # at right vertex r, the left vertices whose rows meet r in layer 0
    cols = [sum(1 << v for v, mask in enumerate(reach) if mask >> r & 1)
            for r in range(width)] + [0] * (width * copies - width)

    def layer0(requested: int, used: int, need: int) -> tuple[int, int]:
        # `low` and `tight` for `need`, counting free layer-0 neighbours
        low = tight = 0
        for v, mask in enumerate(reach):
            free = (mask & ~used).bit_count()
            if free <= need and not requested >> v & 1:
                if free < need:
                    low |= 1 << v
                else:
                    tight |= 1 << v
        return low, tight

    def spills(weak: int, used: int, depth: int) -> bool:
        # the layer-1 clause, at a node whose weak vertices are `weak`
        above = used >> width           # right vertices taken above layer 0
        t = min(weak.bit_count(), top - depth)
        if copies < 2 or 2 * (above.bit_count() + t) > depth + t + 1:
            return False
        while weak:                     # each needs t free in layer 1
            bit = weak & -weak
            if (reach[bit.bit_length() - 1] & ~above).bit_count() < t:
                return False
            weak ^= bit
        return True

    if top == 0:                        # no left vertex: no sequence
        return SequenceSweep(0, None, None)
    weak = layer0(0, 0, top)[0]
    if budget > 0 and top > 1 and (not weak or spills(weak, 0, 0)):
        return SequenceSweep(below[0], None, None, certified=1)  # all pass
    passed: set[tuple[int, int]] = set()
    visited = sequences = hits = certificates = 0

    def visit(requested, used, depth):
        # the failing suffix of the node's first failing sequence, or None
        nonlocal visited, sequences, hits, certificates
        served = _serving_mask(used, width, copies)
        cert = None                     # its `layer0` masks once computed
        for v in range(nleft):
            if requested >> v & 1:
                continue
            if visited >= budget:
                raise LimitExceeded(
                    f"sequence tree exceeds {budget} nodes: visited {visited} "
                    f"nodes, counted {sequences} sequences, cached "
                    f"{len(passed)} passing states, certified {certificates} "
                    f"subtrees")
            visited += 1
            sequences += 1
            if not reach[v] & served:   # the first failure ends the walk
                return [v]
            if depth + 1 == top:        # a leaf
                continue
            reply = _first_free(rows[v], used)
            child = (requested | 1 << v, used | 1 << reply)
            if child in passed:
                hits += 1
                sequences += below[depth + 1]
                continue
            if cert is None:
                cert = layer0(requested, used, top - depth - 1)
            weak = (cert[0] | cert[1] & cols[reply]) & ~child[0]
            if not weak or spills(weak, child[1], depth + 1):
                certificates += 1
                sequences += below[depth + 1]
                continue
            failure = yield (*child, depth + 1)
            if failure is not None:
                return [v, *failure]
        passed.add((requested, used))   # every child passed
        return None

    failure = _descend(visit, 0, 0, 0)
    sweep = SequenceSweep(sequences, None, None, visited, hits, certificates)
    if failure is not None:
        session = MatchingSession(lg, capacity)
        for v in failure:
            r = session.request(v)
        if r is None:
            sweep.first_rejection = failure
        violation = half_rejection_audit(session)
        if violation is not None:
            sweep.first_audit_violation = (list(failure), violation)
    return sweep
