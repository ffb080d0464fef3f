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

    graph: BipartiteGraph | LayeredGraph
    capacity: int
    matched: dict[int, int] = field(default_factory=dict)
    requested: int = 0
    used: int = 0
    _order: list[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"need capacity >= 0, got {self.capacity}")
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

    def _step(self, left_index: int) -> int | None:
        """The greedy walk of `request`, for a vertex known to be valid."""
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


def online_strategy_exists(g: BipartiteGraph, s: int) -> GameResult:
    """Exhaustive adversary-vs-algorithm search.

    The adversary presents any unrequested left vertex; the algorithm must
    commit an unused neighbor. `exists` is True iff the algorithm can serve
    every adversary sequence of length <= s; the returned strategy maps each
    adversary move to the first winning reply in stored neighbor order.
    Positions are memoized on (requested, used), both int bitmasks. A
    position one move from the end is decided without trying its replies:
    it wins iff every unrequested left vertex still has an unused neighbor.
    The strategy shares the subtree of equal positions, and the last moves
    of its lines share one `{"pick": r, "next": {}}` per reply r.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    budget = default_limits().game_nodes
    nleft = g.left_size
    rows = g.neighbors
    tables = _column_tables(rows, g.right_size)
    everyone = (1 << nleft) - 1
    last = min(s, nleft) - 1            # the depth of the last move
    memo: dict[tuple[int, int], bool] = {}
    nodes = 0

    def wins(requested: int, used: int, depth: int) -> bool:
        nonlocal nodes
        key = (requested, used)
        if key in memo:
            return memo[key]
        nodes += 1
        if nodes > budget:
            raise LimitExceeded(f"game tree exceeds {budget} nodes: "
                                f"decided {len(memo)} positions")
        if depth == last:   # any unused neighbor serves the last move
            result = not everyone & ~requested & ~_served(~used, tables)
        else:
            result = True
            for v in range(nleft):
                bit = 1 << v
                if requested & bit:
                    continue
                tried = used  # a reply already tried is a repeat
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
        # equal positions share one subtree, as in `wins`
        key = (requested, used)
        if key in trees:
            return trees[key]
        tree = trees[key] = {}
        if depth == last:   # the first unused reply wins each last move
            for v in range(nleft):
                if not requested >> v & 1:
                    row = rows[v]
                    r = row[0]
                    if used >> r & 1:
                        r = _first_free(row, used)
                    if r not in last_moves:   # most moves are last ones
                        last_moves[r] = {"pick": r, "next": {}}
                    tree[v] = last_moves[r]
            return tree
        for v in range(nleft):
            bit = 1 << v
            if requested & bit:
                continue
            for r in rows[v]:
                rbit = 1 << r
                if used & rbit:
                    continue
                if wins(requested | bit, used | rbit, depth + 1):
                    tree[v] = {"pick": r, "next": build_tree(
                        requested | bit, used | rbit, depth + 1)}
                    break
        return tree

    # each calls itself: free the cycles and memos now, on a refusal too
    try:
        strategy = build_tree(0, 0, 0) if wins(0, 0, 0) else None
    except RecursionError as e:     # one frame per move: the stack ran out
        tb, frames = e.__traceback__, 0
        while tb is not None:
            frames += tb.tb_frame.f_code.co_name in ("wins", "build_tree")
            tb = tb.tb_next
        raise LimitExceeded(
            f"game search exceeds the interpreter's recursion limit at depth "
            f"{frames - 1}: decided {len(memo)} positions") from None
    finally:
        del wins, build_tree
    return GameResult(strategy is not None, strategy, nodes)


@dataclass
class SequenceSweep:
    sequences: int
    first_rejection: list[int] | None
    first_audit_violation: tuple[list[int], AuditViolation] | None
    # nodes the walk visited, and subtrees counted in closed form instead,
    # from the cache of passing states or the layer-0 certificate; none
    # takes part in equality
    visited: int = field(default=0, compare=False)
    memo_hits: int = field(default=0, compare=False)
    certified: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.first_rejection is None and self.first_audit_violation is None


def _serving_mask(used: int, served: int, width: int, copies: int) -> int:
    """The base right vertices free in some layer where one more request
    can be served with the audit still passing, for a session over `copies`
    layers of `width` right vertices that has served `served` requests,
    taken the right vertices in `used`, rejected none and passes
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
    reached = served                    # reached layer 0
    for layer in range(1, copies):
        forwarded = (used >> layer * width).bit_count()  # past layer - 1
        if forwarded + 1 > (reached + 2) // 2:
            break
        mask |= ~(used >> layer * width) & full
        reached = forwarded
    return mask


def _column_tables(rows, width: int) -> list[tuple[int, list[int]]]:
    """Byte tables of the right-to-left adjacency of left `rows` over
    `width` right vertices, for `_served`: the table for the byte from bit
    `low` holds at b the left vertices whose rows meet right vertex low + j
    for a bit j of b. Padded to whole bytes, so that any mask, a negative
    one too, can be looked up."""
    cols = [0] * (width + -width % 8)
    for v, row in enumerate(rows):
        for r in row:
            cols[r] |= 1 << v
    tables = []
    for low in range(0, width, 8):
        table = [0]
        for col in cols[low:low + 8]:
            table += [left | col for left in table]
        tables.append((low, table))
    return tables


def _served(mask: int, tables) -> int:
    """The left vertices whose rows meet `mask`, a bitmask of right
    vertices, looked up one byte of it at a time in `_column_tables`."""
    served = 0
    for low, table in tables:
        served |= table[mask >> low & 255]
    return served


def _sweep_refusal(budget: int, visited: int, sequences: int,
                   cached: int, certified: int) -> LimitExceeded:
    return LimitExceeded(
        f"sequence tree exceeds {budget} nodes: visited {visited} nodes, "
        f"counted {sequences} sequences, cached {cached} passing states, "
        f"certified {certified} subtrees")


def exhaustive_online_check(lg: LayeredGraph, capacity: int) -> SequenceSweep:
    """Run the greedy engine over every sequence of distinct left vertices
    of length <= capacity, sharing prefixes depth first.

    Each prefix is itself a complete request stream, so rejection-freedom
    and the half-rejection audit are checked at every node of the tree.
    The search stops at the first node that fails either check.

    The walk keeps each node's `(requested, used)` bitmasks, which fix the
    engine's future and its per-layer counts, and steps no session: a
    child's reply is the greedy rule `_first_free`. Byte tables of the
    base graph's right-to-left adjacency turn each node's `_serving_mask`
    into the set of left vertices it serves, and a child passes iff it is
    in that set. So the leaves below a node one request from the end are
    settled together: one popcount counts them and the lowest unserved one
    is the first failure. Only the first failing sequence is replayed in a
    `MatchingSession` and audited by `half_rejection_audit`, for the report.

    Two rules count a passing node's subtree in closed form instead of
    descending into it. A node whose state already headed a subtree that
    passed throughout is a cache hit. A node at depth j is certified when
    every unrequested left vertex still has at least top - j distinct base
    neighbours whose layer-0 copies are unused, top being the longest
    sequence: rows are layer-major, so greedy serves each of the at most
    top - j requests below in layer 0, each takes one layer-0 vertex and
    leaves every later one enough, and a request served in layer 0 is
    forwarded past no layer, so no rejection and no audit violation can
    occur below. It is tested on the nodes whose children are not leaves,
    the root included: below the others, one popcount settles the leaves
    for less than the test costs, which keeps a visited node cheap. Both
    rules skip only passing subtrees, so the first failing node, its
    prefix and `sequences` are those of the full walk. The `subset_nodes`
    budget bounds the nodes visited; a budget of 0 or below refuses before
    the first node.
    """
    if capacity < 1:
        raise ValueError(f"need capacity >= 1, got {capacity}")
    budget = default_limits().subset_nodes
    base, rows = lg.base, lg.graph.neighbors
    nleft, width, copies = base.left_size, base.right_size, lg.copies
    top = min(capacity, nleft)
    # below[j]: sequences strictly below a node at depth j
    below = [sum(math.perm(nleft - j, i) for i in range(1, top - j + 1))
             for j in range(top + 1)]
    tables = _column_tables(base.neighbors, width)
    everyone = (1 << nleft) - 1
    full = (1 << width) - 1
    # each left vertex's distinct base neighbours, and short[need] the left
    # vertices with fewer than `need` of them, which no node certifies
    basal = [sum(1 << r for r in set(row)) for row in base.neighbors]
    short = [sum(1 << v for v, mask in enumerate(basal)
                 if mask.bit_count() < need) for need in range(top + 1)]

    def certified(requested: int, used: int, need: int) -> bool:
        # whether each unrequested left vertex keeps `need` distinct base
        # neighbours free in layer 0: one with `need` + u of them keeps
        # enough whichever u layer-0 vertices are used (u <= depth, so
        # need + u <= top), one with fewer than `need` cannot, and only rows
        # between these that meet a used layer-0 vertex are recounted
        used &= full
        doubt = short[need + used.bit_count()] & ~requested
        if doubt & short[need]:
            return False
        doubt &= _served(used, tables)
        while doubt:
            v = doubt.bit_length() - 1
            if (basal[v] & ~used).bit_count() < need:
                return False
            doubt ^= 1 << v
        return True

    if budget <= 0:                     # as the walk would, at once
        raise _sweep_refusal(budget, 0, 0, 0, 0)
    if top > 1 and certified(0, 0, top):    # every sequence passes
        return SequenceSweep(below[0], None, None, certified=1)
    passed: set[tuple[int, int]] = set()
    visited = sequences = hits = certificates = 0
    failure = None                      # the first failing sequence
    # the walk is at a node of depth `depth`, reached by the requests
    # path[:depth]; state[depth] holds its (requested, used) bitmasks,
    # serving[depth] the left vertices it serves and todo[depth] those not
    # yet tried below it, none for a node whose children are leaves
    path = [0] * top
    state = [(0, 0)] * top
    serving = [_served(_serving_mask(0, 0, width, copies), tables)] * top
    todo = [iter(range(nleft)) if top > 1 else ()] + [()] * (top - 1)
    depth = 0
    while True:
        requested, used = state[depth]
        served = serving[depth]
        if depth + 1 == top:            # settle the leaves at once
            leaves = everyone & ~requested
            failing = leaves & ~served
            if failing:                 # the walk ends at the lowest one
                failing &= -failing
                leaves &= 2 * failing - 1
            count = leaves.bit_count()
            if count > budget - visited:  # the budget runs out among them
                spare = max(budget - visited, 0)
                raise _sweep_refusal(budget, visited + spare,
                                     sequences + spare, len(passed),
                                     certificates)
            visited += count
            sequences += count
            if failing:
                failure = path[:depth] + [failing.bit_length() - 1]
                break
        for v in todo[depth]:
            if requested >> v & 1:
                continue
            if visited >= budget:
                raise _sweep_refusal(budget, visited, sequences, len(passed),
                                     certificates)
            visited += 1
            sequences += 1
            if not served >> v & 1:     # the first failure ends the walk
                failure = path[:depth] + [v]
                break
            reply = _first_free(rows[v], used)
            child = (requested | 1 << v, used | 1 << reply)
            if child in passed:
                hits += 1
                sequences += below[depth + 1]
                continue
            if depth + 2 < top and certified(*child, top - depth - 1):
                certificates += 1
                sequences += below[depth + 1]
                continue
            path[depth] = v             # enter the child
            depth += 1
            state[depth] = child
            serving[depth] = _served(
                _serving_mask(child[1], depth, width, copies), tables)
            todo[depth] = iter(range(nleft)) if depth + 1 < top else ()
            break
        else:                           # every child passed
            if depth == 0:
                break
            passed.add((requested, used))
            depth -= 1
            continue
        if failure is not None:
            break
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
