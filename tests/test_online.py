import copy
import dataclasses
import gc
import itertools
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from omex import (AuditViolation, BipartiteGraph, LayeredGraph,
                  LimitExceeded, Limits, MatchingSession, OfflineParams,
                  construct_verified_offline_graph,
                  counterexample_graph, default_limits,
                  exhaustive_online_check, half_rejection_audit, hall_check,
                  layered, online_strategy_exists, random_offline_graph)
from omex import online as online_module
from omex.rng import SplitMix64

from conftest import NoPower, complete_graph, small_graphs
from oracles import (layer0_certified, naive_layer_counts, naive_online_check,
                     naive_online_strategy_exists, stepwise_online_check,
                     undo)


# four left vertices funneled into one right vertex: fails Hall at size 2
FUNNEL = BipartiteGraph(2, 1, 1, ((0,), (0,), (0,), (0,)))
# sweeps whose cache of passing states is hit before the walk fails: with
# 2 copies and capacity 3 a request is rejected, with 4 copies and
# capacity 4 an audit fails with no rejection
HIT_THEN_REJECT = BipartiteGraph(2, 2, 2, ((1,), (1,), (1, 0)))
HIT_THEN_AUDIT = BipartiteGraph(2, 2, 2, ((0,), (0,), (0,), (0, 1)))
# sweeps that fail where a state cache keyed without the requested set
# (one copy, capacity 2), or without the used set (two copies, capacity 4),
# would count a failing subtree as passed
SAME_USED_OTHER_REQUESTED = BipartiteGraph(1, 2, 2, ((1,), (1, 0)))
SAME_REQUESTED_OTHER_USED = BipartiteGraph(2, 2, 3, ((0, 0), (0, 1, 1), (0,)))
# sweeps whose first failure lies among the leaves of one node, settled
# together: below [0, 4], leaves 1-3 pass and 5 and 6 are rejected (two
# copies, capacity 3); below [0, 4, 5], leaves 1-3 pass and 6 and 7 fail
# the audit (four copies, capacity 4)
REJECT_AMONG_LEAVES = BipartiteGraph(
    3, 2, 2, ((1,), (0,), (0,), (0,), (1,), (1,), (1,), (0, 1)))
AUDIT_AMONG_LEAVES = BipartiteGraph(
    3, 2, 2, ((1, 0), (0,), (0,), (0,), (1,), (1,), (1,), (1, 1)))
# x sees both right vertices and y only the first: after x takes the
# first, the last move loses, so a strategy must answer x with the second
LAST_MOVE_LOSES = BipartiteGraph(1, 2, 2, ((0, 1), (0,)))
# one copy, capacity 3: after request 0 takes right vertex 0, two requests
# are left and vertex 2 keeps one free neighbor, so request 1 taking right
# vertex 1 rejects it; with one more neighbor (2), the subtree below
# request 0 is certified and the walk fails further on
ONE_SHORT = BipartiteGraph(2, 3, 2, ((0,), (1, 2), (0, 1)))
ENOUGH = BipartiteGraph(2, 3, 3, ((0,), (1, 2), (0, 1, 2)))


def verified_base(n, k, seed=7, c=2):
    g, _ = construct_verified_offline_graph(OfflineParams(n, k, c), seed)
    return g


# --- greedy engine ----------------------------------------------------------

def test_complete_graph_requests_in_order():
    session = MatchingSession(complete_graph(1, 2), capacity=2)
    assert session.request(0) == 0
    assert session.request(1) == 1
    assert session.rejections == []


def test_counterexample_blocks_second_request():
    session = MatchingSession(counterexample_graph(), capacity=2)
    assert session.request(0) == 0   # greedy takes x's first neighbor
    assert session.request(1) is None
    assert session.rejections == [1]


def test_duplicate_request_rejected():
    session = MatchingSession(complete_graph(1, 2), capacity=2)
    session.request(0)
    with pytest.raises(ValueError, match="already requested"):
        session.request(0)


def test_capacity_enforced():
    session = MatchingSession(complete_graph(1, 2), capacity=1)
    session.request(0)
    with pytest.raises(ValueError, match="capacity"):
        session.request(1)


def test_negative_capacity_is_refused():
    with pytest.raises(ValueError, match="need capacity >= 0, got -1"):
        MatchingSession(complete_graph(1, 2), capacity=-1)
    assert MatchingSession(complete_graph(1, 2), capacity=0).matched == {}


def session_state(session):
    """Every field of a session, deep-copied, with the matching's order."""
    state = {f.name: copy.deepcopy(getattr(session, f.name))
             for f in dataclasses.fields(session)}
    state["matched order"] = list(session.matched)
    return state


@pytest.mark.parametrize("v, capacity, message", [
    (99, 3, "not in"), (-1, 3, "not in"), (0, 3, "already requested"),
    (2, 1, "capacity"),
])
def test_refused_request_leaves_session_unchanged(v, capacity, message):
    session = MatchingSession(layered(counterexample_graph(), 1),
                              capacity=capacity)
    session.request(0)
    before = session_state(session)
    with pytest.raises(ValueError, match=message):
        session.request(v)
    assert session_state(session) == before


@st.composite
def layered_sessions(draw):
    """A session over k+1 copies of a small base, Hall's condition not
    assumed, and a request order over all of its left vertices."""
    base = draw(small_graphs(max_n=3, max_right=4, max_degree=3))
    lg = LayeredGraph.build(base, draw(st.integers(min_value=1, max_value=3)))
    order = draw(st.permutations(range(base.left_size)))
    return MatchingSession(lg, capacity=base.left_size), order


@settings(max_examples=150, deadline=None)
@given(layered_sessions())
def test_request_then_undo_restores_every_field(drawn):
    session, order = drawn
    fresh = session_state(session)
    states = []
    for v in order:
        states.append(session_state(session))
        session.request(v)
        after = session_state(session)
        undo(session)
        assert session_state(session) == states[-1]
        session.request(v)
        assert session_state(session) == after
    for state in reversed(states):
        undo(session)
        assert session_state(session) == state
    assert session_state(session) == fresh


@settings(max_examples=150, deadline=None)
@given(layered_sessions())
# two copies of a funnel: six rejections, and both layers fail the audit
@example((MatchingSession(LayeredGraph.build(
    BipartiteGraph(3, 1, 1, ((0,),) * 8), 2), capacity=8), list(range(8))))
def test_derived_counters_match_recount(drawn):
    drawn_session, order = drawn
    # a fresh session, so that the explicit example can be run again
    session = MatchingSession(drawn_session.graph, drawn_session.capacity)

    def check(prefix):
        assert (session.matched, session.rejections, session.reached,
                session.forwarded, half_rejection_audit(session)
                ) == naive_layer_counts(session.graph, prefix)

    check([])
    for i, v in enumerate(order):
        session.request(v)
        check(order[:i + 1])
    for i in reversed(range(len(order))):
        undo(session)
        check(order[:i])


def test_greedy_deterministic():
    g = layered(verified_base(2, 1), 1)
    outcomes = []
    for _ in range(2):
        s = MatchingSession(g, capacity=2)
        outcomes.append((s.request(2), s.request(0)))
    assert outcomes[0] == outcomes[1]


def test_matched_pairs_are_edges_and_injective():
    g = layered(verified_base(3, 2), 2)
    session = MatchingSession(g, capacity=4)
    for v in (5, 0, 7, 3):
        session.request(v)
    rights = list(session.matched.values())
    assert len(set(rights)) == len(rights)
    for left, right in session.matched.items():
        assert right in g.graph.neighbors_of(left)


# --- layering ---------------------------------------------------------------

def test_layered_multiplies_sizes():
    base = verified_base(2, 1)
    lg = layered(base, 1)
    assert lg.copies == 2
    assert lg.graph.right_size == base.right_size * 2
    assert len(lg.graph.neighbors_of(0)) == len(base.neighbors_of(0)) * 2


def test_zero_extra_layers_is_identity():
    base = verified_base(2, 1)
    lg = layered(base, 0)
    assert lg.graph == BipartiteGraph(base.n, base.right_size,
                                      base.max_degree, base.neighbors)


def test_layered_rows_are_base_rows_per_layer():
    base = verified_base(2, 1)
    lg = layered(base, 1)
    width = base.right_size
    for v in range(base.left_size):
        row = lg.graph.neighbors_of(v)
        basal = base.neighbors_of(v)
        assert row == tuple(basal) + tuple(r + width for r in basal)


def test_layered_refuses_non_hall_base():
    with pytest.raises(ValueError, match="hall_check"):
        layered(FUNNEL, 1)


def test_two_layers_over_counterexample_serve_any_pair():
    # the same graph that defeats single-layer on-line service works with
    # one extra layer: its base is off-line good up to 2
    lg = layered(counterexample_graph(), 1)
    for pair in itertools.permutations(range(3), 2):
        session = MatchingSession(lg, capacity=2)
        assert all(session.request(v) is not None for v in pair)
        assert half_rejection_audit(session) is None


# --- audit ------------------------------------------------------------------

def test_complete_graph_audit_clean():
    session = MatchingSession(complete_graph(2, 4), capacity=4)
    for v in range(4):
        session.request(v)
    assert half_rejection_audit(session) is None
    assert session.forwarded == [0]


def test_audit_flags_overloaded_layer():
    # single layer: three of four requests get forwarded past layer 0
    session = MatchingSession(LayeredGraph.build(FUNNEL, 1), capacity=4)
    for v in range(4):
        session.request(v)
    violation = half_rejection_audit(session)
    assert violation is not None
    assert violation.layer == 0
    assert violation.forwarded == 3


def test_smuggled_counterexample_base_audit():
    # non-verified construction straight through LayeredGraph.build: the
    # engine still reports rather than aborting
    lg = LayeredGraph.build(counterexample_graph(), 2)
    session = MatchingSession(lg, capacity=3)
    for v in (0, 1, 2):
        session.request(v)
    assert session.rejections == []
    assert half_rejection_audit(session) is None


def test_sweep_reports_audit_violation_without_rejection():
    # each of four copies of one right vertex serves one request, so the
    # fourth request is served, yet layer 0 forwarded 3 of the 4 it saw
    sweep = exhaustive_online_check(LayeredGraph.build(FUNNEL, 4), 4)
    assert sweep.first_rejection is None
    assert sweep.first_audit_violation == ([0, 1, 2, 3],
                                           AuditViolation(0, 4, 3))
    assert sweep.sequences == 4


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=3, max_right=4, max_degree=3),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
@example(FUNNEL, 4, 4)
@example(FUNNEL, 1, 4)
@example(HIT_THEN_REJECT, 2, 3)
@example(HIT_THEN_AUDIT, 4, 4)
@example(SAME_USED_OTHER_REQUESTED, 1, 2)
@example(SAME_REQUESTED_OTHER_USED, 2, 4)
@example(verified_base(3, 2), 3, 4)
@example(REJECT_AMONG_LEAVES, 2, 3)
@example(AUDIT_AMONG_LEAVES, 4, 4)
@example(ONE_SHORT, 1, 3)
@example(ENOUGH, 1, 3)
@example(verified_base(2, 2, c=1), 3, 4)
def test_sweep_matches_naive_replay(base, copies, capacity):
    # LayeredGraph.build skips the Hall check, so rejections and audit
    # violations occur as well as clean sweeps
    lg = LayeredGraph.build(base, copies)
    sweep = exhaustive_online_check(lg, capacity)
    naive = naive_online_check(lg, capacity)
    assert sweep.sequences == naive.sequences
    assert sweep.first_rejection == naive.first_rejection
    assert sweep.first_audit_violation == naive.first_audit_violation
    # the counters take no part in equality, so they are compared with
    # the walk that steps and audits every node; so is the refusal at every
    # budget short of the full walk, some of which run out among leaves
    assert sweep_outcome(lg, capacity, exhaustive_online_check) == \
        sweep_outcome(lg, capacity, stepwise_online_check)
    with pytest.MonkeyPatch.context() as patch:
        for budget in range(1, sweep.visited + 1):
            patch.setenv("OMEX_LIMITS", f"subset_nodes={budget}")
            assert sweep_outcome(lg, capacity, exhaustive_online_check) == \
                sweep_outcome(lg, capacity, stepwise_online_check)


def sweep_outcome(lg, capacity, check):
    """Every result field and counter of a sweep, or its refusal."""
    try:
        sweep = check(lg, capacity)
    except LimitExceeded as refusal:
        return str(refusal)
    return (sweep.sequences, sweep.visited, sweep.memo_hits, sweep.certified,
            sweep.first_rejection, sweep.first_audit_violation)


@pytest.mark.parametrize("capacity", [0, -2])
def test_sweep_refuses_capacity_below_one(capacity):
    with pytest.raises(ValueError, match=f"need capacity >= 1, got {capacity}"):
        exhaustive_online_check(layered(counterexample_graph(), 1), capacity)


@pytest.mark.parametrize("base, copies, capacity, rejected, audited", [
    (HIT_THEN_REJECT, 2, 3, [2, 0, 1], None),
    (HIT_THEN_AUDIT, 4, 4, None, ([3, 0, 1, 2], AuditViolation(0, 4, 3))),
])
def test_sweep_cache_hits_precede_failure(base, copies, capacity, rejected,
                                          audited):
    sweep = exhaustive_online_check(LayeredGraph.build(base, copies),
                                    capacity)
    assert sweep.memo_hits > 0
    assert sweep.first_rejection == rejected
    assert sweep.first_audit_violation == audited


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
def test_sweep_matches_naive_replay_on_verified_bases(n, k):
    lg = layered(verified_base(n, k), k)
    sweep = exhaustive_online_check(lg, 2 ** k)
    assert sweep.ok
    assert sweep == naive_online_check(lg, 2 ** k)


def test_exhaustive_sweep_n2_k1():
    sweep = exhaustive_online_check(layered(verified_base(2, 1), 1), 2)
    assert sweep.ok
    assert sweep.sequences == 4 + 4 * 3


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=2, max_right=3, max_degree=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4))
@example(ONE_SHORT, 1, 3)
@example(ENOUGH, 1, 3)
@example(verified_base(2, 2, c=1), 3, 4)
def test_certified_subtrees_pass_in_naive_replay(base, copies, capacity):
    # every passing node the certificate holds at, reached by the walk or
    # not: each sequence below it passes when replayed from scratch
    lg = LayeredGraph.build(base, copies)
    nleft = base.left_size
    top = min(capacity, nleft)
    for depth in range(top):
        for prefix in itertools.permutations(range(nleft), depth):
            session = MatchingSession(lg, capacity)
            for v in prefix:
                session.request(v)
            if (session.rejections or half_rejection_audit(session)
                    or not layer0_certified(session, top - depth)):
                continue
            rest = [v for v in range(nleft) if v not in prefix]
            for more in range(1, top - depth + 1):
                for suffix in itertools.permutations(rest, more):
                    _, rejected, _, _, violation = naive_layer_counts(
                        lg, prefix + suffix)
                    assert rejected == [] and violation is None


@pytest.mark.parametrize("base, certified, rejected", [
    (ONE_SHORT, 0, [0, 1, 2]), (ENOUGH, 1, [1, 2, 0])])
def test_certificate_needs_one_free_neighbor_per_request_left(
        base, certified, rejected):
    lg = LayeredGraph.build(base, 1)
    session = MatchingSession(lg, 3)
    session.request(0)
    assert layer0_certified(session, 2) == bool(certified)
    assert layer0_certified(session, 1)
    sweep = exhaustive_online_check(lg, 3)
    assert (sweep.certified, sweep.first_rejection) == (certified, rejected)


def test_sweep_node_budget(monkeypatch):
    lg = layered(verified_base(2, 1, c=1), 1)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=16")
    assert exhaustive_online_check(lg, 2).ok
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=15")
    with pytest.raises(LimitExceeded, match="exceeds 15 nodes"):
        exhaustive_online_check(lg, 2)


@pytest.mark.parametrize("key", ["subset_nodes", "game_nodes", "gen_edges"])
def test_limits_refuse_negative_values(monkeypatch, key):
    with pytest.raises(ValueError, match=f"'{key}' must be >= 0, got -1"):
        Limits().override(f"{key}=-1")
    monkeypatch.setenv("OMEX_LIMITS", f"{key}=-3")
    with pytest.raises(ValueError, match=f"'{key}' must be >= 0, got -3"):
        default_limits()
    monkeypatch.setenv("OMEX_LIMITS", f"{key}=0")
    assert getattr(default_limits(), key) == 0


@pytest.mark.parametrize("value", ["abc", "", "1.5", "2e3", "0x10"])
def test_limits_refuse_non_integer_values(monkeypatch, value):
    want = (f"limit 'game_nodes' in OMEX_LIMITS must be an integer, "
            f"got {value!r}")
    with pytest.raises(ValueError) as raised:
        Limits().override(f"subset_nodes=5,game_nodes={value}")
    assert str(raised.value) == want
    monkeypatch.setenv("OMEX_LIMITS", f"game_nodes={value}")
    with pytest.raises(ValueError) as raised:
        default_limits()
    assert str(raised.value) == want


def test_guards_refuse_a_negative_budget(monkeypatch):
    # a budget that bypasses `override` is below every count, so each
    # guard refuses before the first node
    monkeypatch.setattr(online_module, "default_limits",
                        lambda: Limits(subset_nodes=-1, game_nodes=-1))
    lg = layered(verified_base(3, 2), 2)
    with pytest.raises(LimitExceeded, match="exceeds -1 nodes: visited 0 "):
        exhaustive_online_check(lg, 1)
    with pytest.raises(LimitExceeded, match="exceeds -1 nodes: visited 0 "):
        exhaustive_online_check(lg, 4)
    with pytest.raises(LimitExceeded, match="game tree exceeds -1 nodes"):
        online_strategy_exists(lg.graph, 2)


def test_exhaustive_limit_message_reports_progress(monkeypatch):
    lg = layered(verified_base(3, 2, c=1), 2)
    sweep = exhaustive_online_check(lg, 4)
    assert (sweep.sequences, sweep.visited, sweep.memo_hits,
            sweep.certified) == (2080, 509, 71, 20)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=100")
    with pytest.raises(LimitExceeded) as raised:
        exhaustive_online_check(lg, 4)
    assert str(raised.value) == (
        "sequence tree exceeds 100 nodes: visited 100 nodes, counted 218 "
        "sequences, cached 17 passing states, certified 3 subtrees")
    monkeypatch.setenv("OMEX_LIMITS", "game_nodes=10")
    with pytest.raises(LimitExceeded) as raised:
        online_strategy_exists(lg.graph, 3)
    assert str(raised.value) == "game tree exceeds 10 nodes: decided 8 positions"


def test_sweep_frontier_n4_k3():
    # 582,913,216 sequences in no node: every left vertex of this c=2 base
    # has at least 8 distinct neighbors, so the root is certified
    sweep = exhaustive_online_check(layered(verified_base(4, 3), 3), 8)
    assert sweep.ok
    assert sweep.sequences == 582_913_216   # sum of P(16, j) for j = 1..8
    assert (sweep.visited, sweep.memo_hits, sweep.certified) == (0, 0, 1)


@pytest.mark.parametrize("n, k, counts", [
    (4, 3, (582_913_216, 123_538, 32_003, 47_092)),
    (5, 2, (893_824, 23_147, 54, 490)),
])
def test_sweep_frontier_sparse_bases(n, k, counts):
    # c=1 bases (degree 4 at n=4, k=3) certify no root, so the walk runs;
    # (sequences, visited, memo_hits, certified)
    sweep = exhaustive_online_check(layered(verified_base(n, k, c=1), k),
                                    2 ** k)
    assert sweep.ok
    assert (sweep.sequences, sweep.visited, sweep.memo_hits,
            sweep.certified) == counts


def test_layered_refuses_negative_k():
    with pytest.raises(ValueError, match="k >= 0, got k = -1"):
        layered(counterexample_graph(), -1)


def test_layered_refuses_k_above_n_before_building_2_to_the_k():
    with pytest.raises(ValueError,
                       match="^k = 3 exceeds the base graph's n = 2$"):
        layered(counterexample_graph(), NoPower(3))


# --- strategy existence game ------------------------------------------------

def test_counterexample_no_online_strategy_at_2():
    res = online_strategy_exists(counterexample_graph(), 2)
    assert res.exists is False
    assert res.strategy is None


def refused_game_garbage(g, s, match) -> set[str]:
    """Names of the functions a refused game leaves to the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with pytest.raises(LimitExceeded, match=match) as raised:
            online_strategy_exists(g, s)
        del raised  # its traceback would keep the game's frames alive
        gc.collect()
        return {obj.__name__ for obj in gc.garbage
                if isinstance(obj, types.FunctionType)}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_refused_game_leaves_no_cycle_to_the_collector(monkeypatch):
    g = random_offline_graph(OfflineParams(4, 2, 1), 3)
    monkeypatch.setenv("OMEX_LIMITS", "game_nodes=50")
    garbage = refused_game_garbage(g, 5, "exceeds 50 nodes")
    assert garbage.isdisjoint({"wins", "build_tree"})


def test_game_deeper_than_the_stack_is_refused_by_name():
    # a perfect matching plainly has a strategy, but each move is one
    # Python frame, and 2,048 moves are more than the stack holds; the
    # first line of play runs out long before the node budget does
    g = BipartiteGraph(11, 2048, 1, tuple((v,) for v in range(2048)))
    garbage = refused_game_garbage(
        g, 2048, r"recursion limit at depth \d+: decided 0 positions")
    assert garbage.isdisjoint({"wins", "build_tree"})


def test_counterexample_strategy_at_1():
    res = online_strategy_exists(counterexample_graph(), 1)
    assert res.exists is True
    assert set(res.strategy) == {0, 1, 2}
    for move, reply in res.strategy.items():
        assert reply["pick"] in counterexample_graph().neighbors_of(move)


def test_layered_base_has_strategy_at_2():
    lg = layered(verified_base(2, 1), 1)
    res = online_strategy_exists(lg.graph, 2)
    assert res.exists is True


def test_strategy_shares_last_moves():
    # one dict per reply for the moves that end a line, which most are
    res = online_strategy_exists(layered(verified_base(2, 1), 1).graph, 2)
    last = [move for first in res.strategy.values()
            for move in first["next"].values()]
    assert all(move["next"] == {} for move in last)
    assert len({id(move) for move in last}) == \
        len({move["pick"] for move in last}) < len(last)


def test_strategy_tree_wins_every_adversary_line():
    lg = layered(counterexample_graph(), 1)
    res = online_strategy_exists(lg.graph, 2)
    assert res.exists
    for first, move in res.strategy.items():
        used = {move["pick"]}
        for second, reply in move["next"].items():
            assert second != first
            assert reply["pick"] not in used
            assert reply["pick"] in lg.graph.neighbors_of(second)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=3, max_right=4, max_degree=3))
def test_online_strategy_implies_hall(g):
    for s in (1, 2, 3):
        if s > 2 ** g.n:
            continue
        if online_strategy_exists(g, s).exists:
            assert hall_check(g, s) is None


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=3, max_right=4, max_degree=3),
       st.integers(min_value=1, max_value=4))
@example(counterexample_graph(), 2)
@example(layered(counterexample_graph(), 1).graph, 3)
@example(layered(verified_base(2, 1), 1).graph, 4)
@example(layered(verified_base(3, 1), 1).graph, 3)
@example(LAST_MOVE_LOSES, 2)
def test_game_matches_frozenset_oracle(g, s):
    res = online_strategy_exists(g, s)
    naive = naive_online_strategy_exists(g, s)
    assert (res.exists, res.nodes) == (naive.exists, naive.nodes)
    assert res.strategy == naive.strategy


# --- the layered engine serves everything, exhaustively and sampled ---------

@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
def test_layered_engine_serves_all_sequences(n, k):
    sweep = exhaustive_online_check(layered(verified_base(n, k), k), 2 ** k)
    assert sweep.ok, (sweep.first_rejection, sweep.first_audit_violation)


@pytest.mark.parametrize("n,k,samples", [(4, 2, 10_000), (5, 2, 2_000),
                                         (8, 1, 500)])
def test_layered_engine_random_sequences(n, k, samples):
    base = verified_base(n, k)
    lg = layered(base, k)
    rng = SplitMix64(99)
    capacity = 2 ** k
    for _ in range(samples):
        length = 1 + rng.below(capacity)
        requests = rng.sample(base.left_size, length)
        session = MatchingSession(lg, capacity=capacity)
        for v in requests:
            assert session.request(v) is not None
        assert half_rejection_audit(session) is None
