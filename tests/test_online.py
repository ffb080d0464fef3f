import copy
import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from omex import (AuditViolation, BipartiteGraph, LayeredGraph,
                  LimitExceeded, Limits, MatchingSession, OfflineParams,
                  complete_graph, construct_verified_offline_graph,
                  counterexample_graph, exhaustive_online_check,
                  half_rejection_audit, hall_check, layered,
                  online_strategy_exists)
from omex.rng import SplitMix64

from conftest import small_graphs
from oracles import naive_online_check, naive_online_strategy_exists


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


def verified_base(n, k, seed=7):
    g, _ = construct_verified_offline_graph(OfflineParams(n, k, 2), seed)
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
        session._undo()
        assert session_state(session) == states[-1]
        session.request(v)
        assert session_state(session) == after
    for state in reversed(states):
        session._undo()
        assert session_state(session) == state
    assert session_state(session) == fresh


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
    assert lg.graph.degree_of(0) == base.degree_of(0) * 2


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
def test_sweep_matches_naive_replay(base, copies, capacity):
    # LayeredGraph.build skips the Hall check, so rejections and audit
    # violations occur as well as clean sweeps
    lg = LayeredGraph.build(base, copies)
    sweep = exhaustive_online_check(lg, capacity)
    naive = naive_online_check(lg, capacity)
    assert sweep.sequences == naive.sequences
    assert sweep.first_rejection == naive.first_rejection
    assert sweep.first_audit_violation == naive.first_audit_violation


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


def test_sweep_node_budget(monkeypatch):
    lg = layered(verified_base(2, 1), 1)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=16")
    assert exhaustive_online_check(lg, 2).ok
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=15")
    with pytest.raises(LimitExceeded, match="exceeds 15 nodes"):
        exhaustive_online_check(lg, 2)


def test_exhaustive_limit_message_reports_progress(monkeypatch):
    lg = layered(verified_base(3, 2), 2)
    sweep = exhaustive_online_check(lg, 4)
    assert (sweep.sequences, sweep.visited, sweep.memo_hits) == (2080, 512, 140)
    monkeypatch.setenv("OMEX_LIMITS", "subset_nodes=200")
    with pytest.raises(LimitExceeded) as raised:
        exhaustive_online_check(lg, 4)
    assert str(raised.value) == (
        "sequence tree exceeds 200 nodes: visited 200 nodes, counted 356 "
        "sequences, cached 36 passing states")


def test_sweep_frontier_n4_k3():
    # 582,913,216 sequences under the default 5M-node budget: the walk
    # steps through far fewer nodes and counts cached subtrees in closed form
    sweep = exhaustive_online_check(layered(verified_base(4, 3), 3), 8)
    assert sweep.ok
    assert sweep.sequences == 582_913_216   # sum of P(16, j) for j = 1..8
    assert sweep.visited < Limits().subset_nodes


def test_layered_refuses_negative_k():
    with pytest.raises(ValueError, match="k >= 0, got k = -1"):
        layered(counterexample_graph(), -1)


# --- strategy existence game ------------------------------------------------

def test_counterexample_no_online_strategy_at_2():
    res = online_strategy_exists(counterexample_graph(), 2)
    assert res.exists is False
    assert res.strategy is None


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
