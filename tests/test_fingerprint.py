import hashlib
import itertools
from fractions import Fraction

import pytest

from omex import (BipartiteGraph, EnumeratedSet, ExtractorView, LayeredGraph,
                  OfflineParams, bits_for, construct_verified_offline_graph,
                  decode_extractor, decode_matching, decode_two_conditions,
                  encode_extractor, encode_matching, encode_two_conditions,
                  exhaustive_online_check, layer_sets, layered,
                  random_extractor_search)
from omex.fingerprint import fingerprint_from_doc
from omex.graph import from_json, to_json
from omex.online import counterexample_graph
from omex.rng import SplitMix64

from conftest import NoPower, uniform_view


def matching_setup(n, k, seed=7, c=2):
    base, _ = construct_verified_offline_graph(OfflineParams(n, k, c), seed)
    return base, layered(base, k)


# four left vertices on one right vertex: fails Hall at size 2
FUNNEL = BipartiteGraph(2, 1, 1, ((0,), (0,), (0,), (0,)))


def dangerous_layer_stack():
    """Layer 0 has a fully pinned vertex (all edges on one overloaded right
    vertex); layer 1 is exactly uniform, so the pinned vertex escapes there."""
    rows = ((0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 3), (0, 0, 3, 1))
    layer0 = ExtractorView(BipartiteGraph(2, 4, 4, rows), 4, Fraction(1, 2))
    layer1 = uniform_view(2, 2, K=1, eps=Fraction(1, 2))
    return [layer0, layer1]


# --- enumerated sets ---------------------------------------------------------

def test_set_invariants():
    s = EnumeratedSet("b", 2, (3, 1, 0))
    assert 1 in s and 2 not in s
    with pytest.raises(ValueError, match="distinct"):
        EnumeratedSet("b", 2, (1, 1))
    with pytest.raises(ValueError, match="bound"):
        EnumeratedSet("b", 1, (0, 1, 2))


def test_set_bound_holds_exactly_at_2_to_the_k():
    for k in range(5):
        for size in range(2 ** k + 3):
            elements = tuple(range(size))
            if size <= 2 ** k:
                assert EnumeratedSet("b", k, elements).elements == elements
            else:
                with pytest.raises(ValueError, match=f"bound 2\\^{k}$"):
                    EnumeratedSet("b", k, elements)


def test_set_and_two_condition_bounds_build_no_power_of_k():
    # a k read from a set file is compared by bit length, and one above the
    # view's n is refused before 2^k is formed
    huge = NoPower(10 ** 18)
    s_b = EnumeratedSet("b", huge, (0, 1))
    with pytest.raises(ValueError, match="bound 2\\^1$"):
        EnumeratedSet("b", NoPower(1), (0, 1, 2))
    with pytest.raises(ValueError, match=f"first bound k={huge} exceeds the "
                                         "view's n=3$"):
        encode_two_conditions(uniform_view(3, 2, K=4), s_b,
                              EnumeratedSet("c", 1, (0,)), 0)


def test_set_json_roundtrip():
    s = EnumeratedSet("cond-b", 3, (5, 2, 7))
    assert from_json(to_json(s), EnumeratedSet) == s
    assert to_json(s) == to_json(from_json(to_json(s), EnumeratedSet))


# --- matching flavor ---------------------------------------------------------

def test_singleton_set_takes_first_neighbor():
    base, lg = matching_setup(2, 1)
    s = EnumeratedSet("b", 1, (2,))
    fp = encode_matching(lg, s, 2)
    assert fp.right_index == lg.graph.neighbors_of(2)[0]
    assert fp.neighbor_ordinal == 0
    assert decode_matching(lg, s, fp) == 2


@pytest.mark.parametrize("n, k, c, rejected", [
    (2, 1, 1, None), (2, 1, 2, None), (3, 2, 1, None), (3, 2, 2, None),
    (2, 2, None, [0, 1, 2, 3])])
def test_sweep_certifies_matching_roundtrips(n, k, c, rejected):
    """Encoding runs greedy over the set in order and decoding replays that
    run, so the on-line sweep over every request sequence of at most 2^k
    is a certificate for the matching flavor. Where it passes, every element
    of every ordered set of at most 2^k elements encodes and decodes to
    itself; where it names a first rejection, encoding that set raises.
    c=None stacks k+1 copies of FUNNEL, which fails Hall, unverified."""
    if c is None:
        base, lg = FUNNEL, LayeredGraph.build(FUNNEL, k + 1)
    else:
        base, lg = matching_setup(n, k, c=c)
    sweep = exhaustive_online_check(lg, 2 ** k)
    assert sweep.first_rejection == rejected
    if rejected is not None:
        s = EnumeratedSet("b", k, tuple(rejected))
        with pytest.raises(AssertionError, match=f"engine rejected {rejected[-1]}"):
            encode_matching(lg, s, rejected[0])
        return
    assert sweep.ok
    for size in range(1, 2 ** k + 1):
        for elements in itertools.permutations(range(base.left_size), size):
            s = EnumeratedSet("b", k, elements)
            for a in elements:
                assert decode_matching(lg, s, encode_matching(lg, s, a)) == a


def test_matching_fingerprints_injective_per_session():
    _, lg = matching_setup(2, 1)
    s = EnumeratedSet("b", 1, (3, 0))
    prints = {a: encode_matching(lg, s, a).right_index for a in s.elements}
    assert prints[3] != prints[0]


def test_matching_encode_deterministic():
    _, lg = matching_setup(2, 1)
    s = EnumeratedSet("b", 1, (1, 2))
    assert encode_matching(lg, s, 2) == encode_matching(lg, s, 2)


def test_matching_payload_bits_within_bound():
    for n, k in ((2, 1), (3, 2), (3, 3)):
        base, lg = matching_setup(n, k)
        s = EnumeratedSet("b", k, tuple(range(min(2 ** k, base.left_size))))
        degree = len(base.neighbors_of(0))
        for a in s.elements:
            fp = encode_matching(lg, s, a)
            assert fp.payload_bits <= k + bits_for(k + 1) + bits_for(degree)
            assert fp.right_index < lg.graph.right_size
            assert fp.neighbor_ordinal < len(lg.graph.neighbors_of(a))


def test_matching_target_must_be_in_set():
    _, lg = matching_setup(2, 1)
    with pytest.raises(ValueError, match="not in set"):
        encode_matching(lg, EnumeratedSet("b", 1, (0,)), 1)


def test_matching_layer_count_must_match_bound():
    _, lg = matching_setup(2, 1)
    with pytest.raises(ValueError, match="layers"):
        encode_matching(lg, EnumeratedSet("b", 0, (0,)), 0)


def test_matching_decode_with_wrong_set_is_designed_failure():
    # encode with S = (0, 1) over the layered 3x2 graph: 0 grabs the partner
    # that 1 needs, so 1 lands on the second layer; replaying without 0
    # leaves that copy unmatched
    lg = layered(counterexample_graph(), 1)
    full = EnumeratedSet("b", 1, (0, 1))
    fp = encode_matching(lg, full, 1)
    assert fp.right_index == 2          # layer-1 copy of right vertex 0
    stripped = EnumeratedSet("b", 1, (1,))
    with pytest.raises(ValueError, match="never matched"):
        decode_matching(lg, stripped, fp)


# --- extractor flavor ---------------------------------------------------------

def test_uniform_view_encodes_everyone_at_layer_zero():
    uv = uniform_view(3, 2, K=8, eps=Fraction(1, 2))
    s = EnumeratedSet("b", 3, (4, 1, 6))
    for a in s.elements:
        fp = encode_extractor([uv], s, a)
        assert fp.layer == 0
        assert fp.right_index == uv.graph.neighbors_of(a)[0]
        assert fp.ordinal == s.elements.index(a)
        assert decode_extractor([uv], s, fp) == a


def test_extractor_roundtrip_on_verified_views(verified_views):
    for view in verified_views:
        k = view.K.bit_length() - 1
        rng = SplitMix64(31)
        for _ in range(20):
            size = 1 + rng.below(view.K)
            elements = tuple(rng.sample(view.N, size))
            s = EnumeratedSet("b", k, elements)
            for a in elements:
                fp = encode_extractor([view], s, a)
                assert fp.ordinal < fp.ordinal_bound
                assert decode_extractor([view], s, fp) == a


def test_layer_shrinkage_on_verified_views(verified_views):
    for view in verified_views:
        for S in itertools.combinations(range(view.N), view.K):
            chain = layer_sets([view], S)
            assert len(chain[1]) < 2 * view.eps * view.K


def test_dangerous_vertex_escapes_to_second_layer():
    stack = dangerous_layer_stack()
    s = EnumeratedSet("b", 2, (0, 1, 2, 3))
    fp = encode_extractor(stack, s, 0)
    assert fp.layer == 1
    assert decode_extractor(stack, s, fp) == 0
    for a in (1, 2, 3):
        fp = encode_extractor(stack, s, a)
        assert fp.layer == 0
        assert decode_extractor(stack, s, fp) == a


def test_extractor_runs_out_of_layers():
    stack = dangerous_layer_stack()[:1]
    s = EnumeratedSet("b", 2, (0, 1, 2, 3))
    with pytest.raises(RuntimeError, match="every one of the 1 layers"):
        encode_extractor(stack, s, 0)


def test_extractor_layer_capacity_precondition():
    uv = uniform_view(2, 1, K=2)
    s = EnumeratedSet("b", 2, (0, 1, 2))
    with pytest.raises(ValueError, match="more than"):
        encode_extractor([uv], s, 0)


def test_extractor_bit_accounting():
    stack = dangerous_layer_stack()
    s = EnumeratedSet("b", 2, (0, 1, 2, 3))
    for a in s.elements:
        fp = encode_extractor(stack, s, a)
        view = stack[fp.layer]
        assert fp.payload_bits == view.m
        assert fp.layer_bits == bits_for(len(stack))
        assert fp.ordinal_bits == bits_for(fp.ordinal_bound)
        assert fp.total_bits <= view.m + bits_for(len(stack)) + fp.ordinal_bits


def test_extractor_decode_rejects_bad_ordinal():
    uv = uniform_view(2, 2, K=4)
    s = EnumeratedSet("b", 2, (0, 1))
    fp = encode_extractor([uv], s, 1)
    broken = fingerprint_from_doc({**fp.to_doc(), "ordinal": 5})
    with pytest.raises(ValueError, match="out of range"):
        decode_extractor([uv], s, broken)


@pytest.mark.parametrize("ordinal", [-1, -2])
def test_extractor_decode_rejects_negative_ordinal(ordinal):
    # both elements are partners of every right vertex, so a negative
    # ordinal would index the list from its end
    uv = uniform_view(2, 2, K=4)
    s = EnumeratedSet("b", 2, (0, 1))
    fp = encode_extractor([uv], s, 1)
    broken = fingerprint_from_doc({**fp.to_doc(), "ordinal": ordinal})
    with pytest.raises(ValueError, match=f"ordinal {ordinal} out of range"):
        decode_extractor([uv], s, broken)


# --- two-condition flavor ------------------------------------------------------

def test_uniform_pview_first_neighbor_works():
    pview = uniform_view(3, 2, K=4, eps=Fraction(1, 4))
    s_b = EnumeratedSet("b", 2, (1, 5, 2, 7))
    s_c = EnumeratedSet("c", 1, (5, 1))
    for a in (1, 5):
        fp = encode_two_conditions(pview, s_b, s_c, a)
        assert fp.p == pview.graph.neighbors_of(a)[0]
        assert fp.q == fp.p >> 1
        assert decode_two_conditions(pview, s_b, fp, "b") == a
        assert decode_two_conditions(pview, s_c, fp, "c") == a


def test_two_condition_roundtrip_on_searched_prefix_view():
    pview, _ = random_extractor_search(4, 2, 2, Fraction(1, 2), 4, seed=21,
                                       prefix=True)
    rng = SplitMix64(63)
    successes = 0
    for _ in range(25):
        b_elems = tuple(rng.sample(16, 4))
        c_elems = (b_elems[0], b_elems[1])
        s_b = EnumeratedSet("b", 2, b_elems)
        s_c = EnumeratedSet("c", 1, c_elems)
        for a in c_elems:
            fp = encode_two_conditions(pview, s_b, s_c, a)
            assert fp.q == fp.p >> (fp.bound - fp.second_bound)
            assert decode_two_conditions(pview, s_b, fp, "b") == a
            assert decode_two_conditions(pview, s_c, fp, "c") == a
            successes += 1
    assert successes == 50


def test_two_condition_bytes_do_not_hang_on_kept_truncations():
    # the fingerprints of the roundtrip above, once on the searched view,
    # which keeps its truncated view and count tables between calls, and
    # once on a fresh equal view per call; the digest is of the bytes the
    # encoder wrote when it still rebuilt the truncated view on every call
    pview, _ = random_extractor_search(4, 2, 2, Fraction(1, 2), 4, seed=21,
                                       prefix=True)
    rng = SplitMix64(63)
    kept, fresh = [], []
    for _ in range(25):
        b_elems = tuple(rng.sample(16, 4))
        s_b = EnumeratedSet("b", 2, b_elems)
        s_c = EnumeratedSet("c", 1, b_elems[:2])
        for a in b_elems[:2]:
            fp = encode_two_conditions(pview, s_b, s_c, a)
            assert decode_two_conditions(pview, s_c, fp, "c") == a
            kept.append(to_json(fp))
            once = ExtractorView(pview.graph, pview.K, pview.eps)
            fresh.append(to_json(encode_two_conditions(once, s_b, s_c, a)))
    assert kept == fresh
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest.startswith("48786d2c63d1b404")


def test_equal_bounds_collapse_prefix():
    pview = uniform_view(3, 2, K=4)
    s_b = EnumeratedSet("b", 2, (0, 3, 6))
    s_c = EnumeratedSet("c", 2, (3, 0))
    fp = encode_two_conditions(pview, s_b, s_c, 3)
    assert fp.p == fp.q
    assert fp.payload_bits == fp.prefix_bits
    assert decode_two_conditions(pview, s_b, fp, "b") == 3
    assert decode_two_conditions(pview, s_c, fp, "c") == 3


def test_singleton_second_set_decodes_trivially():
    pview = uniform_view(3, 2, K=4)
    s_b = EnumeratedSet("b", 2, (2, 4, 6))
    s_c = EnumeratedSet("c", 0, (4,))
    fp = encode_two_conditions(pview, s_b, s_c, 4)
    assert fp.prefix_bits == 0         # fully truncated output
    assert decode_two_conditions(pview, s_c, fp, "c") == 4


def test_scan_skips_bad_first_neighbor():
    rows = ((0, 1, 3, 3), (0, 0, 2, 2), (0, 0, 0, 2), (0, 1, 2, 3))
    pview = ExtractorView(BipartiteGraph(2, 4, 4, rows), 4, Fraction(1, 2))
    s_b = EnumeratedSet("b", 2, (0, 1, 2, 3))
    s_c = EnumeratedSet("c", 1, (0, 1))
    fp = encode_two_conditions(pview, s_b, s_c, 0, bad_factor=1)
    assert (fp.p, fp.q) == (1, 0)      # neighbor 0 is overloaded, skipped
    assert decode_two_conditions(pview, s_b, fp, "b") == 0
    assert decode_two_conditions(pview, s_c, fp, "c") == 0


def test_weakly_dangerous_target_is_reported():
    rows = ((0, 0), (0, 1), (0, 1), (1, 1))
    pview = ExtractorView(BipartiteGraph(2, 2, 2, rows), 2, Fraction(1, 2))
    s_b = EnumeratedSet("b", 1, (0, 1))
    s_c = EnumeratedSet("c", 1, (0, 1))
    with pytest.raises(ValueError, match="weakly dangerous"):
        encode_two_conditions(pview, s_b, s_c, 0, bad_factor=1)


def test_two_condition_input_validation():
    pview = uniform_view(3, 2, K=4)
    s_b = EnumeratedSet("b", 2, (0, 1))
    s_c = EnumeratedSet("c", 1, (0,))
    with pytest.raises(ValueError, match="both sets"):
        encode_two_conditions(pview, s_b, s_c, 1)
    big = EnumeratedSet("c", 3, (0,))
    with pytest.raises(ValueError, match="second bound"):
        encode_two_conditions(pview, s_b, big, 0)
    wrong_k = EnumeratedSet("b", 1, (0, 1))
    with pytest.raises(ValueError, match="needs 2"):
        encode_two_conditions(pview, wrong_k, s_c, 0)
    fp = encode_two_conditions(pview, s_b, s_c, 0)
    with pytest.raises(ValueError, match="side"):
        decode_two_conditions(pview, s_b, fp, "x")


# --- fingerprint documents -----------------------------------------------------

def test_fingerprint_doc_roundtrips():
    _, lg = matching_setup(2, 1)
    s = EnumeratedSet("b", 1, (0, 1))
    fp = encode_matching(lg, s, 1)
    assert fingerprint_from_doc(fp.to_doc()) == fp
    uv = uniform_view(2, 2, K=4)
    fe = encode_extractor([uv], EnumeratedSet("b", 2, (0, 1)), 1)
    assert fingerprint_from_doc(fe.to_doc()) == fe
    pview = uniform_view(3, 2, K=4)
    ft = encode_two_conditions(pview, EnumeratedSet("b", 2, (0, 1)),
                               EnumeratedSet("c", 1, (0,)), 0)
    assert fingerprint_from_doc(ft.to_doc()) == ft
    with pytest.raises(ValueError, match="flavor"):
        fingerprint_from_doc({"flavor": "nope"})


@pytest.mark.parametrize("side", ["b", "c"])
@pytest.mark.parametrize("ordinal", [-1, 4])
def test_two_condition_decode_rejects_ordinal_out_of_range(side, ordinal):
    pview = uniform_view(3, 2, K=4)
    s_b = EnumeratedSet("b", 2, (1, 5, 2, 7))
    s_c = EnumeratedSet("c", 1, (5, 1))
    fp = encode_two_conditions(pview, s_b, s_c, 5)
    broken = fingerprint_from_doc({**fp.to_doc(), f"ordinal_{side}": ordinal})
    with pytest.raises(ValueError, match=f"ordinal {ordinal} out of range"):
        decode_two_conditions(pview, s_b if side == "b" else s_c, broken, side)
