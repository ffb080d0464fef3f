import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omex import (CodeTable, LimitExceeded, WeakDesign, as_extractor_view,
                  encode, greedy_weak_design, list_decode, restrict,
                  trevisan_eval, verify_weak_design)
from omex import trevisan
from omex.graph import to_json
from omex.rng import SplitMix64

from oracles import brute_list_decode, naive_extractor_view, some_weak_design

DELTA = Fraction(1, 4)

# grid the greedy construction is expected to cover (block, sets, universe)
DESIGN_GRID = [(1, 4, 4), (2, 3, 6), (2, 4, 10), (2, 6, 14), (3, 4, 16),
               (3, 6, 24), (4, 4, 24)]

# (block, sets, universe) small enough to export every seed as a view
SMALL_DESIGNS = [(1, 1, 1), (1, 2, 3), (1, 4, 4), (2, 2, 4), (2, 3, 6),
                 (2, 4, 8), (3, 1, 3), (3, 2, 7), (3, 4, 10)]


# --- weak designs -----------------------------------------------------------

def test_single_set_design_vacuous():
    d = WeakDesign(4, 2, ((1, 3),))
    assert verify_weak_design(d) is None
    assert verify_weak_design(d, m=1) is None


def test_disjoint_singletons():
    d = WeakDesign(4, 1, ((1,), (2,), (3,), (4,)))
    assert verify_weak_design(d) is None


def test_disjoint_pairs_partial_sums():
    d = WeakDesign(6, 2, ((1, 2), (3, 4), (5, 6)))
    assert verify_weak_design(d) is None


def test_identical_copies_blow_the_bound():
    d = WeakDesign(6, 2, ((1, 2), (1, 2), (1, 2)))
    v = verify_weak_design(d)
    assert v is not None
    assert v.index == 2
    assert v.kind == "intersection_sum"
    assert v.value == 4          # 2^2 > m-1 = 2


def test_size_and_range_violations():
    assert verify_weak_design(WeakDesign(4, 2, ((1, 1),))).kind == "size"
    assert verify_weak_design(WeakDesign(4, 2, ((1, 5),))).kind == "range"


@pytest.mark.parametrize("block,m,d", DESIGN_GRID)
def test_greedy_designs_verify_on_grid(block, m, d):
    design = greedy_weak_design(block, m, d, seed=33)
    assert design.m == m
    assert design.block_size == block
    assert verify_weak_design(design, m) is None


def test_greedy_deterministic():
    assert greedy_weak_design(2, 3, 8, seed=5) == greedy_weak_design(2, 3, 8, seed=5)


def test_greedy_infeasible_universe():
    # only one candidate block exists, so the third set cannot be placed
    with pytest.raises(RuntimeError, match="raise d"):
        greedy_weak_design(2, 5, 2, seed=1)


def test_greedy_refuses_an_impossible_shape_without_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew for a shape with no design")
    monkeypatch.setattr(trevisan, "SplitMix64", no_draws)
    with pytest.raises(RuntimeError, match="so d >= 6; raise d"):
        greedy_weak_design(3, 2, 5, seed=1)


def _some_design(block: int, m: int, d: int) -> bool:
    """Whether any m sets of size `block` in {1..d} form a weak design
    for bound m, by depth-first search over the sets in order; a prefix
    that breaks the bound breaks it in every extension."""
    blocks = list(itertools.combinations(range(1, d + 1), block))
    prefixes = [()]
    while prefixes:
        prefix = prefixes.pop()
        if len(prefix) == m:
            return True
        for s in blocks:
            sets = prefix + (s,)
            if verify_weak_design(WeakDesign(d, block, sets), m) is None:
                prefixes.append(sets)
    return False


def test_refused_shapes_have_no_design():
    refused = [(block, m, d) for d in range(1, 7) for block in range(1, d + 1)
               for m in range(2, 7) if d < 2 * block]
    assert len(refused) == 60
    for block, m, d in refused:
        assert not _some_design(block, m, d), (block, m, d)
        with pytest.raises(RuntimeError, match="raise d"):
            greedy_weak_design(block, m, d, seed=0)
    # the search does find the designs of shapes just past the rule
    assert all(_some_design(*shape)
               for shape in [(1, 3, 2), (2, 2, 4), (3, 2, 6)])


def test_weak_design_search_agrees_with_the_plain_search():
    for d in range(1, 6):
        for block in range(1, d + 1):
            for m in range(1, 6):
                design = some_weak_design(block, m, d)
                assert (design is not None) == _some_design(block, m, d)
                if design is not None:
                    assert verify_weak_design(design, m) is None


def test_greedy_refuses_only_shapes_without_a_design(monkeypatch):
    # every shape with block <= 3, m <= 5, d <= 10 that the bound
    # d >= b + sum_{i=1}^{m-1} max(0, b - (m-1-i)) refuses is refused
    # before any draw, and has no design at all
    class Drew(Exception):
        pass

    def no_draws(seed):
        raise Drew
    monkeypatch.setattr(trevisan, "SplitMix64", no_draws)
    refused = []
    for block in range(1, 4):
        for m in range(1, 6):
            for d in range(block, 11):
                try:
                    greedy_weak_design(block, m, d, seed=0)
                except Drew:
                    continue
                except RuntimeError as e:
                    assert str(e).endswith("; raise d")
                    refused.append((block, m, d))
                assert some_weak_design(block, m, d) is None, (block, m, d)
    assert refused == [
        (block, m, d) for block in range(1, 4) for m in range(1, 6)
        for d in range(block, 11)
        if d < block + sum(max(0, block - (m - 1 - i)) for i in range(1, m))]
    assert len(refused) == 35
    # 2b at m = 2, 3b - 1 at m = 3
    assert (3, 2, 5) in refused and (3, 2, 6) not in refused
    assert (2, 3, 4) in refused and (3, 3, 6) in refused
    assert (2, 3, 5) not in refused and (3, 3, 8) not in refused


def test_greedy_argument_validation():
    with pytest.raises(ValueError):
        greedy_weak_design(3, 2, 2, seed=1)
    with pytest.raises(ValueError):
        greedy_weak_design(0, 2, 4, seed=1)


# --- Hadamard encode / decode -----------------------------------------------

def test_encode_examples():
    code = CodeTable(2, DELTA)
    assert encode(code, "00") == "0000"
    assert encode(code, "01") == "0101"
    assert encode(code, "11") == "0110"
    assert encode(code, "10") == "0011"


def test_encode_length_checks():
    code = CodeTable(2, DELTA)
    with pytest.raises(ValueError):
        encode(code, "011")
    with pytest.raises(ValueError):
        encode(code, "0a")


def test_code_table_invariants():
    assert CodeTable(3, DELTA).codeword_length == 8
    with pytest.raises(ValueError):
        CodeTable(2, Fraction(1, 3))   # delta above 1/4
    with pytest.raises(ValueError):
        CodeTable(2, 0)


def test_decode_own_codeword():
    code = CodeTable(2, DELTA)
    for u_int in range(4):
        u = format(u_int, "02b")
        assert u in list_decode(code, encode(code, u))


def test_decode_0101_exactly_01():
    assert list_decode(CodeTable(2, DELTA), "0101") == ["01"]


def test_decode_all_zeros_exactly_00():
    # nonzero codewords have weight exactly half, below the 3/4 agreement bar
    assert list_decode(CodeTable(2, DELTA), "0000") == ["00"]


def test_decode_refuses_a_word_of_the_wrong_length():
    with pytest.raises(ValueError, match="^word length 3 != codeword length "
                                         "4$"):
        list_decode(CodeTable(2, DELTA), "010")


def test_decode_matches_brute_oracle_exhaustively_nmsg2():
    code = CodeTable(2, DELTA)
    for w in range(16):
        word = format(w, "04b")
        assert list_decode(code, word) == brute_list_decode(code, word)


def test_decode_matches_brute_oracle_random_nmsg4():
    code = CodeTable(4, Fraction(1, 8))
    rng = SplitMix64(77)
    for _ in range(300):
        word = format(rng.below(2 ** 16), "016b")
        assert list_decode(code, word) == brute_list_decode(code, word)


@st.composite
def decode_cases(draw):
    """A code with n_msg in 1..6 and delta from a grid in (0, 1/4], and
    either a codeword with some bits flipped or a uniform word."""
    n_msg = draw(st.integers(min_value=1, max_value=6))
    nbar = 2 ** n_msg
    code = CodeTable(n_msg, Fraction(draw(st.integers(1, 12)), 48))
    if draw(st.booleans()):
        x = draw(st.integers(0, nbar - 1))
        flips = draw(st.sets(st.integers(0, nbar - 1), max_size=nbar // 2))
        sent = encode(code, format(x, f"0{n_msg}b"))
        word = "".join(str(int(b) ^ (a in flips)) for a, b in enumerate(sent))
    else:
        word = format(draw(st.integers(0, 2 ** nbar - 1)), f"0{nbar}b")
    return code, word


@settings(max_examples=300, deadline=None)
@given(decode_cases())
def test_decode_matches_brute_oracle(case):
    code, word = case
    assert list_decode(code, word) == brute_list_decode(code, word)


def test_decode_frontier_nmsg12():
    # 1/5 of the bits flipped leaves the sent message 4/5 agreement
    code = CodeTable(12, DELTA)
    rng = SplitMix64(12)
    u = format(rng.below(2 ** 12), "012b")
    word = list(encode(code, u))
    for a in rng.sample(2 ** 12, 2 ** 12 // 5):
        word[a] = "1" if word[a] == "0" else "0"
    word = "".join(word)
    got = list_decode(code, word)
    assert u in got
    assert len(got) <= 1 / (4 * DELTA ** 2)
    for msg in got:
        agree = sum(a == b for a, b in zip(encode(code, msg), word))
        assert 4 * agree >= 3 * 2 ** 12


def test_distinct_codewords_agree_on_exactly_half():
    for n_msg in (2, 3, 4):
        code = CodeTable(n_msg, DELTA)
        words = [encode(code, format(u, f"0{n_msg}b")) for u in range(2 ** n_msg)]
        for a, b in itertools.combinations(words, 2):
            agree = sum(x == y for x, y in zip(a, b))
            assert agree == code.codeword_length // 2


def test_list_size_never_exceeds_johnson_bound():
    code = CodeTable(2, DELTA)
    bound = 1 / (4 * float(DELTA) ** 2)
    for w in range(16):
        assert len(list_decode(code, format(w, "04b"))) <= bound
    code4 = CodeTable(4, Fraction(1, 8))
    bound4 = 1 / (4 * float(code4.delta) ** 2)
    rng = SplitMix64(78)
    for _ in range(500):
        word = format(rng.below(2 ** 16), "016b")
        assert len(list_decode(code4, word)) <= bound4


# --- restriction and evaluation ---------------------------------------------

def test_restrict_prefix():
    assert restrict("10110", (1, 2, 3)) == "101"


def test_restrict_examples():
    assert restrict("101100", (2, 5)) == "00"
    assert restrict("101100", (1, 6)) == "10"


def test_restrict_out_of_range():
    with pytest.raises(ValueError):
        restrict("101", (0,))
    with pytest.raises(ValueError):
        restrict("101", (4,))


def test_eval_single_set():
    code = CodeTable(2, DELTA)
    design = WeakDesign(2, 2, ((1, 2),))
    assert trevisan_eval(code, design, "01", "01") == "1"


def test_eval_zero_message_all_zero():
    code = CodeTable(2, DELTA)
    design = greedy_weak_design(2, 3, 8, seed=9)
    for y_int in range(2 ** 8):
        y = format(y_int, "08b")
        assert trevisan_eval(code, design, "00", y) == "000"


def test_eval_matches_componentwise_recomputation():
    code = CodeTable(2, DELTA)
    for d in (2, 3, 4):
        sets = list(itertools.combinations(range(1, d + 1), 2))[:3]
        design = WeakDesign(d, 2, tuple(sets))
        for u_int, y_int in itertools.product(range(4), range(2 ** d)):
            u, y = format(u_int, "02b"), format(y_int, f"0{d}b")
            got = trevisan_eval(code, design, u, y)
            cw = encode(code, u)
            expected = "".join(cw[int(restrict(y, s), 2)] for s in design.sets)
            assert got == expected


def test_eval_parameter_mismatches():
    code = CodeTable(2, DELTA)
    design = WeakDesign(4, 3, ((1, 2, 3),))
    with pytest.raises(ValueError, match="block"):
        trevisan_eval(code, design, "01", "0000")
    good = WeakDesign(4, 2, ((1, 2),))
    with pytest.raises(ValueError, match="length"):
        trevisan_eval(code, good, "01", "00000")


# --- graph export ------------------------------------------------------------

def test_exported_view_is_left_regular_with_full_degree():
    code = CodeTable(2, DELTA)
    design = greedy_weak_design(2, 3, 8, seed=13)
    view = as_extractor_view(code, design, K=2, eps=Fraction(1, 2))
    assert view.N == 4
    assert view.D == 2 ** 8
    assert view.M == 8
    for v in range(view.N):
        assert len(view.graph.neighbors_of(v)) == view.D
    # the export exists to measure empirical deviation; it must plug in
    from omex import deviation
    assert 0 <= deviation(view, (0, 1)) < 1


def test_exported_view_agrees_with_eval():
    code = CodeTable(2, DELTA)
    design = WeakDesign(3, 2, ((1, 2), (2, 3)))
    view = as_extractor_view(code, design, K=2, eps=Fraction(1, 2))
    for u_int in range(4):
        u = format(u_int, "02b")
        for y_int in range(8):
            y = format(y_int, "03b")
            expected = int(trevisan_eval(code, design, u, y), 2)
            assert view.graph.neighbors[u_int][y_int] == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_DESIGNS), st.integers(0, 2 ** 32))
def test_exported_view_agrees_with_eval_on_greedy_designs(shape, seed):
    block, m, d = shape
    code = CodeTable(block, DELTA)
    design = greedy_weak_design(block, m, d, seed=seed)
    view = as_extractor_view(code, design, K=1, eps=Fraction(1, 2))
    for x, row in enumerate(view.graph.neighbors):
        u = format(x, f"0{block}b")
        assert row == tuple(
            int(trevisan_eval(code, design, u, format(y, f"0{d}b")), 2)
            for y in range(2 ** d))


def _assert_view_matches_naive(code, design):
    fast = as_extractor_view(code, design, K=1, eps=Fraction(1, 2))
    naive = naive_extractor_view(code, design, K=1, eps=Fraction(1, 2))
    assert to_json(fast.graph) == to_json(naive.graph)
    return fast


def test_exported_view_matches_naive_on_greedy_grid():
    # block 1-3, universe 4-10, seeds 0-2, and m = 1, 2, ... up to the first
    # m the greedy construction cannot fill (276 designs); past that m the
    # construction fails for every larger m on this grid as well
    for block in range(1, 4):
        code = CodeTable(block, DELTA)
        for d in range(4, 11):
            for seed in range(3):
                for m in range(1, 7):
                    try:
                        design = greedy_weak_design(block, m, d, seed)
                    except RuntimeError:
                        break
                    _assert_view_matches_naive(code, design)


@pytest.mark.parametrize("design", [
    WeakDesign(3, 2, ((3, 1), (2, 3))),     # unsorted set
    WeakDesign(3, 2, ((2, 2),)),            # repeated coordinate
    WeakDesign(4, 2, ((1, 3),)),            # one set
    WeakDesign(3, 2, ()),                   # no sets
])
def test_exported_view_matches_naive_on_unverified_designs(design):
    view = _assert_view_matches_naive(CodeTable(2, DELTA), design)
    assert view.M == 2 ** design.m


def test_export_is_charged_to_gen_edges(monkeypatch):
    code = CodeTable(2, DELTA)
    design = greedy_weak_design(2, 4, 10, seed=0)
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=4095")
    with pytest.raises(LimitExceeded,
                       match="4096 view edges exceed limit 4095"):
        as_extractor_view(code, design, K=2, eps=Fraction(1, 4))
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=4096")
    view = as_extractor_view(code, design, K=2, eps=Fraction(1, 4))
    assert (view.N, view.D) == (4, 1024)


def test_export_checks_its_input_before_the_budget(monkeypatch):
    monkeypatch.setenv("OMEX_LIMITS", "gen_edges=1")
    code = CodeTable(2, DELTA)
    with pytest.raises(ValueError, match="block size"):
        as_extractor_view(code, WeakDesign(4, 3, ((1, 2, 3),)), K=2,
                          eps=Fraction(1, 2))
    with pytest.raises(ValueError, match="out of range"):
        as_extractor_view(code, WeakDesign(4, 2, ((1, 5),)), K=2,
                          eps=Fraction(1, 2))


@pytest.mark.parametrize("block", [1, 3])
def test_block_size_must_equal_message_length(block):
    code = CodeTable(2, DELTA)
    design = WeakDesign(4, block, (tuple(range(1, block + 1)),))
    with pytest.raises(ValueError, match="block size"):
        as_extractor_view(code, design, K=2, eps=Fraction(1, 2))
    with pytest.raises(ValueError, match="block size"):
        trevisan_eval(code, design, "01", "0000")
