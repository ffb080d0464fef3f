import pytest
from hypothesis import given

from omex import (BipartiteGraph, EnumeratedSet, ExtractorFingerprint,
                  ExtractorView, GraphFormatError, GraphInvariantError,
                  MatchingFingerprint, TwoConditionFingerprint, WeakDesign,
                  complete_graph, load, save, uniform_view, validate)
from omex.fingerprint import Fingerprint
from omex.graph import from_json, to_json

from conftest import NoPower, small_graphs


def test_empty_graph_is_valid():
    g = BipartiteGraph(0, 1, 0, ((),))
    assert validate(g) is None


def test_neighbor_index_at_right_size_is_violation():
    g = BipartiteGraph(1, 2, 1, ((2,), ()))
    v = validate(g)
    assert v is not None
    assert v.rule == "neighbor_range"
    assert v.vertex == 0


def test_complete_graph_valid():
    g = complete_graph(2, 4)
    assert validate(g) is None
    assert all(g.degree_of(v) == 4 for v in range(4))


def test_degree_bound_violation_reports_vertex():
    g = BipartiteGraph(1, 3, 2, ((0,), (0, 1, 2)))
    v = validate(g)
    assert v.rule == "degree_bound"
    assert v.vertex == 1


def test_left_size_cannot_exceed_index_space():
    g = BipartiteGraph(1, 2, 1, ((), (), ()))
    assert validate(g).rule == "left_size_bound"
    for n in range(4):
        for left in range(2 ** n + 2):
            v = validate(BipartiteGraph(n, 1, 0, ((),) * left))
            assert (v is None) == (left <= 2 ** n)
    # an n read from a graph file is compared by bit length
    assert validate(BipartiteGraph(NoPower(10 ** 18), 1, 0, ((), ()))) is None


def test_save_load_roundtrip(tmp_path):
    g = BipartiteGraph(2, 5, 3, ((0, 1), (4, 4), (2,), ()))
    path = tmp_path / "g.json"
    save(g, path)
    assert load(path) == g


def test_serialization_is_byte_deterministic(tmp_path):
    g = complete_graph(2, 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(g, p1)
    save(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("obj, kind, text", [
    pytest.param(BipartiteGraph(2, 5, 3, ((0, 1), (4, 4), (2,), ())),
                 BipartiteGraph,
                 '{"max_degree":3,"n":2,"neighbors":[[0,1],[4,4],[2],[]],'
                 '"right_size":5}', id="graph"),
    pytest.param(uniform_view(1, 1, K=2), ExtractorView,
                 '{"K":2,"eps":"1/2","max_degree":2,"n":1,'
                 '"neighbors":[[0,1],[0,1]],"right_size":2}', id="view"),
    pytest.param(EnumeratedSet("cond-b", 3, (5, 2, 7)), EnumeratedSet,
                 '{"elements":[5,2,7],"k":3,"label":"cond-b"}', id="set"),
    pytest.param(WeakDesign(4, 2, ((1, 2), (3, 4))), WeakDesign,
                 '{"block_size":2,"d":4,"sets":[[1,2],[3,4]]}', id="design"),
    pytest.param(MatchingFingerprint(5, 3, 1, 2), Fingerprint,
                 '{"flavor":"matching","neighbor_bits":2,"neighbor_ordinal":1,'
                 '"payload_bits":3,"right_index":5}', id="fp-matching"),
    pytest.param(ExtractorFingerprint(1, 2, 0, 2, 1, 3, 2), Fingerprint,
                 '{"flavor":"extractor","layer":1,"layer_bits":1,"ordinal":0,'
                 '"ordinal_bits":2,"ordinal_bound":3,"payload_bits":2,'
                 '"right_index":2,"total_bits":5}', id="fp-extractor"),
    pytest.param(TwoConditionFingerprint(6, 3, 2, 1, 3, 2, 0, 1), Fingerprint,
                 '{"bound":2,"flavor":"two-condition","ordinal_b":0,'
                 '"ordinal_c":1,"p":6,"payload_bits":3,"prefix_bits":2,"q":3,'
                 '"second_bound":1}', id="fp-two-condition"),
])
def test_saved_bytes_are_canonical(tmp_path, obj, kind, text):
    path = tmp_path / "file.json"
    save(obj, path)
    assert path.read_bytes() == (text + "\n").encode()
    assert load(path, kind) == obj


def test_malformed_file_missing_field():
    with pytest.raises(GraphFormatError, match="neighbors"):
        from_json('{"n": 1, "right_size": 2, "max_degree": 1}')


def test_malformed_file_bad_json():
    with pytest.raises(GraphFormatError):
        from_json("{not json")


def test_load_refuses_invariant_violation():
    text = '{"n": 1, "right_size": 2, "max_degree": 2, "neighbors": [[0, 1, 1], [0]]}'
    with pytest.raises(GraphInvariantError, match="degree"):
        from_json(text)


def test_neighbors_of_complete():
    g = complete_graph(1, 2)
    assert g.neighbors_of(0) == (0, 1)


def test_multi_edge_kept_with_multiplicity():
    g = BipartiteGraph(0, 4, 2, ((3, 3),))
    assert g.neighbors_of(0) == (3, 3)


def test_out_of_range_indices_raise():
    g = complete_graph(1, 2)
    with pytest.raises(IndexError):
        g.neighbors_of(2)


def test_build_raises_on_invalid():
    with pytest.raises(GraphInvariantError):
        BipartiteGraph.build(1, 2, 1, [[5], []])


@given(small_graphs())
def test_json_roundtrip_identity(g):
    assert from_json(to_json(g)) == g
