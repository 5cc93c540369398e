import pytest

from gogsep import Graph, GraphOfGroups, FiniteGroup, Word, bar
from gogsep.errors import (
    ComposabilityError,
    EdgeChainBroken,
    ElementOutOfGroup,
    GogsepError,
)

from conftest import W, make_pslz


def test_bar_involution():
    assert bar("e") == "~e"
    assert bar("~e") == "e"
    assert bar(bar("c1_2")) == "c1_2"


def test_graph_construction_and_accessors():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    g.add_edge("e", "u", "w")
    assert g.vertices == ["u", "w"]
    assert g.directed_edges == ["e", "~e"]
    assert g.edge_pairs() == ["e"]
    assert g.iota("e") == "u" and g.tau("e") == "w"
    assert g.iota("~e") == "w" and g.tau("~e") == "u"
    assert g.edges_at("u") == ["e"]
    assert g.is_connected()


def test_graph_rejects_duplicates_and_bad_names():
    g = Graph()
    g.add_vertex("u")
    with pytest.raises(GogsepError):
        g.add_vertex("u")
    g.add_edge("e", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("e", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("~f", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("f", "u", "nowhere")


def test_loop_edge_shows_both_orientations():
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    assert g.edges_at("o") == ["p", "~p"]


def test_gog_requires_connected_and_covered():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    with pytest.raises(GogsepError):
        GraphOfGroups(
            g,
            {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
        )
    g2 = Graph()
    g2.add_vertex("u")
    with pytest.raises(GogsepError):
        GraphOfGroups(g2, {})


def test_word_validate_catches_broken_chains():
    gog = make_pslz()
    with pytest.raises(EdgeChainBroken):
        Word(gog, "u", ("1", "1"), ("~e",)).validate()
    with pytest.raises(ElementOutOfGroup):
        Word(gog, "u", ("b",), ()).validate()


def test_reduce_deletes_trivial_backtracks():
    gog = make_pslz()
    w = W(gog, "u", "a", "e", "1", "~e", "a")
    r = w.reduce()
    assert r.n == 0
    assert gog.group_at("u").is_identity(r.groups[0])
    assert r == r.reduce()
    w = W(gog, "u", "1", "e", "b", "~e", "a", "e", "b2", "~e", "1")
    assert w == w.reduce()
    w = W(gog, "u", "1", "e", "b", "~e", "1", "e", "b2", "~e", "1")
    assert w != w.reduce()


def test_reduce_cascades_through_exposed_pairs():
    gog = make_pslz()
    # deleting the middle backtrack merges b and b2, exposing the outer pair
    w = W(gog, "u", "a", "e", "b", "~e", "1", "e", "b2", "~e", "a")
    r = w.reduce()
    assert r.n == 0 and gog.group_at("u").is_identity(r.groups[0])


def test_reduce_is_idempotent_and_order_independent(pslz, rng):
    from conftest import gen_corpus

    for w in gen_corpus(pslz, "u", rng, 50, max_edges=6):
        r = w.reduce()
        assert r.reduce() == r


def test_inverse_and_mul_compose():
    gog = make_pslz()
    w = W(gog, "u", "a", "e", "b", "~e", "1")
    assert (w * w.inverse()).reduce().is_identity_loop()
    assert w.inverse().inverse() == w
    side = W(gog, "w", "b")
    with pytest.raises(ComposabilityError):
        w * side


def test_word_equality_is_structural():
    gog = make_pslz()
    w1 = W(gog, "u", "a", "e", "b", "~e", "1")
    w2 = W(gog, "u", "a", "e", "b", "~e", "1")
    assert w1 == w2 and hash(w1) == hash(w2)
    assert w1 != W(gog, "u", "a", "e", "b2", "~e", "1")


def test_as_strings_round_trip(pslz):
    w = W(pslz, "u", "a", "e", "b2", "~e", "a")
    assert w.as_strings() == ["a", "e", "b2", "~e", "a"]
