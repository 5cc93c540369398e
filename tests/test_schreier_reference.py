"""The verifier's Schreier loops against the word-built loops they replaced.

``subgroup_generators`` reads each loop's letters off the morphism's raw
maps and reduces once.  The reference below is the construction it
replaced: identity-lettered tree words built by word products, each loop
carried to the target by a checked induced image.  Both must give the
same loops, word for word and in the same order.

Those loops are in turn the reference for ``_schreier_index``, the
crosscheck's coset enumeration fed one relation per cover edge: its index
must equal ``coset_enumerate`` over the loops and the cover's degree.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from gogsep import (
    Word,
    bar,
    check_cover,
    complete_to_cover,
    coset_enumerate,
    enlarge,
    fold,
    separate_element,
    subgroup_generators,
    trim_core,
    wedge,
)
from gogsep.verifier import _schreier_index
from gogsep.errors import ElementOutOfGroup, GogsepError

from conftest import (
    gen_corpus,
    make_c2c3c2,
    make_dinfty,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
)
from test_golden import GOLDEN


# -- the reference: loops as products of domain words --------------------------


def _ref_induced_image(m, w):
    """Image of a domain word: letters pass through, edges pick up deltas."""
    if w.gog is not m.domain:
        raise GogsepError("word does not live on the morphism's domain")
    w.validate()
    for i in range(w.n + 1):
        v = w.vertex_at(i)
        if not m.vgroup_image[v].member(w.groups[i]):
            raise ElementOutOfGroup(
                f"letter {i} is outside the vertex subgroup at {v!r}"
            )
    tgt = m.target
    if w.n == 0:
        return Word(tgt, m.vertex_map[w.start], (w.groups[0],), ()).reduce()
    groups = []
    edges = []
    first = w.start
    oracle = tgt.group_at(m.vertex_map[first])
    groups.append(oracle.mul(w.groups[0], m.delta[w.edges[0]]))
    for i, e in enumerate(w.edges):
        edges.append(m.edge_map[e])
        at = m.domain.graph.tau(e)
        oracle = tgt.group_at(m.vertex_map[at])
        x = oracle.mul(oracle.inv(m.delta[bar(e)]), w.groups[i + 1])
        if i + 1 < w.n:
            x = oracle.mul(x, m.delta[w.edges[i + 1]])
        groups.append(x)
    return Word(tgt, m.vertex_map[first], tuple(groups), tuple(edges)).reduce()


def _ref_tree_words(m, u0):
    """Identity-lettered domain words along a BFS spanning tree from u0."""
    dom = m.domain
    words = {u0: Word(dom, u0, (dom.group_at(u0).identity(),), ())}
    tree_edges = set()
    queue = deque([u0])
    while queue:
        v = queue.popleft()
        for e in dom.graph.edges_at(v):
            w = dom.graph.tau(e)
            if w not in words:
                step = Word(
                    dom,
                    v,
                    (dom.group_at(v).identity(), dom.group_at(w).identity()),
                    (e,),
                )
                words[w] = words[v] * step
                tree_edges.add(e)
                tree_edges.add(bar(e))
                queue.append(w)
    if len(words) != len(dom.graph.vertices):
        raise GogsepError("domain is not connected from the base vertex")
    return words, tree_edges


def _ref_subgroup_generators(m, u0):
    words, tree_edges = _ref_tree_words(m, u0)
    dom = m.domain
    gens = []
    for v in sorted(dom.graph.vertices):
        for s in m.vgroup_image[v].generators:
            loop = words[v] * Word(dom, v, (s,), ()) * words[v].inverse()
            gens.append(_ref_induced_image(m, loop))
    for e in sorted(dom.graph.directed_edges):
        if e.startswith("~") or e in tree_edges:
            continue
        v, w = dom.graph.iota(e), dom.graph.tau(e)
        step = Word(
            dom, v, (dom.group_at(v).identity(), dom.group_at(w).identity()), (e,)
        )
        loop = words[v] * step * words[w].inverse()
        gens.append(_ref_induced_image(m, loop))
    return [g for g in gens if not g.is_identity_loop()]


def _assert_same_loops(m, u0):
    want = [(w.start, w.groups, w.edges) for w in _ref_subgroup_generators(m, u0)]
    got = [(w.start, w.groups, w.edges) for w in subgroup_generators(m, u0)]
    assert got == want


# -- tests ---------------------------------------------------------------------


TARGETS = {
    "pslz": (make_pslz, "u", 2),
    "dinfty": (make_dinfty, "u", 1),
    "c2c3c2": (make_c2c3c2, "u", 2),
    "f2c2": (make_f2c2, "x", 1),
    "z2": (make_z2, "x", 2),
    "rose2": (make_rose2, "o", 1),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TARGETS)), st.integers(0, 10**6), st.integers(1, 3))
def test_loops_match_the_word_built_loops(name, seed, count):
    """On a wedge, its fold and a cover completed from it, from two roots."""
    make, u0, bound = TARGETS[name]
    target = make()
    rng = random.Random(seed)
    gens = gen_corpus(target, u0, rng, count, max_edges=4, letter_bound=bound)
    m = wedge(target, u0, gens)
    folded = fold(m)
    cover = complete_to_cover(enlarge(folded), seed=seed)
    for morphism in (m, folded, cover):
        vertices = sorted(morphism.domain.graph.vertices)
        for root in sorted({morphism.domain.base, vertices[-1]}):
            _assert_same_loops(morphism, root)


def test_loops_match_on_the_golden_certificates():
    for name in sorted(GOLDEN):
        target, u0, gens, g = GOLDEN[name][0]()
        cert = separate_element(target, u0, gens, g, seed=0)
        _assert_same_loops(cert.cover, cert.base_vertex)


# -- the edge-relation index against the loops ------------------------------


def _assert_same_index(m, base):
    # These covers have degree 172 at most; a cap of 1000 cosets makes a
    # wrong enumeration that does not close fail fast.
    loops = subgroup_generators(m, base)
    index = _schreier_index(m, base, 1000)
    assert index == coset_enumerate(m.target, m.vertex_map[base], loops)
    assert index == check_cover(m).degree


FINITE = ("pslz", "dinfty", "c2c3c2", "rose2")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FINITE), st.integers(0, 10**6), st.integers(1, 3))
def test_schreier_index_matches_the_loops_and_the_degree(name, seed, count):
    """On covers completed from random folds, from two base vertices."""
    make, u0, bound = TARGETS[name]
    target = make()
    gens = gen_corpus(target, u0, random.Random(seed), count, letter_bound=bound)
    cover = complete_to_cover(trim_core(fold(wedge(target, u0, gens))), seed=seed)
    vertices = sorted(cover.domain.graph.vertices)
    for base in sorted({cover.domain.base, vertices[-1]}):
        _assert_same_index(cover, base)


def test_schreier_index_matches_on_the_golden_finite_certificates():
    for name in sorted(GOLDEN):
        target, u0, gens, g = GOLDEN[name][0]()
        if all(target.group_at(v).kind == "finite" for v in target.graph.vertices):
            cert = separate_element(target, u0, gens, g, seed=0)
            _assert_same_index(cert.cover, cert.base_vertex)


def test_schreier_index_rejects_an_edge_image_leaving_the_wrong_vertex():
    target = make_pslz()
    cover = complete_to_cover(fold(wedge(target, "u", [])), seed=0)
    e = next(e for e in cover.domain.graph.edge_pairs() if cover.edge_map[e] == "e")
    bad = object.__new__(type(cover))  # skips the constructor's validation
    swapped = {**cover.edge_map, e: "~e", bar(e): "e"}
    bad.__dict__.update(cover.__dict__, edge_map=swapped)
    _assert_same_index(cover, cover.domain.base)
    with pytest.raises(GogsepError):
        _schreier_index(bad, bad.domain.base, 1000)
