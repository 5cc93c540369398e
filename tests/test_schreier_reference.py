"""The crosscheck's coset enumeration against the loop-fed reference.

``_schreier_index`` feeds Todd-Coxeter one relation per cover edge.  Its
reference is ``conftest.coset_enumerate`` over the cover's Schreier loops,
which ``conftest.subgroup_generators`` builds by word products: the two
indices and the cover's degree must agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from gogsep import (
    bar,
    check_cover,
    complete_to_cover,
    fold,
    separate_element,
    trim_core,
    wedge,
)
from gogsep.verifier import _schreier_index
from gogsep.errors import GogsepError

from conftest import (
    coset_enumerate,
    gen_corpus,
    make_c2c3c2,
    make_dinfty,
    make_pslz,
    make_rose2,
    subgroup_generators,
)
from test_golden import GOLDEN


TARGETS = {
    "pslz": (make_pslz, "u", 2),
    "dinfty": (make_dinfty, "u", 1),
    "c2c3c2": (make_c2c3c2, "u", 2),
    "rose2": (make_rose2, "o", 1),
}


def _assert_same_index(m, base):
    # These covers have degree 172 at most; a cap of 1000 cosets makes a
    # wrong enumeration that does not close fail fast.
    loops = subgroup_generators(m, base)
    index = _schreier_index(m, base, 1000)
    assert index == coset_enumerate(m.target, m.vertex_map[base], loops)
    assert index == check_cover(m).degree


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(tuple(TARGETS)), st.integers(0, 10**6), st.integers(1, 3))
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
