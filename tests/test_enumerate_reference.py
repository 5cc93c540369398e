"""The coset table against its dict-based reference and against brute force.

``verifier._enumerate`` runs Todd-Coxeter on numbered rows and stops at the
first round that defines no coset.  ``conftest.reference_enumerate`` keeps
dict rows and repeats rounds until the table's counts stop changing.  On
the same inputs both must close at the same smallest cap (the number of
cosets ever defined, less one) with the same index and the same final
table, coset numbers included, and both must raise DidNotClose one below.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from gogsep import (
    FiniteGroup,
    Graph,
    GraphOfGroups,
    Word,
    check_cover,
    complete_to_cover,
    crosscheck,
    fold,
    separate_element,
    wedge,
)
from gogsep import verifier
from gogsep.errors import DidNotClose

import conftest
from conftest import (
    gen_corpus,
    loop_relations,
    make_c2c3c2,
    make_dinfty,
    make_pslz,
    make_rose2,
    perfbench_instance,
    reference_enumerate,
)
from test_golden import GOLDEN


def _closes(enumerate_, args, cap):
    try:
        return enumerate_(*args, cap)
    except DidNotClose:
        return None


def _smallest_cap(args, top=4096):
    """The smallest cap at which ``_enumerate`` closes on args, by bisection
    (closing is monotone in the cap), with the index it gives there."""
    lo, hi = 0, top
    assert _closes(verifier._enumerate, args, hi) is not None
    while lo < hi:
        mid = (lo + hi) // 2
        if _closes(verifier._enumerate, args, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo, verifier._enumerate(*args, lo)


def _final_table(enumerate_, owner, name, args, cap):
    """enumerate_'s index and final table: each live coset's row, as the
    live cosets its symbols lead to.  ``owner.name`` is its table class."""
    tables = []

    class Recording(getattr(owner, name)):
        def __init__(self, *init):
            super().__init__(*init)
            tables.append(self)

    with mock.patch.object(owner, name, Recording):
        index = enumerate_(*args, cap)
    (t,) = tables
    live = [a for a in range(len(t.rows)) if t.find(a) == a]
    symbols = range(len(args[0][0]))
    return index, {a: [t.find(t.rows[a][s]) for s in symbols] for a in live}


def assert_same_as_reference(args):
    """Same smallest cap, index and final table; DidNotClose one below."""
    cap, index = _smallest_cap(args)
    table = _final_table(verifier._enumerate, verifier, "_CosetTable", args, cap)
    assert table[0] == index
    assert _final_table(
        reference_enumerate, conftest, "_ReferenceCosetTable", args, cap
    ) == table
    if cap:
        for enumerate_ in (verifier._enumerate, reference_enumerate):
            with pytest.raises(DidNotClose):
                enumerate_(*args, cap - 1)
    return index


def schreier_inputs(m, base):
    """The (presentation, base, steps, relations) ``_schreier_index`` hands
    to ``_enumerate``."""
    seen = []
    real = verifier._enumerate

    def record(*args):
        seen.append(args[:-1])
        return real(*args)

    with mock.patch.object(verifier, "_enumerate", record):
        verifier._schreier_index(m, base, 20000)
    return seen[0]


# -- covers: the inputs crosscheck feeds it -----------------------------------


def test_cover_enumerations_match_the_reference_on_the_golden_certificates():
    checked = 0
    for name in sorted(GOLDEN):
        target, u0, gens, g = GOLDEN[name][0]()
        if all(target.group_at(v).kind == "finite" for v in target.graph.vertices):
            cert = separate_element(target, u0, gens, g, seed=0)
            args = schreier_inputs(cert.cover, cert.base_vertex)
            assert assert_same_as_reference(args) == cert.degree
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("make, u0, bound", [(make_rose2, "o", 1), (make_pslz, "u", 2)])
def test_cover_enumerations_match_the_reference_on_random_loop_subgroups(make, u0, bound):
    """Covers completed from the folds of ``random_loop`` subgroups."""
    target = make()
    for seed in range(6):
        gens = gen_corpus(target, u0, random.Random(seed), 1 + seed % 3, letter_bound=bound)
        cover = complete_to_cover(fold(wedge(target, u0, gens)), seed=seed)
        for base in sorted({cover.domain.base, max(cover.domain.graph.vertices)}):
            args = schreier_inputs(cover, base)
            assert assert_same_as_reference(args) == check_cover(cover).degree


# -- loops: presentations with definitions and coincidences -------------------

LOOP_TARGETS = {
    "pslz": (make_pslz, "u", 2),
    "dinfty": (make_dinfty, "u", 1),
    "c2c3c2": (make_c2c3c2, "u", 2),
    "rose2": (make_rose2, "o", 1),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(tuple(LOOP_TARGETS)), st.integers(0, 10**6), st.integers(1, 3))
def test_loop_enumerations_match_the_reference(name, seed, count):
    """Loop-fed enumerations define and merge many cosets; a subgroup of
    infinite index must fail to close in both at the same cap."""
    make, u0, bound = LOOP_TARGETS[name]
    target = make()
    loops = gen_corpus(target, u0, random.Random(seed), count, letter_bound=bound)
    presentation, relations = loop_relations(target, u0, loops)
    args = (presentation, u0, [], relations)
    if _closes(reference_enumerate, args, 300) is None:
        assert _closes(verifier._enumerate, args, 300) is None
    else:
        assert_same_as_reference(args)


# -- one-vertex finite groups: the index is |G| / |H| -------------------------


def permutation_group(*gens):
    """The finite group the permutations generate, elements named 1, p1, ..."""
    identity = tuple(range(len(gens[0])))
    perms, seen = [identity], {identity}
    for x in perms:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                perms.append(y)
    name = {p: "1" if p == identity else f"p{i}" for i, p in enumerate(perms)}
    table = {
        name[a]: {name[b]: name[tuple(a[i] for i in b)] for b in perms} for a in perms
    }
    return FiniteGroup([name[p] for p in perms], table)


FINITE = {
    "C7": FiniteGroup.cyclic(7),
    "D5": permutation_group((1, 2, 3, 4, 0), (0, 4, 3, 2, 1)),
    "S3": permutation_group((1, 0, 2), (1, 2, 0)),
    "A4": permutation_group((1, 2, 0, 3), (0, 2, 3, 1)),
}


def closure(group, gens):
    members = [group.identity()]
    for x in members:
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.append(y)
    return members


def _subgroup_generator_lists(group):
    """Every one- and two-element generator list, both orders of each pair:
    a subgroup reached late in the scan makes the enumeration define cosets
    that later coincide in cascades."""
    nontrivial = [x for x in group.elements if not group.is_identity(x)]
    yield []
    for x in nontrivial:
        yield [x]
    for x in nontrivial:
        for y in nontrivial:
            if x != y:
                yield [x, y]


@pytest.mark.parametrize("name, order", [("A4", 12), ("C7", 7), ("D5", 10), ("S3", 6)])
def test_one_vertex_enumerations_give_the_order_over_the_subgroup(name, order):
    group = FINITE[name]
    assert len(group.elements) == order
    graph = Graph()
    graph.add_vertex("o")
    gog = GraphOfGroups(graph, {"o": group}, base="o")
    for gens in _subgroup_generator_lists(group):
        loops = [Word(gog, "o", (x,), ()) for x in gens]
        presentation, relations = loop_relations(gog, "o", loops)
        args = (presentation, "o", [], relations)
        assert assert_same_as_reference(args) == order // len(closure(group, gens)), gens


# -- the cap boundary, pinned -------------------------------------------------


@pytest.mark.parametrize(
    "workload, size, smallest",
    [("pslz-conjugates", 4, 59), ("rose2-random", 20, 73)],
)
def test_crosscheck_closes_at_its_smallest_cap_and_not_one_below(workload, size, smallest):
    """Benchmark instance 0 of seed 1: its cover-fed enumeration closes at
    exactly this cap, as the dict-based enumeration did."""
    target, base, gens, g = perfbench_instance(workload, 1, size, 0)
    cert = separate_element(target, base, gens, g, seed=0)
    assert crosscheck(cert, cap=smallest).ok
    report = crosscheck(cert, cap=smallest - 1)
    assert not report.ok
    assert report.transcript[-2]["detail"] == str(DidNotClose(smallest - 1))
