"""Free subgroup cores against a naive Stallings fold.

``FreeSubgroup`` reads each generator through the automaton folded so far
and lays new states only on the part it cannot read.  The reference below
is the textbook construction: one fresh path per generator, all folded at
the end, then trimmed to the core and numbered by BFS from the base in
letter order 1, -1, 2, -2, ...  The folded core of a generating set is
unique, so both must give the same numbered core.  The index, coset
representatives and coset keys are then read off the reference core.
"""

from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gogsep import FreeGroup
from gogsep.errors import InfiniteIndex


def _letters(rank):
    for k in range(1, rank + 1):
        yield k
        yield -k


def reference_core(rank, gens):
    """(size, {(state, letter): state}) of the core of <gens> in F_rank."""
    # transitions (s, l, t), each with its reverse (t, -l, s)
    edges = set()
    states = 1
    for g in gens:
        s = 0
        for i, l in enumerate(g):
            t = 0 if i == len(g) - 1 else states
            states += t != 0
            edges |= {(s, l, t), (t, -l, s)}
            s = t
    # fold: merge two l-targets of one state until there are none
    while True:
        first = {}
        clash = next(
            ((first[s, l], t) for s, l, t in sorted(edges)
             if first.setdefault((s, l), t) != t),
            None,
        )
        if clash is None:
            break
        keep, gone = sorted(clash)
        edges = {
            (keep if s == gone else s, l, keep if t == gone else t)
            for s, l, t in edges
        }
    # trim: drop non-base states with at most one transition, cascading
    while True:
        valence = Counter(s for s, _, _ in edges)
        leaves = {s for s, n in valence.items() if s != 0 and n <= 1}
        if not leaves:
            break
        edges = {e for e in edges if e[0] not in leaves and e[2] not in leaves}
    # number states by BFS from the base
    trans = {(s, l): t for s, l, t in edges}
    number = {0: 0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for l in _letters(rank):
            t = trans.get((s, l))
            if t is not None and t not in number:
                number[t] = len(number)
                queue.append(t)
    return len(number), {(number[s], l): number[t] for (s, l), t in trans.items()}


def _reduce(w):
    out = []
    for l in w:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@st.composite
def generating_sets(draw):
    """Random words plus words built from them: repeats, inverses, products
    (already in the subgroup, so the two reads of one meet at one state)
    and splices of a prefix of one generator onto a suffix of another (the
    reads mostly meet at two different states)."""
    rank = draw(st.integers(1, 3))
    letters = list(_letters(rank))
    words = st.lists(st.sampled_from(letters), max_size=6).map(_reduce)
    gens = draw(st.lists(words, max_size=4))
    for _ in range(draw(st.integers(0, 4)) if gens else 0):
        a, b = (draw(st.sampled_from(gens)) for _ in range(2))
        how = draw(st.sampled_from(["repeat", "inverse", "product", "splice"]))
        if how == "repeat":
            gens.append(a)
        elif how == "inverse":
            gens.append(_reduce(-l for l in reversed(a)))
        elif how == "product":
            gens.append(_reduce(a + b))
        else:
            i = draw(st.integers(0, len(a)))
            j = draw(st.integers(0, len(b)))
            gens.append(_reduce(a[:i] + b[j:]))
    return rank, gens


@settings(max_examples=300, deadline=None, derandomize=True)
@given(generating_sets())
# reads meet at one state: x1.x2 is read whole, x2-.x1- backward
@example((2, [(1, 2), (1, 2), (-2, -1)]))
# reads meet at two states: x1 reads to the middle of x1.x1, which must close
@example((1, [(1, 1), (1,)]))
# x1.x2 then x1.x2-: the forward read stops after x1, the backward read at 0
@example((2, [(1, 2), (1, -2), (2, 1, 2, -1)]))
def test_free_subgroup_core_matches_a_naive_fold(case):
    rank, gens = case
    h = FreeGroup(rank).subgroup(gens)
    # folding alone gives the core: no state but the base is a leaf
    assert all(len(row) >= 2 for row in h.rows[1:])
    trans = {(s, l): t for s, row in enumerate(h.rows) for l, t in row.items()}
    assert (len(h.rows), trans) == reference_core(rank, gens)


def reference_trace(trans, g):
    """(state where reading g from the base stops, unread suffix of g)."""
    s = 0
    for i, l in enumerate(g):
        t = trans.get((s, l))
        if t is None:
            return (s, g[i:])
        s = t
    return (s, ())


def assert_matches_reference(h, rank, words):
    size, trans = reference_core(rank, h.generators)
    # finite index exactly when every state reads all 2*rank letters
    complete = len(trans) == 2 * rank * size
    assert h.index() == (size if complete else None)
    if complete:
        # the i-th representative reads from the base to state i
        reps = h.coset_reps()
        assert [reference_trace(trans, r) for r in reps] == [(s, ()) for s in range(size)]
        assert h.coset_reps(limit=2) == reps[:2]
    else:
        with pytest.raises(InfiniteIndex):
            h.coset_reps()
    for g in words:
        assert h.coset_key(g) == reference_trace(trans, g)


@st.composite
def subgroups_and_words(draw):
    rank, gens = draw(generating_sets())
    letters = list(_letters(rank))
    words = st.lists(st.sampled_from(letters), max_size=8).map(_reduce)
    return rank, gens, draw(st.lists(words, max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subgroups_and_words())
@example((0, [], [()]))  # F0: the trivial group is its own subgroup, index 1
@example((1, [(1,)], [(1, 1), (-1,)]))  # all of F1
@example((2, [(1,)], [(2,), (1, 2, -1)]))  # <x1> in F2: infinite index
def test_free_subgroup_index_reps_and_keys_match_the_reference(case):
    rank, gens, words = case
    h = FreeGroup(rank).subgroup(gens)
    assert_matches_reference(h, rank, words)
    # the overgroup separate builds, checked against the fold of its generators
    k = h.separate([x for x in words if not h.member(x)])
    assert k.index() is not None
    assert_matches_reference(k, rank, words)
