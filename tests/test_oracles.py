import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import (
    FiniteGroup,
    FreeGroup,
    IntGroup,
    oracle_from_json,
    subgroup_generate,
)
from gogsep import oracles
from gogsep.errors import (
    ForeignElement,
    GogsepError,
    InfiniteIndex,
    NotSeparated,
    SchemaError,
)

from conftest import canonical_key
from test_free_fold_reference import reference_core


# -- finite kind -------------------------------------------------------------


def test_cyclic_table_and_ops():
    g = FiniteGroup.cyclic(6, "a")
    assert len(g.elements) == 6
    assert g.identity() == "1"
    assert g.mul("a2", "a5") == "a"
    assert g.inv("a2") == "a4"
    with pytest.raises(ForeignElement):
        g.check("zz")


def test_table_validation_rejects_garbage():
    with pytest.raises(GogsepError):
        FiniteGroup(["1", "a"], {"1": {"1": "1", "a": "a"}})
    # non-associative magma with an identity
    els = ["1", "a", "b"]
    table = {
        "1": {"1": "1", "a": "a", "b": "b"},
        "a": {"1": "a", "a": "1", "b": "b"},
        "b": {"1": "b", "a": "b", "b": "a"},
    }
    with pytest.raises(GogsepError):
        FiniteGroup(els, table)


def test_max_order_cap():
    with pytest.raises(GogsepError):
        FiniteGroup.cyclic(65)


def test_cyclic_checks_the_cap_before_building_its_table(monkeypatch):
    """Every range() in oracles is recorded; an order past the cap must
    raise before the names or the n x n table are built."""
    ranges = []

    def recorded(*args):
        ranges.append(args)
        return range(*args)

    monkeypatch.setattr(oracles, "range", recorded, raising=False)
    with pytest.raises(GogsepError, match="finite group order 600 exceeds cap 64"):
        FiniteGroup.cyclic(600)
    assert ranges == []
    assert len(FiniteGroup.cyclic(3).elements) == 3 and ranges


def test_finite_subgroup_closure_and_cosets():
    g = FiniteGroup.cyclic(6, "a")
    h = subgroup_generate(g, ["a2"])
    assert sorted(h.members) == ["1", "a2", "a4"]
    assert h.index() == 2
    reps = h.coset_reps()
    assert reps[0] == "1" and len(reps) == 2
    assert h.coset_key("a3") == h.coset_key("a5")
    assert h.coset_key("a") == h.coset_key("a3")
    assert h.coset_key("a") != h.coset_key("a2")


def test_finite_separate_is_identity_or_fails():
    g = FiniteGroup.cyclic(6, "a")
    h = subgroup_generate(g, ["a2"])
    assert h.separate(["a"]) is h
    with pytest.raises(NotSeparated):
        h.separate(["a4"])


def test_finite_conjugated_subgroup():
    g = FiniteGroup.cyclic(6, "a")
    h = subgroup_generate(g, ["a3"])
    # abelian: conjugation fixes the subgroup
    assert canonical_key(h.conjugated("a")) == canonical_key(h)


# -- integer kind ------------------------------------------------------------


def test_int_subgroup_gcd_and_cosets():
    g = IntGroup()
    h = subgroup_generate(g, [6, 10])
    assert h.modulus == 2
    assert h.member(-4) and not h.member(3)
    assert h.coset_reps() == [0, 1]
    assert h.coset_key(-3) == 1
    triv = subgroup_generate(g, [])
    assert triv.index() is None
    with pytest.raises(InfiniteIndex):
        triv.coset_reps()


def test_int_separate_picks_the_least_modulus_that_separates():
    g = IntGroup()
    triv = subgroup_generate(g, [])
    k = triv.separate([3, -5])
    assert k.modulus == 2
    assert not any(k.member(x) for x in (3, -5))
    assert triv.separate([]).index() == 1
    assert triv.separate([6, -10, 15]).modulus == 4
    assert triv.separate([10**12]).index() == 3
    h = subgroup_generate(g, [4])
    assert h.separate([2]) is h
    with pytest.raises(NotSeparated):
        h.separate([8])


def test_int_parse_and_format():
    g = IntGroup()
    assert g.parse_element("-17") == -17
    assert g.parse_element(3) == 3
    assert g.format_element(-2) == "-2"
    with pytest.raises(ForeignElement):
        g.parse_element("x")
    with pytest.raises(ForeignElement):
        g.check(True)


@pytest.mark.parametrize("text", ["²", "١٢", "+-5", "1_000", ""])
def test_int_parse_accepts_ascii_decimals_only(text):
    with pytest.raises(ForeignElement, match="is not a decimal integer"):
        IntGroup().parse_element(text)


# -- free kind ---------------------------------------------------------------


def test_free_parse_format_round_trip():
    g = FreeGroup(2)
    x = g.parse_element("x1.x2-.x1")
    assert x == (1, -2, 1)
    assert g.format_element(x) == "x1.x2-.x1"
    assert g.parse_element("1") == ()
    with pytest.raises(ForeignElement):
        g.parse_element("x1.x1-")
    with pytest.raises(ForeignElement):
        g.parse_element("x3")
    assert g.parse_element("x01.x2-") == (1, -2)
    with pytest.raises(ForeignElement, match="is not reduced"):
        g.parse_element("x2.x1.x1-")
    with pytest.raises(ForeignElement, match="5000 digits is too long"):
        g.parse_element("x" + "1" * 5000)


@pytest.mark.parametrize("text", ["x²", "x١", "x1.x١", "x", "x1..x2", "x1-."])
def test_free_parse_accepts_ascii_letter_numbers_only(text):
    with pytest.raises(ForeignElement, match="bad syllable"):
        FreeGroup(2).parse_element(text)


def test_free_mul_reduces():
    g = FreeGroup(2)
    a = g.parse_element("x1.x2")
    assert g.mul(a, g.inv(a)) == ()
    assert g.mul((1, 2), (-2, 1)) == (1, 1)


def test_free_subgroup_membership_and_index():
    g = FreeGroup(2)
    h = subgroup_generate(g, [(1, 1)])  # <x^2>
    assert h.member((1, 1)) and h.member((-1, -1, -1, -1))
    assert not h.member((1,))
    assert h.index() is None
    full = subgroup_generate(g, [(1,), (2,)])
    assert full.index() == 1


def test_free_separate_builds_finite_index_overgroup():
    g = FreeGroup(2)
    h = subgroup_generate(g, [(1, 1)])
    k = h.separate([(1,)])
    assert k.index() is not None
    assert k.member((1, 1))
    assert not k.member((1,))
    # conjugate generator, exclude the conjugated-away element
    h2 = subgroup_generate(g, [(1, 2, -1)])
    k2 = h2.separate([(2,)])
    assert k2.member((1, 2, -1)) and not k2.member((2,))
    assert k2.index() is not None
    with pytest.raises(NotSeparated):
        h.separate([(1, 1, 1, 1)])


def _free_words(rank, max_size):
    letters = [k for k in range(-rank, rank + 1) if k]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(
        lambda w: FreeGroup(rank).mul((), tuple(w))
    )


@st.composite
def free_separations(draw):
    rank = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(_free_words(rank, 5), max_size=3))
    excluded = draw(st.lists(_free_words(rank, 6), max_size=3))
    return rank, gens, excluded


@settings(max_examples=80, deadline=None, derandomize=True)
@given(free_separations())
def test_free_separate_equals_a_refold_of_its_generators(case):
    rank, gens, excluded = case
    g = FreeGroup(rank)
    h = subgroup_generate(g, gens)
    excluded = [x for x in excluded if not h.member(x)]
    k = h.separate(excluded)
    refold = subgroup_generate(g, k.generators)
    assert (k.rows, k.generators) == (refold.rows, refold.generators)
    assert canonical_key(k) == canonical_key(refold)
    assert k.index() is not None
    assert not any(k.member(x) for x in excluded)


def test_free_schreier_index_formula():
    g = FreeGroup(2)
    # index-2 subgroup <x^2, y, xyx^-1>: rank 3 by Nielsen-Schreier
    h = subgroup_generate(g, [(1, 1), (2,), (1, 2, -1)])
    assert h.index() == 2
    assert len(h.coset_reps()) == 2
    assert h.coset_key((1, 2)) == h.coset_key((1,))


def test_free_canonical_key_is_presentation_independent():
    g = FreeGroup(2)
    a = subgroup_generate(g, [(1,)])
    b = subgroup_generate(g, [(-1,)])
    assert canonical_key(a) == canonical_key(b)
    c = subgroup_generate(g, [(2,)])
    assert canonical_key(a) != canonical_key(c)


# -- JSON ingestion ----------------------------------------------------------


C2_DOC = {
    "kind": "finite",
    "elements": ["1", "a"],
    "table": {"1": {"1": "1", "a": "a"}, "a": {"1": "a", "a": "1"}},
}


def test_oracle_from_json_kinds():
    assert oracle_from_json({"kind": "integer"}).kind == "integer"
    assert oracle_from_json({"kind": "free", "rank": 2}).rank == 2
    g = oracle_from_json({"kind": "cyclic", "order": 3, "letter": "b"})
    assert g.elements == ["1", "b", "b2"]
    assert len(oracle_from_json(C2_DOC).elements) == 2


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"kind": "nope"}, "$.kind"),
        ({"kind": "cyclic", "order": 0}, "$.order"),
        ({"kind": "finite"}, "$"),
        ({"kind": "free", "rank": "two"}, "$.rank"),
        ("not a dict", "$"),
        ({"kind": "cyclic", "order": True}, "$.order"),
        ({"kind": "cyclic", "order": 2, "letter": 5}, "$.letter"),
        ({"kind": "cyclic", "order": 2, "letter": "1"}, "$.letter"),
        ({"kind": "cyclic", "order": 2, "letter": ""}, "$.letter"),
        ({"kind": "cyclic", "order": 2, "name": 3}, "$.name"),
        ({**C2_DOC, "elements": [[1]]}, "$.elements"),
        ({**C2_DOC, "elements": "1a"}, "$.elements"),
        ({**C2_DOC, "elements": ["1", ""]}, "$.elements"),
        ({**C2_DOC, "table": []}, "$.table"),
        ({**C2_DOC, "table": {"a": ["a"]}}, "$.table"),
        ({**C2_DOC, "table": {"1": {"1": 1}}}, "$.table"),
        ({**C2_DOC, "name": 3}, "$.name"),
    ],
)
def test_oracle_from_json_schema_errors(doc, needle):
    with pytest.raises(SchemaError) as err:
        oracle_from_json(doc)
    assert needle in str(err.value)


# -- coset keys --------------------------------------------------------------


COSET_KEY_CASES = {
    "C6 <a2>": (FiniteGroup.cyclic(6, "a"), ["a2"], None),
    "Z 3Z": (IntGroup(), [3], 7),
    "Z 0Z": (IntGroup(), [], 7),
    "F2 index 2": (FreeGroup(2), [(1, 1), (2,), (1, 2, -1)], 3),
    "F2 <x1^2>": (FreeGroup(2), [(1, 1)], 3),
}


def _elements_within(group, bound):
    """Every table element, the integers in [-bound, bound], or the reduced
    free words of length at most bound."""
    if group.kind == "finite":
        return list(group.elements)
    if group.kind == "integer":
        return list(range(-bound, bound + 1))
    letters = [l for k in range(1, group.rank + 1) for l in (k, -k)]
    words = [()]
    for w in words:  # grows while it is read: breadth first by length
        if len(w) < bound:
            words.extend(w + (l,) for l in letters if not (w and w[-1] == -l))
    return words


def _reference_member(h, gens):
    """Membership without coset keys: the table closure, divisibility by
    the gcd of gens, or a trace through the naively folded core."""
    if h.group.kind == "finite":
        return lambda x: x in h.members
    if h.group.kind == "integer":
        m = math.gcd(*gens)
        return lambda x: x % m == 0 if m else x == 0
    _, delta = reference_core(h.group.rank, gens)

    def trace(w):
        s = 0
        for l in w:
            s = delta.get((s, l))
            if s is None:
                return False
        return s == 0

    return trace


@pytest.mark.parametrize("name", sorted(COSET_KEY_CASES))
def test_coset_key_equal_exactly_on_right_cosets(name):
    """Keys match exactly when a * b^-1 lies in S, and so member(g), which
    compares g's key with the identity's, is membership, by references that
    use no coset key."""
    group, gens, bound = COSET_KEY_CASES[name]
    h = subgroup_generate(group, gens)
    member = _reference_member(h, gens)
    elements = _elements_within(group, bound)
    keys = {a: h.coset_key(a) for a in elements}
    for a in elements:
        assert h.member(a) == member(a), a
        for b in elements:
            same = member(group.mul(a, group.inv(b)))
            assert (keys[a] == keys[b]) == same, (a, b)
    if h.index() is not None:  # the elements meet every coset
        assert len(set(keys.values())) == h.index()
        # completion keys its slots by the transversal's keys
        rep_keys = [h.coset_key(r) for r in h.coset_reps()]
        assert len(set(rep_keys)) == len(rep_keys) == h.index()
        assert set(rep_keys) == set(keys.values())


def test_subgroup_kinds_implement_only_coset_key():
    """Membership and triviality are shared, derived from coset_key and
    the generators; no kind carries its own, nor an equality."""
    derived = {"member", "is_trivial", "canonical_key", "trace", "__eq__", "__hash__"}
    for kind in (oracles.FiniteSubgroup, oracles.IntSubgroup, oracles.FreeSubgroup):
        assert "coset_key" in vars(kind)
        assert not derived & set(vars(kind)), kind


def test_free_coset_key_reads_off_the_core():
    h = subgroup_generate(FreeGroup(2), [(1, 1)])  # <x1^2>: a 2-state core
    assert h.coset_key((1, 1, 1)) == h.coset_key((1,)) == (1, ())
    assert h.coset_key((1, 2, -1)) == (1, (2, -1))  # leaves the core at x2
    assert h.coset_key((1, 1, 2)) == h.coset_key((2,)) == (0, (2,))
