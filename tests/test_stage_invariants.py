"""Every stage's output is well built, though no stage checks it.

The stages freeze their working copy without validating it, rebuilding
its graph or checking connectivity (see ``morphism._Working``).  These
tests run each stage along ``separate_element``'s path and check its
output with ``assert_well_built``.
"""

import pytest

from gogsep import (
    attach_separating_path,
    complete_to_cover,
    enlarge,
    fold,
    trim_core,
    wedge,
)
from gogsep.morphism import _Working

from conftest import W, assert_well_built, make_pslz
from test_golden import GOLDEN
from test_index_reference import _over_petal


def _pslz_ab(*g):
    """H = <ab> in PSL(2,Z) and the element g."""
    t = make_pslz()
    return t, "u", [W(t, "u", "a", "e", "b", "~e", "1")], W(t, "u", *g)


CASES = {
    **{name: build for name, (build, _) in GOLDEN.items()},
    "pslz-ab-hair": lambda: _pslz_ab("1", "e", "b", "~e", "1"),
    "pslz-ab-loop": lambda: _pslz_ab("a"),  # pads the fiber over u
}


def _stages(target, u0, gens, g):
    """Each stage's output along separate_element's path, by stage name."""
    out = {"wedge": wedge(target, u0, gens)}
    out["fold"] = m = fold(out["wedge"])
    m, status = attach_separating_path(m, m.domain.base, g)
    out[status[0]] = m
    extra = {m.domain.base: [status[1]]} if status[0] == "loop" else None
    out["enlarge"] = m = enlarge(m, extra)
    out["complete"] = complete_to_cover(m, seed=0)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_stage_output_is_well_built(name):
    for stage, m in _stages(*CASES[name]()).items():
        try:
            assert_well_built(m)
        except Exception as exc:
            raise AssertionError(f"{name}: {stage} output is broken") from exc


def test_the_cases_graft_a_hair_and_pad_a_fiber():
    padded, statuses = set(), set()
    for name in sorted(CASES):
        out = _stages(*CASES[name]())
        statuses.update(stage for stage in ("loop", "open", "hair") if stage in out)
        enlarged = out["enlarge"].domain.graph.vertices
        if len(out["complete"].domain.graph.vertices) > len(enlarged):
            padded.add(name)
    assert "hair" in statuses and "loop" in statuses
    assert padded


def test_edits_keep_each_reverse_table_to_its_own_morphism():
    """Dropped pairs leave the reverse table, and a working copy owns its own."""
    # a loop at v1 with the hair v1 - v2 - v3: trimming drops both hair pairs
    hairy = _over_petal(["v1", "v2", "v3"], [("v1", "v1"), ("v1", "v2"), ("v2", "v3")])
    trimmed = trim_core(hairy)
    assert trimmed.domain.graph.vertices == ["v1"]
    assert_well_built(trimmed)
    assert_well_built(hairy)

    t = make_pslz()
    m = wedge(t, "u", [W(t, "u", "1", "e", "b", "~e", "1"), W(t, "u", "1", "e", "b2", "~e", "a")])
    before = dict(m.domain.graph._rev)
    folded = fold(m)  # the two circles' first edges fold, merging v1_1 and v2_1
    assert len(folded.domain.graph.vertices) < len(m.domain.graph.vertices)
    assert_well_built(folded)

    w = _Working.of(m)
    w.drop_pair("c1_2")
    w.add_edge("n1", "v0", "v1_1", "e", "1", "1")
    assert m.domain.graph._rev == before
    assert_well_built(m)
    assert_well_built(w.freeze())
