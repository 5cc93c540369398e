"""Acceptance suite: nine end-to-end guarantees, one printed line each.

Every criterion is exact: a single mismatch anywhere fails it.  The
fuzzed corpora are seeded, so runs are reproducible; the independent
oracles (faithful matrix/affine models, Todd-Coxeter, Stallings
automata, brute-force closures) share no code with the pipeline under
test beyond the word type.
"""

import random

from gogsep import (
    FreeGroup,
    ball_map_check,
    brute_member,
    check_cover,
    check_immersion,
    complete_to_cover,
    cover_index,
    crosscheck,
    enlarge,
    enumerate_ball_elements,
    fold,
    kurosh_rank,
    lift_loop,
    reduced_kurosh_rank,
    separate_element,
    subgroup_generate,
    subgroup_member,
    trim_core,
    verify_certificate,
    wedge,
)
from gogsep.errors import InfiniteIndexVertex
from gogsep.jsonio import certificate_to_json, dumps

from conftest import (
    W,
    coset_enumerate,
    gen_corpus,
    make_c2c3c2,
    make_dinfty,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
    remake,
    restriction_check,
    subgroup_generators,
)


def run_criterion(capsys, label, body):
    """Run one criterion, always printing exactly one PASS/FAIL line."""
    failures = []
    detail = ""
    try:
        detail = body(failures) or ""
    except Exception as exc:  # the line must print even on a crash
        failures.append(f"crashed: {exc!r}")
    ok = not failures
    tail = detail if ok else "; ".join(str(f) for f in failures[:3])
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {tail}")
    assert ok, failures[:5]


# -- shared model machinery (criterion 1) ------------------------------------

# PSL(2,Z) acts faithfully for C2*C3: a -> S, b -> U, matrices mod +-I.
_S = (0, -1, 1, 0)
_U = (0, -1, 1, -1)
_I2 = (1, 0, 0, 1)


def _psl_norm(m):
    for x in m:
        if x > 0:
            return m
        if x < 0:
            return tuple(-y for y in m)
    return m


def _psl_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return _psl_norm(
        (
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )
    )


# Dinf acts faithfully on Z by x -> s*x + t: a -> -x, b -> 1 - x.
def _aff_mul(p, q):
    s1, t1 = p
    s2, t2 = q
    return (s1 * s2, s1 * t2 + t1)


def _model_eval(w, images, mul, one):
    val = one
    for i in range(w.n + 1):
        val = mul(val, images[w.vertex_at(i)][w.groups[i]])
    return val


def test_normal_forms_match_faithful_models(capsys):
    def body(failures):
        cases = [
            (
                "C2*C3",
                make_pslz(),
                {
                    "u": {"1": _I2, "a": _S},
                    "w": {"1": _I2, "b": _U, "b2": _psl_mul(_U, _U)},
                },
                _psl_mul,
                _I2,
            ),
            (
                "Dinf",
                make_dinfty(),
                {
                    "u": {"1": (1, 0), "a": (-1, 0)},
                    "w": {"1": (1, 0), "b": (-1, 1)},
                },
                _aff_mul,
                (1, 0),
            ),
        ]
        sizes = []
        for name, gog, images, mul, one in cases:
            # model sanity: the generators satisfy exactly the factor relations
            for v, table in images.items():
                for x, mx in table.items():
                    y = gog.group_at(v).inv(x)
                    if mul(mx, images[v][y]) != one:
                        failures.append(f"{name}: model breaks inverses at {x}")
            ball = enumerate_ball_elements(gog, "u", 6)
            sizes.append(len(ball))
            vals = [_model_eval(w, images, mul, one) for w in ball]
            if len(set(vals)) != len(ball):
                failures.append(
                    f"{name}: distinct reduced loops collide in the model"
                )
            # reduction never moves the value, including through backtracks
            padding = W(gog, "u", "1", "e", "1", "~e", "1")
            for w, val in zip(ball, vals):
                fat = padding * w
                if _model_eval(fat, images, mul, one) != val:
                    failures.append(f"{name}: backtrack changed a value")
                    break
                if fat.reduce().key() != w.key():
                    failures.append(f"{name}: backtrack changed the normal form")
                    break
            # groupoid multiplication agrees with the model, all pairs
            for w1, v1 in zip(ball, vals):
                for w2, v2 in zip(ball, vals):
                    prod = (w1 * w2).reduce()
                    if _model_eval(prod, images, mul, one) != mul(v1, v2):
                        failures.append(f"{name}: product mismatch")
                        break
                else:
                    continue
                break
        return f"{sizes[0]}+{sizes[1]} loops, all pairs, 0 mismatches"

    run_criterion(capsys, "normal forms vs faithful models", body)


# -- criterion 2: immersions embed tree balls, covers match them -------------


def _fuzz_immersion(gog, u0, rng):
    gens = gen_corpus(gog, u0, rng, rng.randint(1, 3), max_edges=4)
    return trim_core(fold(wedge(gog, u0, gens)))


def test_immersions_and_covers_against_tree_balls(capsys):
    def body(failures):
        rng = random.Random(2)
        targets = [(make_pslz(), "u"), (make_dinfty(), "u"), (make_c2c3c2(), "u")]
        immersions = covers = 0
        for i in range(60):
            gog, u0 = targets[i % len(targets)]
            m = _fuzz_immersion(gog, u0, rng)
            if not ball_map_check(m, 3).ok:
                failures.append(f"immersion {i}: tree ball map not injective")
            immersions += 1
            cover = complete_to_cover(enlarge(m), seed=i)
            if not ball_map_check(cover, 3, expect_cover=True).ok:
                failures.append(f"cover {i}: tree ball map not bijective")
            covers += 1
        return f"{immersions} immersions injective, {covers} covers bijective, radius 3"

    run_criterion(capsys, "tree-ball characterization", body)


# -- criterion 3: counting ---------------------------------------------------


def test_cover_degree_counts(capsys):
    def body(failures):
        rng = random.Random(3)
        targets = [
            (make_pslz(), "u"),
            (make_dinfty(), "u"),
            (make_c2c3c2(), "u"),
            (make_rose2(), "o"),
            (make_z2(), "x"),
            (make_f2c2(), "x"),
        ]
        checked = 0
        for i in range(48):
            gog, u0 = targets[i % len(targets)]
            m = _fuzz_immersion(gog, u0, rng)
            cover = complete_to_cover(enlarge(m), seed=i)
            sums = {
                u: sum(cover.vgroup_image[v].index() for v in cover.fiber(u))
                for u in gog.graph.vertices
            }
            if len(set(sums.values())) != 1:
                failures.append(f"cover {i}: vertex fiber sums differ: {sums}")
                continue
            d = next(iter(sums.values()))
            for f in gog.graph.edge_pairs():
                lifts = [
                    e
                    for e in cover.domain.graph.directed_edges
                    if cover.edge_map[e] == f
                ]
                if len(lifts) != d:
                    failures.append(f"cover {i}: edge fiber over {f!r} has wrong size")
            if all(gog.group_at(v).kind == "finite" for v in gog.graph.vertices):
                loops = subgroup_generators(cover, cover.domain.base)
                idx = coset_enumerate(gog, u0, loops)
                if idx != d:
                    failures.append(
                        f"cover {i}: coset enumeration {idx} != fiber sum {d}"
                    )
            checked += 1
        return f"{checked} covers: fiber sums, edge fibers, enumeration agree"

    run_criterion(capsys, "cover degree counting", body)


# -- criterion 4: completion -------------------------------------------------


def test_completion_yields_covers(capsys):
    def body(failures):
        rng = random.Random(4)
        targets = [
            (make_pslz(), "u"),
            (make_dinfty(), "u"),
            (make_c2c3c2(), "u"),
            (make_rose2(), "o"),
            (make_z2(), "x"),
            (make_f2c2(), "x"),
        ]
        done = 0
        for i in range(200):
            gog, u0 = targets[i % len(targets)]
            m = _fuzz_immersion(gog, u0, rng)
            m = enlarge(m)
            expected = max(
                sum(m.vgroup_image[v].index() for v in m.fiber(u))
                for u in gog.graph.vertices
            )
            cover = complete_to_cover(m, seed=i)
            if not check_cover(cover).ok:
                failures.append(f"instance {i}: completion is not a cover")
            if cover_index(cover) != expected:
                failures.append(f"instance {i}: degree != max fiber sum")
            if not cover.domain.graph.is_connected():
                failures.append(f"instance {i}: cover graph disconnected")
            if not restriction_check(m, cover).ok:
                failures.append(f"instance {i}: immersion moved inside the cover")
            done += 1
        return f"{done}/200 immersions completed to verified covers"

    run_criterion(capsys, "completion to finite covers", body)


# -- criterion 5: enlargement ------------------------------------------------


def test_enlargement_preserves_immersions(capsys):
    def body(failures):
        rng = random.Random(5)
        targets = [
            (make_pslz(), "u"),   # finite vertex oracles
            (make_z2(), "x"),     # integer oracles
            (make_f2c2(), "x"),   # free (plus finite) oracles
        ]
        done = 0
        for i in range(200):
            gog, u0 = targets[i % len(targets)]
            m = _fuzz_immersion(gog, u0, rng)
            big = enlarge(m)
            if not check_immersion(big).ok:
                failures.append(f"instance {i}: enlargement broke the immersion")
            bad = [
                v
                for v in big.domain.graph.vertices
                if big.vgroup_image[v].index() is None
            ]
            if bad:
                failures.append(f"instance {i}: infinite index left at {bad}")
            done += 1

        # negative control: skipping the exclusion set breaks an immersion
        z2 = make_z2()
        m = fold(
            wedge(
                z2,
                "x",
                [
                    W(z2, "x", "0", "e", "1", "~e", "0"),
                    W(z2, "x", "1", "e", "1", "~e", "-1"),
                ],
            )
        )
        naive = remake(
            m,
            vgroup_image={**m.vgroup_image, "v0": z2.group_at("x").full_subgroup()}
        )
        if check_immersion(naive).ok:
            failures.append("negative control: naive enlargement stayed an immersion")
        return f"{done}/200 enlarged immersions intact, negative control breaks"

    run_criterion(capsys, "separability-driven enlargement", body)


# -- criterion 6: end-to-end separation --------------------------------------


def test_separation_end_to_end(capsys):
    def body(failures):
        rng = random.Random(6)
        targets = [
            (make_pslz(), "u", 4),
            (make_dinfty(), "u", 4),
            (make_c2c3c2(), "u", 2),
        ]
        done = 0
        cases = {"loop": 0, "non-loop": 0}
        while done < 100:
            gog, u0, glen = targets[done % len(targets)]
            gens = gen_corpus(gog, u0, rng, rng.randint(1, 2), max_edges=glen)
            g = gen_corpus(gog, u0, rng, 1, max_edges=4)[0]
            if brute_member(gog, u0, gens, g, pad=4):
                continue
            probe = trim_core(fold(wedge(gog, u0, gens)))
            outcome = lift_loop(probe, g, probe.domain.base)
            cases["loop" if outcome.case == "closed" else "non-loop"] += 1
            cert = separate_element(gog, u0, gens, g, seed=done)
            if not verify_certificate(cert).ok:
                failures.append(f"instance {done}: certificate failed verification")
            for w in gens:
                if not subgroup_member(cert.cover, cert.base_vertex, w):
                    failures.append(f"instance {done}: generator fell out of the cover")
            if subgroup_member(cert.cover, cert.base_vertex, g):
                failures.append(f"instance {done}: element stayed inside")
            if not (isinstance(cert.degree, int) and cert.degree >= 1):
                failures.append(f"instance {done}: degree not a positive int")
            done += 1
        if not cases["loop"] or not cases["non-loop"]:
            failures.append(f"corpus missed a lift case: {cases}")
        return (
            f"{done}/100 certificates verified "
            f"({cases['loop']} closed-lift, {cases['non-loop']} run-off cases)"
        )

    run_criterion(capsys, "element-vs-subgroup separation", body)


# -- criterion 7: Kurosh rank over Z*Z ---------------------------------------


def test_kurosh_rank_of_z2_covers(capsys):
    def body(failures):
        z2 = make_z2()
        covers = []
        schreier = fold(
            wedge(
                z2,
                "x",
                [
                    W(z2, "x", "2"),
                    W(z2, "x", "0", "e", "1", "~e", "0"),
                    W(z2, "x", "1", "e", "1", "~e", "-1"),
                ],
            )
        )
        covers.append(schreier)
        rng = random.Random(7)
        while len(covers) < 20:
            m = _fuzz_immersion(z2, "x", rng)
            covers.append(complete_to_cover(enlarge(m), seed=len(covers)))
        for i, cover in enumerate(covers):
            d = cover_index(cover)
            if reduced_kurosh_rank(cover) != d * 1:  # reduced rank of Z*Z is 1
                failures.append(
                    f"cover {i}: reduced rank {reduced_kurosh_rank(cover)} != degree {d}"
                )
        if cover_index(schreier) != 2 or kurosh_rank(schreier) != 3:
            failures.append("index-2 Schreier instance lost its rank-3 shape")
        return "20 covers: reduced rank = degree, incl. index-2 rank-3 instance"

    run_criterion(capsys, "Kurosh rank of finite covers", body)


# -- criterion 8: against the free-group automaton pipeline ------------------


def _free_word(F, w):
    letter = {"x": 1, "y": 2}
    out = F.identity()
    for i in range(w.n + 1):
        k = w.groups[i]
        sign = letter[w.vertex_at(i)] if k >= 0 else -letter[w.vertex_at(i)]
        out = F.mul(out, (sign,) * abs(k))
    return out


def test_against_stallings_automata(capsys):
    def body(failures):
        z2 = make_z2()
        F = FreeGroup(2)
        rng = random.Random(8)
        done = 0
        finite_indices = 0
        for i in range(100):
            gens = gen_corpus(z2, "x", rng, rng.randint(1, 3), max_edges=4)
            w = gen_corpus(z2, "x", rng, 1, max_edges=6, letter_bound=3)[0]
            m = trim_core(fold(wedge(z2, "x", gens)))
            free_sub = subgroup_generate(F, [_free_word(F, g) for g in gens])
            if subgroup_member(m, m.domain.base, w) != free_sub.member(_free_word(F, w)):
                failures.append(f"instance {i}: membership answers disagree")
            try:
                gog_index = cover_index(m) if check_cover(m).ok else None
            except InfiniteIndexVertex:
                gog_index = None
            if gog_index != free_sub.index():
                failures.append(
                    f"instance {i}: index {gog_index} vs automaton {free_sub.index()}"
                )
            if gog_index is not None:
                finite_indices += 1
            done += 1
        return (
            f"{done}/100 membership+index agreements "
            f"({finite_indices} finite-index instances)"
        )

    run_criterion(capsys, "Z*Z vs Stallings automata", body)


# -- criterion 9: the flagship run -------------------------------------------


def test_flagship_worked_example(capsys):
    def body(failures):
        pslz = make_pslz()
        ab = W(pslz, "u", "a", "e", "b", "~e", "1")
        a = W(pslz, "u", "a")
        one = separate_element(pslz, "u", [ab], a, seed=0)
        two = separate_element(pslz, "u", [ab], a, seed=0)
        if one.degree != 3:
            failures.append(f"degree {one.degree}, expected 3")
        if not verify_certificate(one).ok:
            failures.append("certificate failed verification")
        if not crosscheck(one, radius=3).ok:
            failures.append("certificate failed the independent crosscheck")
        if dumps(certificate_to_json(one)) != dumps(certificate_to_json(two)):
            failures.append("same seed produced different certificates")
        return "C2*C3, H=<ab>, g=a: degree-3 cover, bit-identical rerun"

    run_criterion(capsys, "flagship worked example", body)
