from collections import Counter
from random import Random

import pytest

import polychow as pc
from conftest import P1, P2, P3, P4, U34, boolean_table
from oracles import bitwise_preimage, direct_sum, restriction


def test_valid_tables():
    for table in (P1, P2, P3, P4, U34):
        pc.Polymatroid(table)


def test_boolean_12_is_valid():
    assert boolean_table((1, 2)) == [0, 1, 2, 3]
    pc.Polymatroid([0, 1, 2, 3])


def test_submodularity_witness():
    with pytest.raises(pc.PolymatroidError) as err:
        pc.Polymatroid([0, 1, 1, 3])
    assert err.value.axiom == "submodularity"
    assert err.value.witness == (1, 2)


def test_normalization_and_looplessness():
    with pytest.raises(pc.PolymatroidError) as err:
        pc.Polymatroid([1, 1])
    assert err.value.axiom == "normalization"
    with pytest.raises(pc.PolymatroidError) as err:
        pc.Polymatroid([0, 0])
    assert err.value.axiom == "looplessness"


def test_monotonicity_witness():
    with pytest.raises(pc.PolymatroidError) as err:
        pc.Polymatroid([0, 2, 2, 1])
    assert err.value.axiom in ("monotonicity", "submodularity")


def test_table_length_must_be_power_of_two():
    with pytest.raises(pc.PolymatroidError):
        pc.Polymatroid([0, 1, 2])


def test_closure():
    P = pc.Polymatroid(P2)
    assert P.closure(0) == 0
    assert P.closure(2) == 3        # {1} has the rank of E
    assert P.closure(1) == 1
    # idempotent, extensive, rank-preserving
    for A in range(4):
        c = P.closure(A)
        assert c & A == A
        assert P.closure(c) == c
        assert P.rank(c) == P.rank(A)


def test_boolean_closure_is_identity():
    B = pc.boolean_polymatroid(pc.ProjectionMap((1, 2)))
    for A in range(4):
        assert B.closure(A) == A


def test_flats():
    assert pc.Polymatroid(P2).flats() == (0, 1, 3)
    assert pc.Polymatroid(P3).flats() == (0, 1, 2, 3)
    B = pc.boolean_polymatroid(pc.ProjectionMap((1, 1, 1, 1)))
    assert len(B.flats()) == 16


def test_flat_lattice_join_meet():
    P = pc.Polymatroid(P3)
    flats = P.flats()
    assert flats[0] == 0 and flats[-1] == 3
    assert P.closure(1 | 2) == 3
    for f in flats:
        for g in flats:
            assert P.closure(f | g) in flats     # the join of two flats
            assert f & g in flats    # the meet of two flats is their intersection


def test_restriction():
    P = pc.Polymatroid(P2)
    R = restriction(P, 1)
    assert R.rank_table == (0, 1)
    assert restriction(pc.Polymatroid(P3), 3).rank_table == tuple(P3)
    with pytest.raises(pc.PolymatroidError):
        restriction(P, 2)


def test_restriction_lattice_is_interval():
    P = pc.Polymatroid(P3)
    for F in P.flats():
        sub = restriction(P, F)
        # reindex the restricted flats back into the original ground set
        els = [i for i in range(P.n) if F >> i & 1]
        back = set()
        for f in sub.flats():
            mask = 0
            for j, e in enumerate(els):
                if f >> j & 1:
                    mask |= 1 << e
            back.add(mask)
        assert back == {g for g in P.flats() if g & F == g}


def test_direct_sum():
    S = direct_sum(pc.Polymatroid([0, 1]), pc.Polymatroid([0, 2]))
    assert S.rank_table == (0, 1, 2, 3)
    P = pc.Polymatroid(P1)
    assert direct_sum(P, P).rank_table == tuple(P4)
    empty = pc.Polymatroid([0])
    assert direct_sum(P, empty).rank_table == tuple(P1)


def test_direct_sum_lattice_is_product():
    A = pc.Polymatroid([0, 1])
    B = pc.Polymatroid([0, 2])
    S = direct_sum(A, B)
    product = {fa | (fb << A.n) for fa in A.flats() for fb in B.flats()}
    assert set(S.flats()) == product


def test_boolean_polymatroid_tables():
    assert boolean_table((1, 1)) == [0, 1, 1, 2]
    assert boolean_table((2,)) == [0, 2]
    B = pc.boolean_polymatroid(pc.ProjectionMap((1, 2)))
    # modular: submodularity holds with equality
    for a in range(4):
        for b in range(4):
            assert B.rank(a | b) + B.rank(a & b) == B.rank(a) + B.rank(b)


def test_projection_map():
    proj = pc.ProjectionMap((1, 2))
    assert proj.n == 2 and proj.m == 3
    assert proj.fiber_masks == (0b001, 0b110)
    assert proj.preimages[0b10] == 0b110
    assert proj.image(0b100) == 0b10
    with pytest.raises(Exception):
        pc.ProjectionMap((0, 1))


def test_preimage_table_is_the_union_of_fibers():
    for sizes in ((1,), (2, 1), (3, 1, 2), (2, 2, 2), (1,) * 6):
        proj = pc.ProjectionMap(sizes)
        assert len(proj.preimages) == 1 << len(sizes)
        assert all(proj.preimages[A] == bitwise_preimage(proj, A)
                   for A in range(1 << len(sizes))), sizes


def value_objects():
    """One instance of each value class, with an attribute it sets."""
    P = pc.Polymatroid(P3)
    proj = pc.ProjectionMap((1, 2))
    pair = pc.ChowPair(pc.maximal_building_set(pc.Polymatroid(P1)))
    return [
        (P, "n"), (proj, "m"), (pc.lift(P), "base"),
        (pc.maximal_building_set(P), "members"),
        (pc.bergman_fan(pc.maximal_building_set(P)), "rays"),
        (pc.nestohedron_class(pair)[0], "rays"), (pc.Polypermutohedron(proj), "vertices"),
    ]


def test_immutability():
    objects = value_objects()
    assert {type(obj).__name__ for obj, _ in objects} == {
        "Polymatroid", "ProjectionMap", "MultisymMatroid", "BuildingSet", "Fan",
        "Polypermutohedron"}
    for obj, attr in objects:
        with pytest.raises(AttributeError, match="%s is immutable" % type(obj).__name__):
            setattr(obj, attr, getattr(obj, attr))
    # memos still fill on the immutable objects
    P = pc.Polymatroid(P3)
    G = pc.maximal_building_set(P)
    assert pc.lift(P) is pc.lift(P)
    assert pc.bergman_fan(G) is pc.bergman_fan(G)


def first_failure_but_submodularity(table):
    """(axiom, witness, message) of the first failure of an axiom other
    than submodularity, in Polymatroid._validate's order, or None."""
    n = len(table).bit_length() - 1
    if table[0] != 0:
        return "normalization", (0,), "rank of the empty set is %d, expected 0" % table[0]
    for a in range(1 << n):
        if table[a] < 0:
            return "nonnegativity", (a,), "rank[%d] < 0" % a
        for i in range(n):
            b = a | (1 << i)
            if b != a and table[a] > table[b]:
                return "monotonicity", (a, b), "monotonicity fails at A=%d, B=%d" % (a, b)
    for i in range(n):
        if table[1 << i] < 1:
            return "looplessness", (1 << i,), "element %d is a loop" % i
    return None


def reference_validation_error(table):
    """Polymatroid._validate written out: (axiom, witness, message) of the
    first failure, or None.  Submodularity is the local test r(A+i) +
    r(A+j) >= r(A+i+j) + r(A) over A, then i < j outside A, and its first
    failure is named by the witness (A+i, A+j)."""
    failure = first_failure_but_submodularity(table)
    if failure:
        return failure
    n = len(table).bit_length() - 1
    for a in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                A, B = a | 1 << i, a | 1 << j
                if a not in (A, B) and table[A | B] + table[a] > table[A] + table[B]:
                    return "submodularity", (A, B), "submodularity fails at A=%d, B=%d" % (A, B)
    return None


def pairwise_validation_error(table):
    """The oracle: the axioms checked as above, but submodularity by the
    O(4^n) scan over all pairs (A, B), which validation used until the
    local test named its own witness."""
    failure = first_failure_but_submodularity(table)
    if failure:
        return failure
    size = len(table)
    for a in range(size):
        for b in range(a + 1, size):
            if table[a | b] + table[a & b] > table[a] + table[b]:
                return "submodularity", (a, b), "submodularity fails at A=%d, B=%d" % (a, b)
    return None


def random_monotone_table(rng, n):
    """Normalized, monotone and loopless, and often not submodular: each
    rank adds a random step to the largest rank one element below."""
    table = [0]
    for a in range(1, 1 << n):
        below = max(table[a & ~(1 << i)] for i in range(n) if a >> i & 1)
        table.append(below + rng.randrange(1 if below == 0 else 0, 3))
    return table


def test_validation_matches_the_pairwise_reference():
    rng = Random(23)
    tables = [random_monotone_table(rng, rng.randint(1, 5)) for _ in range(400)]
    tables += [[0] + [rng.randrange(-1, 4) for _ in range((1 << n) - 1)]
               for n in (1, 2, 3, 4) for _ in range(25)]
    tables += [[min(bin(S).count("1"), r) for S in range(1 << n)]
               for n in range(1, 6) for r in range(1, n + 1)]
    outcomes = Counter()
    for table in tables:
        try:
            pc.Polymatroid(table)
            got = None
        except pc.PolymatroidError as exc:
            got = (exc.axiom, exc.witness, str(exc))
        assert got == reference_validation_error(table), table
        # the pairwise scan refuses the same tables on the same axiom, and
        # each local witness (A, B) breaks submodularity as a pair
        oracle = pairwise_validation_error(table)
        assert (got and got[0]) == (oracle and oracle[0]), table
        if got and got[0] == "submodularity":
            A, B = got[1]
            assert table[A | B] + table[A & B] > table[A] + table[B]
            outcomes["other pair than the oracle's"] += oracle != got
        outcomes[got and got[0]] += 1
    assert outcomes["submodularity"] > 100 and outcomes[None] > 20, outcomes
    assert outcomes["other pair than the oracle's"] > 0, outcomes
