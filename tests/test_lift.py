import polychow as pc
from conftest import P2, P3, P4, U34, boolean_table, small_family
from oracles import as_polymatroid, direct_sum, literal_lift_rank, restriction


def lift_table(P):
    M = pc.lift(P)
    return [M.rank(S) for S in range(1 << M.n)]


def test_lift_of_p2_is_u23():
    M = pc.lift(pc.Polymatroid(P2))
    assert M.proj.fiber_sizes == (1, 2)
    assert lift_table(pc.Polymatroid(P2)) == [min(bin(S).count("1"), 2) for S in range(8)]


def test_lift_of_p3_is_u34():
    assert lift_table(pc.Polymatroid(P3)) == list(U34)


def test_lift_of_matroid_is_itself():
    P = pc.Polymatroid(U34)
    assert lift_table(P) == list(U34)


def test_rank_equals_the_minimum_over_all_subsets():
    # the lift minimizes over the subsets of pi(S) only; the literal
    # definition minimizes over every subset of the base ground set.  On a
    # free lift such as B(2,2,1)'s, a set with one element per fiber has
    # rank |S| from the A = empty term alone
    tables = [P.rank_table for P in small_family()] + [
        [min(2 * bin(S).count("1"), 5) for S in range(16)],
        boolean_table((2, 2, 1)), [min(bin(S).count("1"), 3) for S in range(32)]]
    for table in tables:
        M = pc.lift(pc.Polymatroid(table))
        for S in range(1 << M.n):
            assert M.rank(S) == literal_lift_rank(M, S), (table, S)


def test_lift_rank_examples():
    M = pc.lift(pc.Polymatroid(P2))
    assert M.rank(0) == 0
    assert M.rank(0b110) == 2    # both elements of the size-2 fiber
    assert M.rank(M.full_mask) == 2


def test_gamma_stable_rank_identity():
    for table in (P2, P3, P4, boolean_table((2, 2))):
        P = pc.Polymatroid(table)
        M = pc.lift(P)
        for A in range(1 << P.n):
            assert M.rank(M.proj.preimages[A]) == P.rank(A)


def test_gamma_invariance_of_rank():
    P = pc.Polymatroid(P3)
    M = pc.lift(P)
    # fibers {0,1} and {2,3}: swapping within a fiber preserves rank
    def swap(S, a, b):
        sa, sb = S >> a & 1, S >> b & 1
        S &= ~(1 << a | 1 << b)
        return S | sa << b | sb << a
    for S in range(16):
        assert M.rank(S) == M.rank(swap(S, 0, 1)) == M.rank(swap(S, 2, 3))


def test_minimality_fiber_ranks():
    for table in (P2, P3, P4):
        M = pc.lift(pc.Polymatroid(table))
        for fm in M.proj.fiber_masks:
            assert M.rank(fm) == bin(fm).count("1")


def test_matroid_axioms_of_lift():
    for table in (P2, P3, P4):
        M = pc.lift(pc.Polymatroid(table))
        full = M.full_mask
        assert M.rank(0) == 0
        for S in range(full + 1):
            for e in range(M.n):
                if not S >> e & 1:
                    step = M.rank(S | 1 << e) - M.rank(S)
                    assert step in (0, 1)
        for a in range(full + 1):
            for b in range(full + 1):
                assert M.rank(a | b) + M.rank(a & b) <= M.rank(a) + M.rank(b)


def test_closure_fiber_dichotomy():
    P = pc.Polymatroid(P3)
    M = pc.lift(P)
    for S in range(16):
        c = M.closure(S)
        for fm in M.proj.fiber_masks:
            assert c & fm in (fm, S & fm)


def test_closure_examples():
    M = pc.lift(pc.Polymatroid(P2))
    assert M.closure(0) == 0
    assert M.closure(0b011) == M.full_mask   # fiber-0 element + one fiber-1 element
    geoms = [S for S in range(8) if geometric_part(M, S) == S]
    for S in geoms:
        C = M.closure(S)
        assert geometric_part(M, C) == C


def geometric_part(M, S_mask):
    """Union of the fibers entirely contained in S."""
    return sum(fm for fm in M.proj.fiber_masks if S_mask & fm == fm)


def test_geometric_part():
    M = pc.lift(pc.Polymatroid(P2))
    assert geometric_part(M, M.full_mask) == M.full_mask
    assert geometric_part(M, 0b010) == 0      # half of the 2-fiber drops out
    for A in range(4):
        pre = M.proj.preimages[A]
        assert geometric_part(M, pre) == pre
    # the geometric flats are the flats equal to their geometric part
    for table in (P2, P3, P4):
        M = pc.lift(pc.Polymatroid(table))
        assert pc.geometric_flat_lattice(M)[1] == tuple(
            F for F in M.flats() if geometric_part(M, F) == F)


def test_geometric_flat_lattice():
    for table in (P2, P3, P4, boolean_table((1, 2))):
        P = pc.Polymatroid(table)
        M = pc.lift(P)
        flats, geo, mapping, isomorphic = pc.geometric_flat_lattice(M)
        assert isomorphic and flats == P.flats() and sorted(mapping.values()) == sorted(geo)
        for f in flats:
            for g in flats:
                assert (f & g == f) == (mapping[f] & mapping[g] == mapping[f])
                assert M.closure(mapping[f] | mapping[g]) == mapping[P.closure(f | g)]


def test_geometric_flats_of_p2():
    M = pc.lift(pc.Polymatroid(P2))
    assert pc.geometric_flat_lattice(M)[1] == (0, 0b001, 0b111)


def closure_commutes_with_preimage(M):
    """The literal isomorphism test: cl_M(pre(A)) = pre(cl_P(A)) at all 2^n
    subsets A of the base ground set."""
    P, pre = M.base, M.proj.preimages
    return all(M.closure(pre[A]) == pre[P.closure(A)] for A in range(1 << P.n))


def test_cover_verdict_equals_the_all_subsets_check():
    # on each genuine lift, and on the same lift truncated to rank r - 1
    # (a matroid whose closure no longer commutes with the preimage)
    verdicts = []
    for P in small_family():
        M = pc.lift(P)
        truncated = pc.lift(pc.Polymatroid(P.rank_table))
        truncated._memo.update({S: min(M.rank(S), M.r - 1) for S in range(1 << M.n)})
        for lifted in (M, truncated):
            isomorphic = pc.geometric_flat_lattice(lifted)[3]
            assert isomorphic == closure_commutes_with_preimage(lifted), (P.rank_table, lifted)
            verdicts.append(isomorphic)
    assert True in verdicts and False in verdicts


def test_flat_rank_geometric_identity():
    M = pc.lift(pc.Polymatroid(P3))
    for F in M.flats():
        geo = geometric_part(M, F)
        assert M.rank(F) == M.rank(geo) + bin(F & ~geo).count("1")


def test_lift_commutes_with_direct_sum():
    P1a = pc.Polymatroid(P2)
    P1b = pc.Polymatroid([0, 2])
    combined = lift_table(direct_sum(P1a, P1b))
    Ma = as_polymatroid(pc.lift(P1a))
    Mb = as_polymatroid(pc.lift(P1b))
    assert combined == list(direct_sum(Ma, Mb).rank_table)


def test_lift_commutes_with_restriction():
    P = pc.Polymatroid(P3)
    M = pc.lift(P)
    for F in P.flats():
        sub_lift = pc.lift(restriction(P, F))
        pre = M.proj.preimages[F]
        els = [i for i in range(M.n) if pre >> i & 1]
        for S in range(1 << len(els)):
            big = 0
            for j, e in enumerate(els):
                if S >> j & 1:
                    big |= 1 << e
            assert sub_lift.rank(S) == M.rank(big)


def test_lift_uniqueness_from_stable_ranks():
    # a multisymmetric matroid is determined by its fiber-union ranks:
    # reconstruct every rank via the flat identity and compare
    P = pc.Polymatroid(P3)
    M = pc.lift(P)
    for S in range(16):
        best = None
        for A in range(4):
            value = P.rank(A) + bin(S & ~M.proj.preimages[A]).count("1")
            best = value if best is None else min(best, value)
        assert M.rank(S) == best
