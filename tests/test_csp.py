import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete, from_edges, path, random_clique_union
from midsolve import csp
from midsolve.csp import (CspError, CspInstance, encode, solve_binary,
                          solve_clique_union, split_to_binary)
from midsolve.graph import MarkedGraph, bits, plain_graph
from midsolve.oracle import check_ids, exhaustive_mids
from midsolve.solution import INFEASIBLE, Solution
from midsolve.solver import solve


def brute_force_assignments(inst):
    """The satisfying assignments, in ``itertools.product`` order, by direct
    enumeration of the product."""
    literals = [[(i, val) for val in dom] for i, dom in enumerate(inst.domains)]
    for combo in itertools.product(*literals):
        if not any(map(set(combo).isdisjoint, inst.constraints)):
            yield dict(combo)


def product_order_witnesses(domains, constraints):
    """The witness masks of a mask instance, in ``itertools.product`` order
    over each domain's bits, ascending, by direct enumeration."""
    for combo in itertools.product(*([1 << i for i in bits(d)] for d in domains)):
        witness = sum(combo)
        if all(c & witness for c in constraints):
            yield witness


@st.composite
def csp_instances(draw, spill=0):
    """1-6 variables with domains of size 1-4 and up to 6 constraints of 0-4
    literals each; a literal's value may exceed its domain by ``spill``."""
    n = draw(st.integers(1, 6))
    domains = tuple(tuple(range(1, draw(st.integers(1, 4)) + 1))
                    for _ in range(n))
    literal = st.integers(0, n - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(1, len(domains[i]) + spill)))
    constraints = draw(st.lists(st.frozensets(literal, max_size=4), max_size=6))
    return CspInstance(domains, tuple(constraints))


def product_split(inst):
    """The split built all at once, one restriction per member of the
    product of the parts: the family the depth-first walk must reproduce."""
    used = frozenset().union(*inst.constraints)
    parts = []
    for var, dom in enumerate(inst.domains):
        if len(dom) > 2:
            parts.append([(var, part, {lit for lit in used if lit[0] == var
                                       and (len(part) == 1 or lit[1] not in part)})
                          for part in (dom[k:k + 2] for k in range(0, len(dom), 2))])
    out = []
    for choice in itertools.product(*parts):
        domains = list(inst.domains)
        for var, part, _ in choice:
            domains[var] = part
        satisfied = {(var, part[0]) for var, part, _ in choice if len(part) == 1}
        ruled_out = set().union(*(dead for _, _, dead in choice))
        out.append(CspInstance(tuple(domains),
                               tuple(c - ruled_out for c in inst.constraints
                                     if satisfied.isdisjoint(c))))
    return out


@st.composite
def mask_instances(draw, widest):
    """``(domains, constraints)`` on masks: 1-6 domains of 1 to ``widest``
    bits at drawn positions, so that a domain's bits need not be adjacent,
    and up to 6 constraints of 0-4 bits, which may name the one bit no
    domain holds."""
    sizes = draw(st.lists(st.integers(1, widest), min_size=1, max_size=6))
    spare = sum(sizes)
    order = draw(st.permutations(range(spare + 1)))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    domains = [sum(1 << b for b in order[k:k + size])
               for k, size in zip(starts, sizes)]
    constraint = st.sets(st.integers(0, spare), max_size=4).map(
        lambda s: sum(1 << b for b in s))
    return domains, draw(st.lists(constraint, max_size=6))


def literal_encoding(g):
    """The clique union as a literal instance, read through the graph's
    public methods, and its cliques: variable i is the i-th free component
    by smallest member, value j its j-th smallest vertex, and there is one
    constraint per marked vertex, in ascending order."""
    cliques = [sorted(c) for c in g.free_components()]
    literal = {v: (i, j) for i, clique in enumerate(cliques)
               for j, v in enumerate(clique, 1)}
    constraints = tuple(frozenset(literal[v] for v in g.neighbors(u) if v in literal)
                        for u in sorted(g.marked))
    return CspInstance(tuple(tuple(range(1, len(c) + 1)) for c in cliques),
                       constraints), cliques


def eager_endgame(g):
    """The endgame as one pass over the whole split, none cut, on literals
    and without the package's encoding or binary solver: the first
    product-order solution of the first satisfiable member of
    ``split_to_binary``."""
    inst, cliques = literal_encoding(g)
    for sub in split_to_binary(inst):
        if all(sub.constraints):  # an empty constraint: no solution to look for
            for assignment in brute_force_assignments(sub):
                witness = {cliques[i][val - 1] for i, val in assignment.items()}
                return Solution.found(len(witness), witness)
    return INFEASIBLE


def clique_union_of(inst):
    """The marked graph that ``literal_encoding`` maps to ``inst`` (every
    literal in its domain), and the vertex of each literal: clique i has one
    vertex per value, in value order, and constraint j is a marked vertex
    adjacent to its literals' vertices."""
    vertex = {lit: v for v, lit in enumerate(
        (i, val) for i, dom in enumerate(inst.domains) for val in dom)}
    edges = [(vertex[i, a], vertex[i, b]) for i, dom in enumerate(inst.domains)
             for a, b in itertools.combinations(dom, 2)]
    marked = range(len(vertex), len(vertex) + len(inst.constraints))
    edges += [(m, vertex[lit]) for m, c in zip(marked, inst.constraints)
              for lit in c]
    return MarkedGraph(range(len(vertex)), marked, edges), vertex


def restricting_walk(domains, constraints):
    """The cut split's leaves as ``(domains, constraints)``, each prefix
    restricting the constraints its parent left: a one-bit part drops the
    constraints it hits, the others lose the variable's values outside the
    part, and a prefix that empties one is cut.  The reference for the part
    steps of ``solve_binary``."""
    wide = [var for var, d in enumerate(domains) if d.bit_count() > 2]
    if not wide:
        yield domains, constraints
        return
    var, d = wide[0], domains[wide[0]]
    b = bits(d)
    for part in (sum(1 << i for i in b[k:k + 2]) for k in range(0, len(b), 2)):
        fixed = 0 if part & (part - 1) else part
        sub = [c & ~(d ^ part) for c in constraints if not c & fixed]
        if all(sub):
            yield from restricting_walk(domains[:var] + [part] + domains[var + 1:], sub)


def bench_clique_union(k, marked, seed):
    """``clique_union(k, marked, seed)`` of the benchmark's clique-endgame
    pool (perfbench/workloads.py), rebuilt from the same random stream: k
    disjoint 3- or 4-cliques and marked vertices that each see one vertex
    of 3 or 4 distinct cliques."""
    rng = random.Random(seed)
    edges, cliques, v = [], [], 1
    for _ in range(k):
        clique = list(range(v, v + 3 + int(rng.random() * 2)))
        v += len(clique)
        cliques.append(clique)
        edges += itertools.combinations(clique, 2)
    free, marks = range(1, v), []
    for _ in range(marked):
        items, r = list(range(k)), 3 + int(rng.random() * 2)
        for i in range(r):  # r distinct cliques, drawn with rng.random() only
            j = i + int(rng.random() * (k - i))
            items[i], items[j] = items[j], items[i]
        for c in items[:r]:
            clique = cliques[c]
            edges.append((clique[int(rng.random() * len(clique))], v))
        marks.append(v)
        v += 1
    return MarkedGraph(free, marks, edges)


class TestInstanceValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(CspError):
            CspInstance(((),), ())

    def test_wide_scope_rejected(self):
        lits = frozenset((i, 1) for i in range(5))
        with pytest.raises(CspError):
            CspInstance(((1,),) * 5, (lits,))

    @pytest.mark.parametrize("var", [3, -1])
    def test_variable_outside_range_rejected(self, var):
        with pytest.raises(CspError):
            CspInstance(((1, 2),), (frozenset({(var, 1)}),))

    def test_scope_of_four_accepted(self):
        lits = frozenset((i, 1) for i in range(4))
        inst = CspInstance(((1, 2),) * 4, (lits,))
        assert len(inst.domains) == 4


class TestEncode:
    def test_two_triangles_one_marked(self):
        # marked 9 (index 6) sees one vertex of each triangle
        g = MarkedGraph({0, 1, 2, 3, 4, 5}, {9},
                        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                         (9, 0), (9, 3)])
        assert encode(g) == ([0b000111, 0b111000], [0b001001])

    def test_clique_numbering_by_smallest_member(self):
        g = plain_graph([1, 5, 6, 7], [(5, 6), (6, 7), (5, 7)])
        domains, constraints = encode(g)
        assert [g.base.decode(d) for d in domains] == [{1}, {5, 6, 7}]
        assert domains == [0b0001, 0b1110] and constraints == []

    def test_values_are_vertex_bits(self):
        g = MarkedGraph({2, 4}, {8}, [(2, 4), (8, 4)])
        # 4 is index 1 of (2, 4, 8): the constraint is its bit
        assert encode(g) == ([0b011], [0b010])

    def test_non_clique_component_rejected(self):
        with pytest.raises(CspError):
            encode(path(3))

    def test_large_clique_rejected(self):
        with pytest.raises(CspError):
            encode(complete(5))

    def test_high_marked_degree_rejected(self):
        g = from_edges([(0, i) for i in range(1, 6)], marked=[0])
        with pytest.raises(CspError):
            encode(g)

    def test_sparse_identifiers(self):
        # identifiers 3v + 10, given out of order, with the marked ones
        # between the free ones in identifier order: an index used as an
        # identifier, or the reverse, changes the result
        def vid(v):
            return 3 * v + 10

        cliques = [[4, 0, 7], [9, 2], [5]]
        marked_nbrs = {11: [2, 4], 6: [5, 0], 1: [7, 9]}
        edges = [(vid(a), vid(b)) for cl in cliques for i, a in enumerate(cl)
                 for b in cl[:i]]
        edges += [(vid(u), vid(v)) for u, vs in marked_nbrs.items() for v in vs]
        edges.append((vid(11), vid(1)))  # marked-marked: dropped
        g = MarkedGraph([vid(v) for cl in cliques for v in cl],
                        [vid(u) for u in marked_nbrs], edges[::-1])
        domains, constraints = encode(g)
        # indices 0..8 are the identifiers 10, 13, 16, 22, 25, 28, 31, 37, 43
        assert domains == [0b001001001, 0b010000100, 0b000010000]
        assert [sorted(g.base.decode(d)) for d in domains] == \
            [[10, 22, 31], [16, 37], [25]]
        # one constraint per marked vertex 13, 28, 43, in that order
        assert [sorted(g.base.decode(c)) for c in constraints] == \
            [[31, 37], [10, 25], [16, 22]]

    @pytest.mark.parametrize("g, message", [
        (plain_graph([16, 10, 13], [(13, 16), (10, 13)]),
         "free component [10, 13, 16] is not a clique"),
        (plain_graph([22, 19, 16, 13, 10],
                     itertools.combinations([22, 19, 16, 13, 10], 2)),
         "free clique [10, 13, 16, 19, 22] larger than 4"),
        (MarkedGraph([10, 13, 16, 19, 22, 46], [40, 43],
                     [(40, v) for v in (10, 13, 16, 19, 22)] + [(43, 46)]),
         "marked vertex 40 has more than 4 free neighbors"),
    ], ids=["non_clique", "large_clique", "high_marked_degree"])
    def test_errors_name_identifiers(self, g, message):
        with pytest.raises(CspError) as exc:
            encode(g)
        assert str(exc.value) == message


class TestSplitToBinary:
    def test_binary_instance_unchanged(self):
        inst = CspInstance(((1, 2), (1,)), ())
        assert split_to_binary(inst) == [inst]

    def test_size_four_halves(self):
        inst = CspInstance(((1, 2, 3, 4),), ())
        subs = split_to_binary(inst)
        assert [s.domains for s in subs] == [((1, 2),), ((3, 4),)]

    def test_size_three_binary_plus_singleton(self):
        inst = CspInstance(((1, 2, 3),), ())
        subs = split_to_binary(inst)
        assert [s.domains for s in subs] == [((1, 2),), ((3,),)]

    def test_singleton_branch_propagates(self):
        # fixing var 0 to 3 satisfies the constraint, which disappears
        c = frozenset({(0, 3), (1, 1)})
        inst = CspInstance(((1, 2, 3), (1, 2)), (c,))
        subs = split_to_binary(inst)
        singleton = subs[1]
        assert singleton.domains[0] == (3,)
        assert singleton.constraints == ()

    def test_singleton_branch_sheds_dead_literals(self):
        c = frozenset({(0, 1), (1, 1)})
        inst = CspInstance(((1, 2, 3), (1, 2)), (c,))
        binary, singleton = split_to_binary(inst)
        assert singleton.constraints == (frozenset({(1, 1)}),)
        assert binary.constraints == (c,)

    def test_product_of_halves_pinned(self):
        # sizes 3, 4, 2: the first two split, the binary variable 2 stays
        fixed_value = frozenset({(0, 3), (2, 1)})
        split_halves = frozenset({(0, 1), (1, 3)})
        other_half = frozenset({(1, 1), (2, 2)})
        binary_only = frozenset({(2, 1), (2, 2)})
        inst = CspInstance(((1, 2, 3), (1, 2, 3, 4), (1, 2)),
                           (fixed_value, split_halves, other_half, binary_only))
        subs = split_to_binary(inst)
        assert [s.domains for s in subs] == [((1, 2), (1, 2), (1, 2)),
                                             ((1, 2), (3, 4), (1, 2)),
                                             ((3,), (1, 2), (1, 2)),
                                             ((3,), (3, 4), (1, 2))]
        assert [s.constraints for s in subs] == [
            (frozenset({(2, 1)}), frozenset({(0, 1)}), other_half, binary_only),
            (frozenset({(2, 1)}), split_halves, frozenset({(2, 2)}), binary_only),
            (frozenset(), other_half, binary_only),
            (frozenset({(1, 3)}), frozenset({(2, 2)}), binary_only)]

    def test_returns_a_list(self):
        # the traced benchmark counts the family with len()
        inst = CspInstance(((1, 2, 3), (1, 2, 3, 4)), (frozenset(),))
        assert type(split_to_binary(inst)) is list

    @given(csp_instances(spill=1))
    @settings(max_examples=150, deadline=None)
    def test_same_family_as_the_product_split(self, inst):
        # same members, in the same order, with the same constraint tuples
        assert split_to_binary(inst) == product_split(inst)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_solution_sets_preserved(self, data):
        n = data.draw(st.integers(1, 3))
        domains = tuple(tuple(range(1, data.draw(st.integers(1, 4)) + 1))
                        for _ in range(n))
        all_lits = [(i, v) for i, d in enumerate(domains) for v in d]
        n_cons = data.draw(st.integers(0, 3))
        constraints = tuple(
            frozenset(data.draw(st.sets(st.sampled_from(all_lits),
                                        min_size=1, max_size=4)))
            for _ in range(n_cons))
        constraints = tuple(c for c in constraints
                            if len({var for var, _ in c}) <= 4)
        inst = CspInstance(domains, constraints)
        direct = {tuple(sorted(a.items()))
                  for a in brute_force_assignments(inst)}
        via_splits = set()
        for sub in split_to_binary(inst):
            assert all(len(d) <= 2 for d in sub.domains)
            for a in brute_force_assignments(sub):
                via_splits.add(tuple(sorted(a.items())))
        assert direct == via_splits


class TestSolveBinary:
    @given(mask_instances(widest=4))
    @settings(max_examples=300, deadline=None)
    def test_wide_domains_first_witness_of_the_split(self, instance):
        # the part steps and the value steps are one search: its witness is
        # the first product-order solution of the first satisfiable leaf
        first = next((w for leaf in restricting_walk(*instance)
                      for w in product_order_witnesses(*leaf)), None)
        assert solve_binary(*instance) == first

    def test_no_constraints_takes_first_values(self):
        assert solve_binary([0b0011, 0b1100], []) == 0b0101

    def test_empty_constraint_unsat(self):
        assert solve_binary([0b11], [0]) is None

    def test_unit_propagation_chain(self):
        # variable i holds bits 2i (its first value) and 2i + 1
        assert solve_binary([0b11, 0b1100, 0b110000],
                            [0b10, 0b1001, 0b100100]) == 0b101010

    def test_many_variables_under_default_recursion_limit(self):
        # one decision per variable: a recursive search would need 1,500 frames
        domains = [0b11 << 2 * i for i in range(1500)]
        assert solve_binary(domains, []) == sum(1 << 2 * i for i in range(1500))

    def test_chosen_value_skips_the_other_parts(self):
        # the root chooses bit 0, so variable 0 keeps only its part {0, 1};
        # without bit 2 the other four constraints need both values of
        # variable 1 or of variable 2
        domains = [0b111, 0b11 << 3, 0b11 << 5]
        constraints = [0b1, 0b0101100, 0b1010100, 0b1001100, 0b0110100]
        assert solve_binary(domains, constraints) is None

    def test_conflicting_units_unsat(self):
        assert solve_binary([0b11], [0b01, 0b10]) is None

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_enumeration(self, data):
        n = data.draw(st.integers(1, 4))
        domains = [0b11 >> (2 - data.draw(st.integers(1, 2))) << 2 * i
                   for i in range(n)]
        values = [1 << b for d in domains for b in bits(d)]
        constraints = [sum(data.draw(st.sets(st.sampled_from(values),
                                             min_size=1, max_size=3)))
                       for _ in range(data.draw(st.integers(0, 4)))]
        got = solve_binary(domains, constraints)
        if next(product_order_witnesses(domains, constraints), None) is not None:
            assert got is not None
            assert all((got & d).bit_count() == 1 for d in domains)
            assert all(got & c for c in constraints)
        else:
            assert got is None

    @given(mask_instances(widest=2))
    @settings(max_examples=200, deadline=None)
    def test_first_solution_in_product_order(self, instance):
        # not just a solution: the witness the product enumeration finds first
        assert solve_binary(*instance) == \
            next(product_order_witnesses(*instance), None)


class TestSolveCliqueUnion:
    def test_feasible_two_triangles(self):
        g = MarkedGraph({0, 1, 2, 3, 4, 5}, {9},
                        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                         (9, 0), (9, 3)])
        sol = solve_clique_union(g)
        assert sol.size == 2
        assert check_ids(g, sol.witness)

    def test_infeasible_isolated_marked(self):
        g = MarkedGraph({0, 1}, {9}, [(0, 1)])
        assert not solve_clique_union(g).feasible

    def test_infeasible_conflicting_demands(self):
        # marked 8 and 9 each need a different end of the single edge
        g = MarkedGraph({0, 1}, {8, 9}, [(0, 1), (8, 0), (9, 1)])
        assert not solve_clique_union(g).feasible

    def test_size_equals_clique_count(self):
        g = plain_graph(range(6), [(0, 1), (2, 3), (2, 4), (3, 4)])
        sol = solve_clique_union(g)
        assert sol.size == 3  # edge, triangle, isolated vertex

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_match_oracle(self, seed):
        rnd = __import__("random").Random(seed)
        vid = 0
        free, edges = set(), []
        for _ in range(rnd.randint(1, 4)):
            size = rnd.randint(1, 4)
            members = list(range(vid, vid + size))
            vid += size
            free |= set(members)
            edges += list(itertools.combinations(members, 2))
        marked = set()
        for _ in range(rnd.randint(0, 3)):
            m = vid
            vid += 1
            marked.add(m)
            targets = rnd.sample(sorted(free), rnd.randint(0, min(4, len(free))))
            edges += [(m, t) for t in targets]
        g = MarkedGraph(free, marked, edges)
        sol = solve_clique_union(g)
        ref = exhaustive_mids(g)
        assert sol.feasible == ref.feasible
        assert sol.size == ref.size
        if sol.feasible:
            assert check_ids(g, sol.witness)

    @pytest.mark.parametrize("k", [40, 1000])
    def test_disjoint_triangles_one_endgame_node(self, k):
        # the whole split has 2^k members; the walk reaches a satisfiable
        # leaf after k choices, on an explicit stack
        g = plain_graph(range(3 * k), [(3 * i + a, 3 * i + b) for i in range(k)
                                       for a, b in ((0, 1), (0, 2), (1, 2))])
        limit = sys.getrecursionlimit()
        sol, stats = solve(g)
        assert sol.size == k and check_ids(g, sol.witness)
        assert stats.nodes == 1 and stats.case_counts == {"csp_endgame": 1}
        assert sys.getrecursionlimit() == limit


class TestWalkMatchesEagerEndgame:
    """Feasibility, size and witness of the depth-first walk against the
    first satisfiable member of the whole split."""

    def test_criterion_2_clique_unions(self):
        for seed in range(300):
            g = random_clique_union(seed)
            assert solve_clique_union(g) == eager_endgame(g), seed

    @pytest.mark.parametrize("seed", range(24))
    def test_benchmark_clique_unions(self, seed):
        g = bench_clique_union(12, 36, seed)
        assert solve_clique_union(g) == eager_endgame(g)

    @given(csp_instances())
    @settings(max_examples=200, deadline=None)
    def test_csp_instances(self, inst):
        # constraints may start empty: a marked vertex with no free neighbour
        g, vertex = clique_union_of(inst)
        assert literal_encoding(g)[0] == inst
        # identifiers are indices: the masks hold the literals' vertices
        assert encode(g) == (
            [sum(1 << vertex[i, val] for val in dom)
             for i, dom in enumerate(inst.domains)],
            [sum(1 << vertex[lit] for lit in c) for c in inst.constraints])
        assert solve_clique_union(g) == eager_endgame(g)


class CountedPasses(list):
    """A constraint list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestSearchWork:
    """The endgame search's work, as passes over ``encode``'s constraint
    list: each propagation round is one."""

    @staticmethod
    def counted_solve(g, monkeypatch):
        counted = CountedPasses()

        def counted_encode(g):
            domains, constraints = encode(g)
            counted.extend(constraints)
            return domains, counted

        monkeypatch.setattr(csp, "encode", counted_encode)
        return csp.solve_clique_union(g), counted.passes

    def test_benchmark_clique_unions(self, monkeypatch):
        assert sum(self.counted_solve(bench_clique_union(12, 36, seed), monkeypatch)[1]
                   for seed in range(24)) == 2145

    @pytest.mark.parametrize("marked_with", [[], [(9, 4)]])
    def test_empty_constraint_one_pass(self, monkeypatch, marked_with):
        # two 4-cliques and marked 10, which has no free neighbour; marked 9,
        # if present, sees 4 in the second clique: the root's first pass cuts
        edges = [e for q in ((0, 1, 2, 3), (4, 5, 6, 7))
                 for e in itertools.combinations(q, 2)] + marked_with
        g = MarkedGraph(range(8), {9, 10} if marked_with else {10}, edges)
        assert self.counted_solve(g, monkeypatch) == (INFEASIBLE, 1)
