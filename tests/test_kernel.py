"""Frame construction, morphisms, products, and isomorphism search."""

import random
from itertools import permutations

import pytest

from epikit.kernel import (
    FrameMorphism,
    _refine_colors,
    agent_name,
    are_isomorphic,
    find_isomorphism,
    FormatError,
    frame_from_json,
    frame_to_dot,
    frame_to_json,
    identity_morphism,
    is_morphism,
    is_proper,
    new_frame,
    product,
)
from epikit.schedules import protocol_action_model


def all_maps(src_states, dst_states):
    """Every total function src -> dst, the brute-force morphism pool."""
    if src_states == 0:
        yield ()
        return
    for rest in all_maps(src_states - 1, dst_states):
        for img in range(dst_states):
            yield rest + (img,)


def morphisms_between(f, g):
    return [
        FrameMorphism(m)
        for m in all_maps(f.state_count, g.state_count)
        if is_morphism(FrameMorphism(m), f, g)
    ]


def compose(outer, inner):
    """outer after inner: state u maps to outer(inner(u))."""
    return FrameMorphism(tuple(outer.mapping[x] for x in inner.mapping))


def random_frame(rng, states, agents):
    partitions = [
        [rng.randrange(max(1, states // 2 + 1)) for _ in range(states)]
        for _ in range(agents)
    ]
    return new_frame(states, agents, partitions)


# ---------------------------------------------------------------------------
# new_frame

def test_singleton_frame():
    f = new_frame(1, 3, [[0], [0], [0]])
    assert f.state_count == 1
    assert all(f.num_classes(a) == 1 for a in range(3))


def test_two_process_three_state_frame():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    assert f.num_classes(0) == 2
    assert f.related(0, 0, 1) and not f.related(0, 1, 2)
    assert f.related(1, 1, 2) and not f.related(1, 0, 1)


def test_shape_violation_rejected():
    with pytest.raises(ValueError):
        new_frame(3, 2, [[0, 0], [0, 1, 1]])
    with pytest.raises(ValueError):
        new_frame(3, 2, [[0, 0, 1]])


def test_label_gaps_renumbered():
    f = new_frame(3, 1, [[5, 9, 5]])
    assert f.partitions[0] == (0, 1, 0)


def test_arbitrary_hashable_labels():
    f = new_frame(2, 1, [["left", "right"]])
    assert f.partitions[0] == (0, 1)


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        f = random_frame(rng, rng.randrange(1, 7), rng.randrange(1, 4))
        again = new_frame(f.state_count, f.agent_count, f.partitions)
        assert again == f


# ---------------------------------------------------------------------------
# is_proper

def test_proper_singleton():
    assert is_proper(new_frame(1, 2, [[0], [0]]))


def test_improper_duplicate_state():
    f = new_frame(2, 2, [[0, 0], [0, 0]])
    assert not is_proper(f)


def test_proper_when_one_agent_separates():
    f = new_frame(2, 2, [[0, 0], [0, 1]])
    assert is_proper(f)


def class_ids_reference(frame):
    """Per state, the sorted indices of its (agent, class) pairs, numbered
    agent by agent and class by class in a dict."""
    index = {}
    for a in range(frame.agent_count):
        for c in range(frame.num_classes(a)):
            index[(a, c)] = len(index)
    return tuple(
        tuple(sorted(index[(a, frame.partitions[a][s])] for a in range(frame.agent_count)))
        for s in frame.states()
    )


def seeded_frames(seed, count):
    """Random frames of 0-8 states and 1-4 agents, about a third of them with
    one class per state for some agent, so that both proper and improper
    frames come up."""
    rng = random.Random(seed)
    for _ in range(count):
        states, agents = rng.randint(0, 8), rng.randint(1, 4)
        f = random_frame(rng, states, agents)
        if rng.random() < 0.3:
            partitions = list(f.partitions)
            partitions[rng.randrange(agents)] = range(states)
            f = new_frame(states, agents, partitions)
        yield f


def test_class_ids_match_a_dict_keyed_by_agent_and_class():
    frames = [new_frame(0, 3, [[], [], []]), new_frame(4, 1, [[2, 0, 2, 1]])]
    frames += seeded_frames(1812, 300)
    for f in frames:
        assert f.class_ids == class_ids_reference(f)
    assert frames[0].class_ids == ()
    assert frames[1].class_ids == ((0,), (1,), (0,), (2,))


def test_is_proper_matches_pairwise_brute_force():
    found = {True: 0, False: 0}
    for f in seeded_frames(1813, 300):
        brute = not any(
            all(f.related(a, u, v) for a in range(f.agent_count))
            for u in f.states()
            for v in range(u)
        )
        assert is_proper(f) == brute
        found[brute] += 1
    assert min(found.values()) > 50


# ---------------------------------------------------------------------------
# product

def test_product_state_count():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    g = new_frame(2, 2, [[0, 1], [0, 0]])
    h, _, _ = product(f, g)
    assert h.state_count == 6


def test_product_unit_law():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    unit = new_frame(1, 2, [[0], [0]])
    h, _, _ = product(f, unit)
    assert are_isomorphic(h, f)


def test_product_relation_is_pairwise():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    h, pf, pg = product(f, f)
    for u in range(9):
        for v in range(9):
            s, t = divmod(u, 3)
            s2, t2 = divmod(v, 3)
            for a in range(2):
                expected = f.related(a, s, s2) and f.related(a, t, t2)
                assert h.related(a, u, v) == expected


def test_projections_are_morphisms():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    g = new_frame(2, 2, [[0, 1], [0, 0]])
    h, pf, pg = product(f, g)
    assert is_morphism(pf, h, f)
    assert is_morphism(pg, h, g)


def test_product_partitions_match_a_per_pair_reference():
    rng = random.Random(4021)
    for _ in range(60):
        agents = rng.randint(1, 3)
        f = random_frame(rng, rng.randint(0, 5), agents)
        g = random_frame(rng, rng.randint(0, 5), agents)
        h, pf, pg = product(f, g)
        ng = g.state_count
        pairs = [divmod(u, ng) for u in h.states()]
        assert h.state_count == len(pairs) == f.state_count * ng
        assert pf.mapping == tuple(s for s, _ in pairs)
        assert pg.mapping == tuple(t for _, t in pairs)
        for a in range(agents):
            for u, (s, t) in enumerate(pairs):
                for v, (s2, t2) in enumerate(pairs):
                    expected = f.related(a, s, s2) and g.related(a, t, t2)
                    assert h.related(a, u, v) == expected


def test_product_agent_count_mismatch():
    f = new_frame(1, 2, [[0], [0]])
    g = new_frame(1, 3, [[0], [0], [0]])
    with pytest.raises(ValueError):
        product(f, g)


def test_product_universal_property_small():
    # every pair of morphisms H -> F, H -> G factors uniquely through F x G
    f = new_frame(2, 2, [[0, 1], [0, 0]])
    g = new_frame(2, 2, [[0, 0], [0, 1]])
    h_frame = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    prod, pf, pg = product(f, g)
    candidates = morphisms_between(h_frame, prod)
    for h1 in morphisms_between(h_frame, f):
        for h2 in morphisms_between(h_frame, g):
            factorings = [
                u
                for u in candidates
                if compose(pf, u).mapping == h1.mapping
                and compose(pg, u).mapping == h2.mapping
            ]
            assert len(factorings) == 1
            expected = tuple(
                h1.mapping[s] * g.state_count + h2.mapping[s]
                for s in range(h_frame.state_count)
            )
            assert factorings[0].mapping == expected


# ---------------------------------------------------------------------------
# is_morphism

def test_identity_is_morphism():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    assert is_morphism(identity_morphism(f), f, f)


def test_relation_breaking_map_rejected():
    # two p-related states sent to p-unrelated states
    src = new_frame(2, 1, [[0, 0]])
    dst = new_frame(2, 1, [[0, 1]])
    assert not is_morphism(FrameMorphism((0, 1)), src, dst)
    assert is_morphism(FrameMorphism((0, 0)), src, dst)


def test_morphism_errors():
    f = new_frame(2, 1, [[0, 1]])
    with pytest.raises(ValueError):
        is_morphism(FrameMorphism((0,)), f, f)  # not total
    with pytest.raises(ValueError):
        is_morphism(FrameMorphism((0, 5)), f, f)  # out of range


@pytest.mark.parametrize(
    "src, dst",
    [
        # fewer agents in the target: once an IndexError
        (new_frame(2, 2, [[0, 1], [0, 1]]), new_frame(1, 1, [[0]])),
        # more agents in the target: once True, a map between agent sets
        (new_frame(2, 1, [[0, 1]]), new_frame(1, 2, [[0], [0]])),
    ],
)
def test_morphism_between_different_agent_counts_is_refused(src, dst):
    with pytest.raises(ValueError, match="^morphism requires equal agent counts$"):
        is_morphism(FrameMorphism((0, 0)), src, dst)


def test_morphism_composition_closed():
    rng = random.Random(20240)
    for _ in range(20):
        f = random_frame(rng, 3, 2)
        g = random_frame(rng, 3, 2)
        h = random_frame(rng, 3, 2)
        for m1 in morphisms_between(f, g):
            for m2 in morphisms_between(g, h):
                assert is_morphism(compose(m2, m1), f, h)


# ---------------------------------------------------------------------------
# isomorphism

def test_isomorphic_to_itself():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    assert are_isomorphic(f, f)


def test_different_sizes_not_isomorphic():
    f = new_frame(2, 1, [[0, 1]])
    g = new_frame(3, 1, [[0, 1, 2]])
    assert not are_isomorphic(f, g)


def test_isomorphism_survives_state_permutation():
    rng = random.Random(99)
    for _ in range(15):
        f = random_frame(rng, 6, 3)
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = new_frame(
            6, 3, [[f.partitions[a][perm[s]] for s in range(6)] for a in range(3)]
        )
        witness = find_isomorphism(shuffled, f)
        assert witness is not None
        assert is_morphism(witness, shuffled, f)
        # bijective with morphism inverse
        inverse = [0] * 6
        for s, t in enumerate(witness.mapping):
            inverse[t] = s
        assert sorted(witness.mapping) == list(range(6))
        assert is_morphism(FrameMorphism(tuple(inverse)), f, shuffled)


def test_same_size_different_structure():
    f = new_frame(2, 1, [[0, 1]])
    g = new_frame(2, 1, [[0, 0]])
    assert not are_isomorphic(f, g)


def test_same_class_counts_different_wiring():
    # identical class-size profiles (2+1 per agent), but the second frame
    # aligns the partitions; class-count pruning alone cannot separate these
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    g = new_frame(3, 2, [[0, 0, 1], [0, 0, 1]])
    assert not are_isomorphic(f, g)


def permuted(frame, perm):
    """The frame whose state s is ``frame``'s state ``perm[s]``."""
    return new_frame(
        frame.state_count,
        frame.agent_count,
        [[row[perm[s]] for s in frame.states()] for row in frame.partitions],
    )


def regular_frame(rng, states, agents):
    """Every agent's classes have one size, so color refinement gives all
    states one color and only the search can tell such frames apart."""
    size = rng.choice([k for k in range(1, states + 1) if states % k == 0])
    partitions = []
    for _ in range(agents):
        order = list(range(states))
        rng.shuffle(order)
        row = [0] * states
        for i, s in enumerate(order):
            row[s] = i // size
        partitions.append(row)
    return new_frame(states, agents, partitions)


def brute_isomorphic(f, g):
    """Some bijection carries g's partitions onto f's."""
    if (f.state_count, f.agent_count) != (g.state_count, g.agent_count):
        return False
    return any(permuted(g, perm) == f for perm in permutations(g.states()))


def is_isomorphism(witness, f, g):
    inverse = [0] * f.state_count
    for s, t in enumerate(witness.mapping):
        inverse[t] = s
    return (
        sorted(witness.mapping) == list(g.states())
        and is_morphism(witness, f, g)
        and is_morphism(FrameMorphism(tuple(inverse)), g, f)
    )


def test_isomorphism_search_matches_brute_force():
    rng = random.Random(5150)
    found = {True: 0, False: 0}
    for _ in range(240):
        states, agents = rng.randint(0, 7), rng.randint(1, 3)
        make = rng.choice([random_frame, regular_frame]) if states else random_frame
        f = make(rng, states, agents)
        perm = list(range(states))
        rng.shuffle(perm)
        g = permuted(f, perm) if rng.random() < 0.4 else make(rng, states, agents)
        witness = find_isomorphism(f, g)
        assert (witness is not None) == brute_isomorphic(f, g)
        if witness is not None:
            assert is_isomorphism(witness, f, g)
        found[witness is not None] += 1
    assert min(found.values()) > 50


def refine_colors_per_state(f, g):
    """Joint color refinement as it was first written: every state sorts
    the colors of each of its classes itself."""
    cf = [0] * f.state_count
    cg = [0] * g.state_count
    while True:
        table = {}

        def signature(frame, colors, s):
            sig = [colors[s]]
            for a in range(frame.agent_count):
                members = frame.classes_by_agent[a][frame.partitions[a][s]]
                sig.append(tuple(sorted(colors[t] for t in members)))
            return tuple(sig)

        nf = [table.setdefault(signature(f, cf, s), len(table)) for s in f.states()]
        ng = [table.setdefault(signature(g, cg, s), len(table)) for s in g.states()]
        if nf == cf and ng == cg:
            return cf, cg
        cf, cg = nf, ng


def test_color_refinement_matches_the_per_state_refinement():
    rng = random.Random(2718)
    for _ in range(400):
        states, agents = rng.randint(0, 24), rng.randint(1, 4)
        make = rng.choice([random_frame, regular_frame]) if states else random_frame
        f = make(rng, states, agents)
        if rng.random() < 0.5:
            perm = list(range(states))
            rng.shuffle(perm)
            g = permuted(f, perm)
        else:
            g = make(rng, rng.choice([states, rng.randint(1, 24)]), agents)
        assert _refine_colors(f, g) == refine_colors_per_state(f, g)


def test_color_refinement_separates_frames_whose_class_sizes_differ():
    # find_isomorphism prunes on the color multisets alone: the first round
    # colors a state by its class size under each agent
    rng = random.Random(4000)
    mismatched = 0
    for _ in range(4000):
        states, agents = rng.randint(1, 12), rng.randint(1, 3)
        make = rng.choice([random_frame, regular_frame])
        f, g = make(rng, states, agents), make(rng, states, agents)
        sizes = [
            [sorted(map(len, classes)) for classes in frame.classes_by_agent]
            for frame in (f, g)
        ]
        if sizes[0] != sizes[1]:
            mismatched += 1
            cf, cg = _refine_colors(f, g)
            assert sorted(cf) != sorted(cg)
    assert mismatched > 1000


def cycles_frame(lengths):
    """Two agents whose classes are the alternate edges of disjoint even
    cycles of the given lengths."""
    rows: list[list[int]] = [[], []]
    start = 0
    for length in lengths:
        for i in range(length):
            rows[0].append(start + i // 2)
            rows[1].append(start + (i + 1) % length // 2)
        start += length
    return new_frame(start, 2, rows)


def test_isomorphism_search_backtracks_on_cycles():
    # every state lies in one two-state class per agent, so color
    # refinement cannot separate one 12-cycle from two 6-cycles
    one, two = cycles_frame([12]), cycles_frame([6, 6])
    assert find_isomorphism(one, two) is None
    assert find_isomorphism(two, one) is None
    assert is_isomorphism(find_isomorphism(one, one), one, one)
    assert is_isomorphism(find_isomorphism(two, two), two, two)


def test_isomorphism_on_a_shuffled_protocol_frame():
    frame = protocol_action_model(2, 3).frame  # 2,197 states
    perm = list(frame.states())
    random.Random(7).shuffle(perm)
    shuffled = permuted(frame, perm)
    witness = find_isomorphism(shuffled, frame)
    assert witness is not None
    assert is_isomorphism(witness, shuffled, frame)


# ---------------------------------------------------------------------------
# serialization

def test_frame_json_roundtrip():
    f = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    assert frame_from_json(frame_to_json(f)) == f


@pytest.mark.parametrize("data", [
    [[0, 0]],
    {"states": 2, "agents": 1},
    {"states": 2, "agents": True, "partitions": [[0, 0]]},
    {"states": 2, "agents": 1, "partitions": [[0, 0], [0, 0]]},
    {"states": 2, "agents": 1, "partitions": [[0, 0.5]]},
])
def test_frame_from_json_rejects_malformed_data(data):
    with pytest.raises(FormatError):
        frame_from_json(data)


def all_pairs_frame_to_dot(frame):
    """The frame writer as it was before the related-pairs walk: every
    pair of states, every agent."""
    lines = ["graph frame {", "  node [shape=circle];"]
    for s in frame.states():
        lines.append(f'  s{s} [label="{s}"];')
    for u in frame.states():
        for v in range(u + 1, frame.state_count):
            agents = [
                agent_name(a)
                for a in range(frame.agent_count)
                if frame.related(a, u, v)
            ]
            if agents:
                lines.append(f'  s{u} -- s{v} [label="{",".join(agents)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_frame_dot_matches_the_all_pairs_writer():
    rng = random.Random(1704)
    for _ in range(320):
        states, agents = rng.randint(0, 25), rng.randint(1, 13)
        labels = rng.randint(1, max(1, states))
        frame = new_frame(
            states,
            agents,
            [[rng.randrange(labels) for _ in range(states)] for _ in range(agents)],
        )
        assert frame_to_dot(frame) == all_pairs_frame_to_dot(frame)


def test_frame_dot_is_stable():
    f = new_frame(2, 2, [[0, 0], [0, 1]])
    dot = frame_to_dot(f)
    assert dot == frame_to_dot(f)
    assert 's0 -- s1 [label="p"];' in dot
