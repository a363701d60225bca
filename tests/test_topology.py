"""Frame/complex duality and simplicial maps."""

import random

import pytest

from epikit.kernel import (
    FrameMorphism,
    agent_name,
    identity_morphism,
    is_morphism,
    is_proper,
    new_frame,
    product,
)
from epikit.schedules import input_model, protocol_action_model, protocol_model
from epikit.solver import solve
from epikit.tasks import builtin
from epikit.topology import (
    ChromaticComplex,
    SimplicialMap,
    complex_to_dot,
    complex_to_frame,
    complex_to_json,
    frame_to_complex,
    morphism_to_simplicial,
    roundtrip_check,
    validate_simplicial_map,
)


def path_frame():
    # the one-round protocol frame for two processes: a path of 3 states
    return protocol_model(1, 1).frame


# ---------------------------------------------------------------------------
# frame -> complex

def test_singleton_frame_gives_one_triangle():
    frame = new_frame(1, 3, [[0], [0], [0]])
    complex_ = frame_to_complex(frame)
    assert len(complex_.vertices) == 3
    assert complex_.facet_count == 1
    assert complex_.facets == ((0, 1, 2),)


def test_complex_facets_are_the_frame_class_ids():
    frame = protocol_action_model(2, 2).frame
    complex_ = frame_to_complex(frame)
    assert complex_.facets is frame.class_ids
    assert [c for c, _ in complex_.vertices] == [
        a for a in range(3) for _ in range(frame.num_classes(a))
    ]


def test_two_process_protocol_frame_is_a_path():
    complex_ = frame_to_complex(path_frame())
    assert len(complex_.vertices) == 4
    assert complex_.facet_count == 3
    # a path: two facets meet in one vertex each, the middle one in two
    shared = [
        len(set(complex_.facets[i]) & set(complex_.facets[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    assert sorted(shared) == [0, 1, 1]


def test_three_process_one_round_subdivision_counts():
    frame = protocol_model(2, 1).frame
    complex_ = frame_to_complex(frame)
    assert complex_.facet_count == 13
    for color in range(3):
        assert sum(1 for c, _ in complex_.vertices if c == color) == 4
    # pure of dimension 2
    assert all(len(f) == 3 for f in complex_.facets)


def test_facets_share_vertex_iff_states_related():
    frame = protocol_model(2, 1).frame
    complex_ = frame_to_complex(frame)
    # facet k is state k, and its vertex of color a comes a-th
    for u in range(13):
        for v in range(13):
            for a in range(3):
                assert complex_.vertices[complex_.facets[u][a]][0] == a
                shared = complex_.facets[u][a] == complex_.facets[v][a]
                assert shared == frame.related(a, u, v)


def test_improper_frame_rejected():
    improper = new_frame(2, 2, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        frame_to_complex(improper)


# ---------------------------------------------------------------------------
# complex -> frame and round trips

@pytest.mark.parametrize("complex_", [
    ChromaticComplex((), ()),
    ChromaticComplex((), ((),)),
], ids=["empty", "one empty facet"])
def test_vertexless_complex_has_no_dual_frame(complex_):
    with pytest.raises(ValueError, match="^complex has no vertices$"):
        complex_to_frame(complex_)


def test_single_facet_complex():
    complex_ = ChromaticComplex(((0, "a"), (1, "b"), (2, "c")), ((0, 1, 2),))
    frame = complex_to_frame(complex_)
    assert frame.state_count == 1
    assert frame.agent_count == 3


def test_path_roundtrip():
    frame = path_frame()
    complex_ = frame_to_complex(frame)
    assert complex_to_frame(complex_) == frame


def test_roundtrip_check_on_suite_frames():
    frames = [
        new_frame(1, 3, [[0], [0], [0]]),
        path_frame(),
        protocol_model(2, 1).frame,
        builtin("two_testset", 2).output.frame,
        builtin("snapshot", 2).output.frame,
    ]
    for frame in frames:
        assert roundtrip_check(frame)


def test_roundtrip_check_on_a_frame_larger_than_the_recursion_limit():
    # 2,197 states, more than the default recursion limit: the check
    # compares the rebuilt frame whole, with no step per state
    assert roundtrip_check(protocol_action_model(2, 3).frame)


def test_roundtrip_check_rejects_improper():
    with pytest.raises(ValueError):
        roundtrip_check(new_frame(2, 2, [[0, 0], [0, 0]]))


def test_reverse_roundtrip_preserves_complex_shape():
    # complex -> frame -> complex lands on the same complex, vertex
    # labels included
    for frame in (path_frame(), builtin("two_testset", 2).output.frame):
        original = frame_to_complex(frame)
        rebuilt = frame_to_complex(complex_to_frame(original))
        assert rebuilt == original


def test_hexagon_output_complex_is_a_ring():
    frame = builtin("two_testset", 2).output.frame
    complex_ = frame_to_complex(frame)
    assert complex_.facet_count == 6
    assert len(complex_.vertices) == 6
    # each facet shares an edge (two vertices) with exactly two others
    for i in range(6):
        edge_neighbours = sum(
            1
            for j in range(6)
            if j != i and len(set(complex_.facets[i]) & set(complex_.facets[j])) == 2
        )
        assert edge_neighbours == 2
    assert complex_to_frame(complex_) == frame


def test_malformed_complexes_rejected():
    with pytest.raises(ValueError):  # not pure
        ChromaticComplex(((0, "a"), (1, "b"), (2, "c")), ((0, 1, 2), (0, 1)))
    with pytest.raises(ValueError, match="not pure"):  # three vertices, two colors
        ChromaticComplex(((0, "a"), (0, "b"), (1, "c")), ((0, 1, 2),))
    with pytest.raises(ValueError, match="^facet repeats a color$"):
        ChromaticComplex(((0, "a"), (0, "b"), (1, "c")), ((0, 1),))
    with pytest.raises(ValueError, match="^vertex colors must be dense 0..n$"):
        ChromaticComplex(((0, "a"), (2, "b")), ((0, 1),))
    with pytest.raises(ValueError, match="^facet vertex indices must be sorted$"):
        ChromaticComplex(((0, "a"), (1, "b")), ((1, 0),))
    with pytest.raises(ValueError):  # duplicate facet
        ChromaticComplex(((0, "a"), (1, "b")), ((0, 1), (0, 1)))


@pytest.mark.parametrize("facet", [(-2, -1), (0, 5)])
def test_facet_vertex_indices_must_name_a_vertex(facet):
    # unchecked, a negative index reads from the end and one past it raises IndexError
    with pytest.raises(ValueError) as info:
        ChromaticComplex(((0, "a"), (1, "b")), (facet,))
    assert str(info.value) == f"facet {facet} is out of range for 2 vertices"


# ---------------------------------------------------------------------------
# simplicial maps

def test_identity_morphism_gives_identity_map():
    frame = path_frame()
    smap = morphism_to_simplicial(identity_morphism(frame), frame, frame)
    assert smap.vertex_map == tuple(range(4))


def test_projection_collapses_fiber():
    base = path_frame()
    prod, proj, _ = product(base, base)
    # the product of proper frames here happens to be proper as well
    smap = morphism_to_simplicial(proj, prod, base)
    src_complex = frame_to_complex(prod)
    dst_complex = frame_to_complex(base)
    assert validate_simplicial_map(smap, src_complex, dst_complex)


def test_non_morphism_rejected():
    src = new_frame(2, 1, [[0, 0]])
    dst = new_frame(2, 1, [[0, 1]])
    with pytest.raises(ValueError):
        morphism_to_simplicial(FrameMorphism((0, 1)), src, dst)
    # a map onto a frame of more agents would drop colors from each facet
    src = new_frame(2, 1, [[0, 1]])
    dst = new_frame(1, 2, [[0], [0]])
    with pytest.raises(ValueError, match="^not a frame morphism$"):
        morphism_to_simplicial(FrameMorphism((0, 0)), src, dst)


def test_color_breaking_map_invalid():
    complex_ = ChromaticComplex(((0, "a"), (1, "b")), ((0, 1),))
    swapped = SimplicialMap((1, 0))
    assert not validate_simplicial_map(swapped, complex_, complex_)


def test_map_sending_a_facet_off_the_complex_invalid():
    # two disjoint edges; crossing their color-1 vertices keeps colors
    # but sends each edge to a non-facet
    complex_ = ChromaticComplex(
        ((0, "a"), (0, "b"), (1, "c"), (1, "d")), ((0, 2), (1, 3))
    )
    crossed = SimplicialMap((0, 1, 3, 2))
    assert not validate_simplicial_map(crossed, complex_, complex_)
    assert validate_simplicial_map(SimplicialMap((0, 1, 2, 3)), complex_, complex_)


@pytest.mark.parametrize("vertex_map, message", [
    ((0, 1), "^vertex map must be total$"),
    ((0, 1, 2, 4), "^vertex image 4 out of range$"),
    ((0, 1, 2, -1), "^vertex image -1 out of range$"),
], ids=["short", "past the end", "negative"])
def test_malformed_vertex_maps_rejected(vertex_map, message):
    complex_ = frame_to_complex(path_frame())
    with pytest.raises(ValueError, match=message):
        validate_simplicial_map(SimplicialMap(vertex_map), complex_, complex_)


def test_simplicial_translation_respects_composition():
    # translating g after f equals composing the two translations
    src = protocol_model(2, 1).frame
    mid = builtin("snapshot", 2).output.frame  # same relation, same order
    top = new_frame(1, 3, [[0], [0], [0]])
    f = identity_morphism(src)
    g = FrameMorphism((0,) * mid.state_count)
    g_after_f = FrameMorphism(tuple(g(u) for u in f.mapping))
    composed = morphism_to_simplicial(g_after_f, src, top)
    first = morphism_to_simplicial(f, src, mid)
    second = morphism_to_simplicial(g, mid, top)
    assert composed.vertex_map == tuple(
        second.vertex_map[v] for v in first.vertex_map
    )
    assert len(set(first.vertex_map)) == 12  # bijective on the 12 vertices
    assert set(composed.vertex_map) == {0, 1, 2}


# ---------------------------------------------------------------------------
# differential checks against the readings that built per-facet tables and
# whole complexes

def per_facet_complex_to_frame(complex_):
    """``complex_to_frame`` as it was: a color-to-vertex dict per facet."""
    tables = [{complex_.vertices[v][0]: v for v in facet} for facet in complex_.facets]
    partitions = [
        [tables[k][a] for k in range(complex_.facet_count)]
        for a in range(complex_.color_count)
    ]
    return new_frame(complex_.facet_count, complex_.color_count, partitions)


def both_complexes_morphism_to_simplicial(f, src, dst):
    """``morphism_to_simplicial`` as it was: build both dual complexes and
    validate the induced vertex map against them."""
    if not is_morphism(f, src, dst):
        raise ValueError("not a frame morphism")
    src_complex, dst_complex = frame_to_complex(src), frame_to_complex(dst)
    vertex_map = [0] * len(src_complex.vertices)
    for u, facet in enumerate(src.class_ids):
        for v, image in zip(facet, dst.class_ids[f(u)]):
            vertex_map[v] = image
    smap = SimplicialMap(tuple(vertex_map))
    if not validate_simplicial_map(smap, src_complex, dst_complex):
        raise ValueError("induced vertex map is not chromatic simplicial")
    return smap


def shuffled_vertices(complex_, rng):
    """The same complex with its vertex list in a random order."""
    order = list(range(len(complex_.vertices)))
    rng.shuffle(order)
    new_index = {old: i for i, old in enumerate(order)}
    return ChromaticComplex(
        tuple(complex_.vertices[old] for old in order),
        tuple(tuple(sorted(new_index[v] for v in facet)) for facet in complex_.facets),
    )


def relabeled(frame, rng):
    """A copy of ``frame`` with its states in a random order, and the
    isomorphism from ``frame`` onto it."""
    perm = list(range(frame.state_count))
    rng.shuffle(perm)
    rows = [[0] * frame.state_count for _ in range(frame.agent_count)]
    for a, row in enumerate(frame.partitions):
        for s, label in enumerate(row):
            rows[a][perm[s]] = label
    return new_frame(frame.state_count, frame.agent_count, rows), FrameMorphism(tuple(perm))


def proper_frames():
    frames = [protocol_action_model(n, r).frame for n in (1, 2) for r in (1, 2)]
    frames += [builtin("testset", n).output.frame for n in (1, 2)]
    frames += [builtin("snapshot", n).output.frame for n in (1, 2)]
    frames.append(builtin("two_testset", 2).output.frame)
    return frames


def test_complex_to_frame_matches_the_per_facet_reading():
    rng = random.Random(2411)
    frames = proper_frames()
    while len(frames) < 200:
        states, agents = rng.randint(1, 25), rng.randint(1, 13)
        labels = rng.randint(1, states)
        frame = new_frame(
            states,
            agents,
            [[rng.randrange(labels) for _ in range(states)] for _ in range(agents)],
        )
        if is_proper(frame):
            frames.append(frame)
    unordered = 0
    for frame in frames:
        complex_ = frame_to_complex(frame)
        shuffled = shuffled_vertices(complex_, rng)
        colors = [c for c, _ in shuffled.vertices]
        unordered += colors != sorted(colors)
        assert complex_to_frame(shuffled) == per_facet_complex_to_frame(shuffled)
        assert complex_to_frame(complex_) == per_facet_complex_to_frame(complex_) == frame
    assert unordered > 150


def seeded_morphisms(rng):
    """(f, src, dst) triples of morphisms between proper frames."""
    frames = proper_frames()
    cases = [(identity_morphism(frame), frame, frame) for frame in frames]
    for frame in frames:
        point = new_frame(1, frame.agent_count, [[0]] * frame.agent_count)
        cases.append((FrameMorphism((0,) * frame.state_count), frame, point))
    small = [frame for frame in frames if frame.state_count <= 13]
    for left in small:
        for right in small:
            if left.agent_count == right.agent_count:
                prod, to_left, to_right = product(left, right)
                cases += [(to_left, prod, left), (to_right, prod, right)]
    for n in (1, 2):
        task = builtin("snapshot", n)
        decision = solve(task).decision
        proto = protocol_action_model(n, 1).frame
        index = {t: i for i, t in enumerate(task.output.tuples)}
        decided = FrameMorphism(tuple(
            index[tuple(decision.value(a, proto.partitions[a][k]) for a in range(n + 1))]
            for k in range(proto.state_count)
        ))
        cases.append((decided, proto, task.output.frame))
    # each again into a relabeled target and out of a relabeled source
    for f, src, dst in list(cases):
        dst2, onto = relabeled(dst, rng)
        cases.append((FrameMorphism(tuple(onto(f(u)) for u in src.states())), src, dst2))
        src2, onto = relabeled(src, rng)
        back = [0] * src.state_count
        for u in src.states():
            back[onto(u)] = f(u)
        cases.append((FrameMorphism(tuple(back)), src2, dst))
    return cases


def test_morphism_to_simplicial_matches_the_both_complexes_form():
    cases = seeded_morphisms(random.Random(1729))
    assert len(cases) > 100
    for f, src, dst in cases:
        assert is_morphism(f, src, dst)
        assert morphism_to_simplicial(f, src, dst) == both_complexes_morphism_to_simplicial(
            f, src, dst
        )


def test_morphism_to_simplicial_refuses_improper_frames_as_before():
    full = protocol_model(2, 1).frame
    coarse = input_model(2, 1).frame
    point = new_frame(1, 3, [[0], [0], [0]])
    assert is_proper(full) and not is_proper(coarse)
    cases = [
        (identity_morphism(full), full, coarse),
        (identity_morphism(coarse), coarse, coarse),
        (FrameMorphism((0,) * 13), coarse, point),
    ]
    for f, src, dst in cases:
        assert is_morphism(f, src, dst)
        for translate in (morphism_to_simplicial, both_complexes_morphism_to_simplicial):
            with pytest.raises(ValueError, match="^frame is not proper: duality undefined$"):
                translate(f, src, dst)


# ---------------------------------------------------------------------------
# serialization

def test_complex_json_roundtrip():
    complex_ = frame_to_complex(protocol_model(2, 1).frame)
    data = complex_to_json(complex_)
    vertices = tuple((v["color"], v["label"]) for v in data["vertices"])
    assert ChromaticComplex(vertices, tuple(map(tuple, data["facets"]))) == complex_


def test_complex_dot_mentions_shared_colors():
    complex_ = frame_to_complex(path_frame())
    dot = complex_to_dot(complex_)
    assert dot == complex_to_dot(complex_)
    assert "graph complex {" in dot
    assert '[label="p"]' in dot or '[label="q"]' in dot


def all_pairs_complex_to_dot(complex_):
    """The complex writer as it was before the related-pairs walk: the
    shared vertices of every pair of facets."""
    lines = ["graph complex {", "  node [shape=box];"]
    for k, facet in enumerate(complex_.facets):
        label = " ".join(complex_.vertices[v][1] for v in facet)
        lines.append(f'  f{k} [label="{label}"];')
    for i in range(complex_.facet_count):
        for j in range(i + 1, complex_.facet_count):
            shared = set(complex_.facets[i]) & set(complex_.facets[j])
            if shared:
                names = ",".join(
                    sorted(agent_name(complex_.vertices[v][0]) for v in shared)
                )
                lines.append(f'  f{i} -- f{j} [label="{names}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_complex_dot_matches_the_all_pairs_writer():
    # the dual complexes of random proper frames with up to 13 colors,
    # so agent names past z (a11, a12) sort before p in edge labels
    rng = random.Random(7883)
    compared = 0
    while compared < 300:
        states, agents = rng.randint(0, 25), rng.randint(1, 13)
        labels = rng.randint(1, max(1, states))
        frame = new_frame(
            states,
            agents,
            [[rng.randrange(labels) for _ in range(states)] for _ in range(agents)],
        )
        if is_proper(frame):
            complex_ = frame_to_complex(frame)
            assert complex_to_dot(complex_) == all_pairs_complex_to_dot(complex_)
            compared += 1


@pytest.mark.parametrize("complex_", [
    ChromaticComplex((), ()),
    ChromaticComplex((), ((),)),
    ChromaticComplex(((0, "p0"), (1, "q0"), (1, "q1")), ()),
], ids=["empty", "one empty facet", "vertices without facets"])
def test_complex_dot_of_degenerate_complexes(complex_):
    assert complex_to_dot(complex_) == all_pairs_complex_to_dot(complex_)
