"""Frame/complex duality, simplicial maps, and simplicial models."""

import random

import pytest

from epikit.kernel import (
    FormatError,
    FrameMorphism,
    agent_name,
    are_isomorphic,
    identity_morphism,
    is_proper,
    new_frame,
    product,
)
from epikit.logic import KripkeModel
from epikit.schedules import protocol_action_model, protocol_model
from epikit.tasks import builtin
from epikit.topology import (
    ChromaticComplex,
    SimplicialMap,
    complex_from_json,
    complex_to_dot,
    complex_to_frame,
    complex_to_json,
    frame_to_complex,
    model_to_simplicial,
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
    complex_, facet_of_state = frame_to_complex(frame)
    assert len(complex_.vertices) == 3
    assert complex_.facet_count == 1
    assert facet_of_state == (0,)


def test_two_process_protocol_frame_is_a_path():
    complex_, _ = frame_to_complex(path_frame())
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
    complex_, _ = frame_to_complex(frame)
    assert complex_.facet_count == 13
    for color in range(3):
        assert sum(1 for c, _ in complex_.vertices if c == color) == 4
    # pure of dimension 2
    assert all(len(f) == 3 for f in complex_.facets)


def test_facets_share_vertex_iff_states_related():
    frame = protocol_model(2, 1).frame
    complex_, _ = frame_to_complex(frame)
    tables = complex_.facet_vertex_by_color
    for u in range(13):
        for v in range(13):
            for a in range(3):
                assert (tables[u][a] == tables[v][a]) == frame.related(a, u, v)


def test_improper_frame_rejected():
    improper = new_frame(2, 2, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        frame_to_complex(improper)


# ---------------------------------------------------------------------------
# complex -> frame and round trips

def test_single_facet_complex():
    complex_ = ChromaticComplex(((0, "a"), (1, "b"), (2, "c")), ((0, 1, 2),))
    frame = complex_to_frame(complex_)
    assert frame.state_count == 1
    assert frame.agent_count == 3


def test_path_roundtrip():
    frame = path_frame()
    complex_, _ = frame_to_complex(frame)
    assert are_isomorphic(complex_to_frame(complex_), frame)


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
    # 2,197 states, one step of the isomorphism search each
    assert roundtrip_check(protocol_action_model(2, 3).frame)


def test_roundtrip_check_rejects_improper():
    with pytest.raises(ValueError):
        roundtrip_check(new_frame(2, 2, [[0, 0], [0, 0]]))


def test_reverse_roundtrip_preserves_complex_shape():
    # complex -> frame -> complex: same facet count, same vertex census
    # per color, isomorphic dual frame
    for frame in (path_frame(), builtin("two_testset", 2).output.frame):
        original, _ = frame_to_complex(frame)
        rebuilt, _ = frame_to_complex(complex_to_frame(original))
        assert rebuilt.facet_count == original.facet_count
        for color in range(original.color_count):
            assert sum(1 for c, _ in rebuilt.vertices if c == color) == sum(
                1 for c, _ in original.vertices if c == color
            )
        assert are_isomorphic(complex_to_frame(rebuilt), complex_to_frame(original))


def test_hexagon_output_complex_is_a_ring():
    frame = builtin("two_testset", 2).output.frame
    complex_, _ = frame_to_complex(frame)
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
    assert are_isomorphic(complex_to_frame(complex_), frame)


def test_malformed_complexes_rejected():
    with pytest.raises(ValueError):  # not pure
        ChromaticComplex(((0, "a"), (1, "b"), (2, "c")), ((0, 1, 2), (0, 1)))
    with pytest.raises(ValueError):  # repeated color in a facet
        ChromaticComplex(((0, "a"), (0, "b"), (1, "c")), ((0, 1, 2),))
    with pytest.raises(ValueError):  # duplicate facet
        ChromaticComplex(((0, "a"), (1, "b")), ((0, 1), (0, 1)))


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
    src_complex, _ = frame_to_complex(prod)
    dst_complex, _ = frame_to_complex(base)
    assert validate_simplicial_map(smap, src_complex, dst_complex)


def test_non_morphism_rejected():
    src = new_frame(2, 1, [[0, 0]])
    dst = new_frame(2, 1, [[0, 1]])
    with pytest.raises(ValueError):
        morphism_to_simplicial(FrameMorphism((0, 1)), src, dst)


def test_color_breaking_map_invalid():
    complex_ = ChromaticComplex(((0, "a"), (1, "b")), ((0, 1),))
    swapped = SimplicialMap((1, 0))
    assert not validate_simplicial_map(swapped, complex_, complex_)


def test_simplicial_translation_respects_composition():
    # translating g after f equals composing the two translations
    from epikit.kernel import FrameMorphism as FM, compose_morphisms

    src = protocol_model(2, 1).frame
    mid = builtin("snapshot", 2).output.frame  # same relation, same order
    top = new_frame(1, 3, [[0], [0], [0]])
    f = identity_morphism(src)
    g = FM((0,) * mid.state_count)
    composed = morphism_to_simplicial(compose_morphisms(g, f), src, top)
    first = morphism_to_simplicial(f, src, mid)
    second = morphism_to_simplicial(g, mid, top)
    assert composed.vertex_map == tuple(
        second.vertex_map[v] for v in first.vertex_map
    )
    assert len(set(first.vertex_map)) == 12  # bijective on the 12 vertices
    assert set(composed.vertex_map) == {0, 1, 2}


# ---------------------------------------------------------------------------
# simplicial models

def test_simplicial_model_from_classwise_model():
    # atoms decided per class survive the vertex decoration
    frame = new_frame(2, 2, [[0, 1], [0, 1]])
    model = KripkeModel(frame, ("left",), (frozenset((0,)), frozenset()))
    smodel = model_to_simplicial(model)
    assert smodel.facet_literals(0) == frozenset({"left"})
    assert smodel.facet_literals(1) == frozenset({"!left"})


def test_simplicial_model_rejects_undecided_atoms():
    # at the middle state both classes mix the atom's value, so no vertex
    # of its facet decides it
    frame = new_frame(3, 2, [[0, 0, 1], [0, 1, 1]])
    model = KripkeModel(
        frame, ("x",), (frozenset(), frozenset((0,)), frozenset())
    )
    with pytest.raises(ValueError):
        model_to_simplicial(model)


# ---------------------------------------------------------------------------
# serialization

def test_complex_json_roundtrip():
    complex_, _ = frame_to_complex(protocol_model(2, 1).frame)
    assert complex_from_json(complex_to_json(complex_)) == complex_


EDGE = {"vertices": [{"color": 0, "label": "a"}, {"color": 1, "label": "b"}],
        "facets": [[0, 1]]}


@pytest.mark.parametrize("data", [
    [EDGE["vertices"], EDGE["facets"]],
    {"vertices": EDGE["vertices"]},
    {"facets": EDGE["facets"]},
    {**EDGE, "vertices": {"0": {"color": 0, "label": "a"}}},
    {**EDGE, "vertices": [0, 1]},
    {**EDGE, "vertices": [{"color": 0}, {"color": 1, "label": "b"}]},
    {**EDGE, "vertices": [{"color": "0", "label": "a"}, {"color": 1, "label": "b"}]},
    {**EDGE, "vertices": [{"color": True, "label": "a"}, {"color": 1, "label": "b"}]},
    {**EDGE, "vertices": [{"color": 0.0, "label": "a"}, {"color": 1, "label": "b"}]},
    {**EDGE, "facets": {"0": [0, 1]}},
    {**EDGE, "facets": [0, 1]},
    {**EDGE, "facets": [[0, 2]]},
    {**EDGE, "facets": [[-1, 1]]},
    {**EDGE, "facets": [[0, "1"]]},
    {**EDGE, "facets": [[0, 1.0]]},
    {**EDGE, "facets": [[0]]},  # not pure
    {**EDGE, "facets": [[0, 1], [1, 0]]},  # the same facet twice
], ids=[
    "not an object", "no facets", "no vertices", "vertices not a list",
    "vertex not an object", "vertex without label", "string color",
    "boolean color", "float color", "facets not a list", "facet not a list",
    "vertex out of range", "negative vertex", "string vertex", "float vertex",
    "facet missing a color", "duplicate facet",
])
def test_complex_from_json_rejects_malformed_data(data):
    with pytest.raises(FormatError):
        complex_from_json(data)


def test_complex_dot_mentions_shared_colors():
    complex_, _ = frame_to_complex(path_frame())
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
            complex_, _ = frame_to_complex(frame)
            assert complex_to_dot(complex_) == all_pairs_complex_to_dot(complex_)
            compared += 1


@pytest.mark.parametrize("complex_", [
    ChromaticComplex((), ()),
    ChromaticComplex((), ((),)),
    ChromaticComplex(((0, "p0"), (1, "q0"), (1, "q1")), ()),
], ids=["empty", "one empty facet", "vertices without facets"])
def test_complex_dot_of_degenerate_complexes(complex_):
    assert complex_to_dot(complex_) == all_pairs_complex_to_dot(complex_)
