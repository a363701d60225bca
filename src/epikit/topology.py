"""Chromatic simplicial complexes dual to proper Kripke frames.

A proper frame (no two states alike to every agent) corresponds to a pure
chromatic complex: one facet per state, one vertex per (agent, class)
pair, and two facets share their a-colored vertex exactly when the states
are a-related.  Only facets are stored; faces are implied by downward
closure and never materialized.
"""

from __future__ import annotations

from functools import cached_property

from .kernel import (
    FormatError,
    FrameMorphism,
    KripkeFrame,
    _related_pairs,
    agent_name,
    is_morphism,
    is_proper,
    new_frame,
)
from .logic import KripkeModel
from .record import Record


class ChromaticComplex(Record):
    """Pure chromatic complex given by colored vertices and its facets.

    Every facet must have one vertex of each color 0..dimension, and no
    facet may repeat.  Vertex labels are free-form payload; equality of
    structure ignores them.
    """

    vertices: tuple[tuple[int, str], ...]  # (color, label)
    facets: tuple[tuple[int, ...], ...]  # sorted vertex indices

    def __post_init__(self):
        colors = sorted({c for c, _ in self.vertices})
        if self.vertices and colors != list(range(len(colors))):
            raise ValueError("vertex colors must be dense 0..n")
        seen = set()
        for facet in self.facets:
            if len(facet) != len(colors):
                raise ValueError("complex is not pure: facet size != color count")
            facet_colors = {self.vertices[v][0] for v in facet}
            if len(facet_colors) != len(facet):
                raise ValueError("facet repeats a color")
            if tuple(sorted(facet)) != facet:
                raise ValueError("facet vertex indices must be sorted")
            if facet in seen:
                raise ValueError("duplicate facet")
            seen.add(facet)

    @property
    def color_count(self) -> int:
        return len({c for c, _ in self.vertices})

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    @cached_property
    def facet_vertex_by_color(self) -> tuple[dict[int, int], ...]:
        """Per facet, the vertex of each color."""
        return tuple(
            {self.vertices[v][0]: v for v in facet} for facet in self.facets
        )


class SimplicialMap(Record):
    """Vertex map between complexes; validated color-preserving and
    facet-preserving (chromatic, hence dimension-preserving)."""

    vertex_map: tuple[int, ...]

    def __call__(self, vertex: int) -> int:
        return self.vertex_map[vertex]


def validate_simplicial_map(
    f: SimplicialMap, src: ChromaticComplex, dst: ChromaticComplex
) -> bool:
    if len(f.vertex_map) != len(src.vertices):
        raise ValueError("vertex map must be total")
    for v, image in enumerate(f.vertex_map):
        if not 0 <= image < len(dst.vertices):
            raise ValueError(f"vertex image {image} out of range")
        if src.vertices[v][0] != dst.vertices[image][0]:
            return False
    dst_facets = set(dst.facets)
    for facet in src.facets:
        image = tuple(sorted({f.vertex_map[v] for v in facet}))
        if image not in dst_facets:
            return False
    return True


def frame_to_complex(frame: KripkeFrame) -> tuple[ChromaticComplex, tuple[int, ...]]:
    """Dual complex of a proper frame.

    Vertices are (agent, class) pairs ordered by agent then class, labeled
    with the class's first state as representative.  Facet k collects the
    classes of state k, so the returned correspondence facet->state is the
    identity and is handed back explicitly.
    """
    if not is_proper(frame):
        raise ValueError("frame is not proper: duality undefined")
    vertex_index: dict[tuple[int, int], int] = {}
    vertices: list[tuple[int, str]] = []
    for a in range(frame.agent_count):
        for c, members in enumerate(frame.classes_by_agent[a]):
            vertex_index[(a, c)] = len(vertices)
            vertices.append((a, f"{agent_name(a)}:c{c}(s{members[0]})"))
    facets = tuple(
        tuple(
            sorted(
                vertex_index[(a, frame.partitions[a][s])]
                for a in range(frame.agent_count)
            )
        )
        for s in frame.states()
    )
    complex_ = ChromaticComplex(tuple(vertices), facets)
    return complex_, tuple(range(frame.state_count))


def complex_to_frame(complex_: ChromaticComplex) -> KripkeFrame:
    """Frame with one state per facet; states are a-related iff the facets
    share their a-colored vertex."""
    n_colors = complex_.color_count
    if n_colors == 0:
        raise ValueError("complex has no vertices")
    partitions = [
        [complex_.facet_vertex_by_color[k][a] for k in range(complex_.facet_count)]
        for a in range(n_colors)
    ]
    return new_frame(complex_.facet_count, n_colors, partitions)


def roundtrip_check(frame: KripkeFrame) -> bool:
    """Frame -> complex -> frame lands on an isomorphic copy."""
    from .kernel import are_isomorphic

    complex_, _ = frame_to_complex(frame)
    return are_isomorphic(frame, complex_to_frame(complex_))


def morphism_to_simplicial(
    f: FrameMorphism, src: KripkeFrame, dst: KripkeFrame
) -> SimplicialMap:
    """Translate a frame morphism between proper frames to the dual
    chromatic simplicial map: vertex (a, class of u) goes to (a, class of
    f(u)), well defined because morphisms keep related states related."""
    if not is_morphism(f, src, dst):
        raise ValueError("not a frame morphism")
    src_complex, _ = frame_to_complex(src)
    dst_complex, _ = frame_to_complex(dst)
    # facet u is state u's, so its a-colored vertex is (a, class of u)
    src_vertex = src_complex.facet_vertex_by_color
    dst_vertex = dst_complex.facet_vertex_by_color
    vertex_map = [0] * len(src_complex.vertices)
    for a in range(src.agent_count):
        for members in src.classes_by_agent[a]:
            u = members[0]
            vertex_map[src_vertex[u][a]] = dst_vertex[f(u)][a]
    smap = SimplicialMap(tuple(vertex_map))
    if not validate_simplicial_map(smap, src_complex, dst_complex):
        raise ValueError("induced vertex map is not chromatic simplicial")
    return smap


class SimplicialModel(Record):
    """Complex with literal sets on vertices; facet labels are unions.

    A literal is an atom name or ``!name``.  Construction checks that
    every facet's union decides every atom of the universe (maximality);
    models whose atoms are not determined classwise cannot be represented
    this way and are rejected.
    """

    complex: ChromaticComplex
    ap: tuple[str, ...]
    vertex_literals: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(self.vertex_literals) != len(self.complex.vertices):
            raise ValueError("need one literal set per vertex")
        for k, facet in enumerate(self.complex.facets):
            union: set[str] = set()
            for v in facet:
                union |= self.vertex_literals[v]
            for name in self.ap:
                if name not in union and f"!{name}" not in union:
                    raise ValueError(
                        f"facet {k} does not decide atom {name!r}: "
                        "vertex valuations are not maximal"
                    )
            for name in self.ap:
                if name in union and f"!{name}" in union:
                    raise ValueError(f"facet {k} is inconsistent on atom {name!r}")

    def facet_literals(self, facet_index: int) -> frozenset[str]:
        out: set[str] = set()
        for v in self.complex.facets[facet_index]:
            out |= self.vertex_literals[v]
        return frozenset(out)


def model_to_simplicial(model: KripkeModel) -> SimplicialModel:
    """Dual simplicial model of a proper Kripke model.

    Vertex (a, class) carries the literals all states of the class agree
    on.  Raises if some facet's union fails to decide an atom, which
    happens whenever an atom cuts through every agent's class at a state.
    """
    frame = model.frame
    complex_, _ = frame_to_complex(frame)
    literals: list[frozenset[str]] = []
    for a in range(frame.agent_count):
        for members in frame.classes_by_agent[a]:
            shared: set[str] = set()
            for i, name in enumerate(model.ap):
                values = {i in model.valuation[s] for s in members}
                if values == {True}:
                    shared.add(name)
                elif values == {False}:
                    shared.add(f"!{name}")
            literals.append(frozenset(shared))
    return SimplicialModel(complex_, model.ap, tuple(literals))


# ---------------------------------------------------------------------------
# serialization

def complex_to_json(complex_: ChromaticComplex) -> dict:
    return {
        "vertices": [{"color": c, "label": lbl} for c, lbl in complex_.vertices],
        "facets": [list(facet) for facet in complex_.facets],
    }


def complex_from_json(data: dict) -> ChromaticComplex:
    """The complex :func:`complex_to_json` wrote.  Anything else, such as
    a missing key, a color that is not an integer, a facet naming a
    vertex that does not exist or a facet set that is not a pure
    chromatic complex, raises :class:`~epikit.kernel.FormatError`."""
    if not isinstance(data, dict):
        raise FormatError("a complex must be a JSON object")
    missing = [key for key in ("vertices", "facets") if key not in data]
    if missing:
        raise FormatError(f"complex is missing {', '.join(missing)}")
    vertices, facets = data["vertices"], data["facets"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, dict)
        and type(v.get("color")) is int
        and isinstance(v.get("label"), str)
        for v in vertices
    ):
        raise FormatError(
            "vertices must be objects with an integer color and a string label"
        )
    if not isinstance(facets, list) or not all(
        isinstance(facet, list)
        and all(type(v) is int and 0 <= v < len(vertices) for v in facet)
        for facet in facets
    ):
        raise FormatError(
            f"facets must be lists of vertex indices 0..{len(vertices) - 1}"
        )
    try:
        return ChromaticComplex(
            tuple((v["color"], v["label"]) for v in vertices),
            tuple(tuple(sorted(facet)) for facet in facets),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def complex_to_dot(complex_: ChromaticComplex) -> str:
    """Facet-adjacency graph: nodes are facets, edges labeled with the
    colors of the shared vertices."""
    lines = ["graph complex {", "  node [shape=box];"]
    for k, facet in enumerate(complex_.facets):
        label = " ".join(complex_.vertices[v][1] for v in facet)
        lines.append(f'  f{k} [label="{label}"];')
    # a vertexless complex has at most one (empty) facet, so no edges; in
    # the dual frame, facets are related by the colors of shared vertices
    if complex_.vertices:
        names = [agent_name(c) for c in range(complex_.color_count)]
        # names sort apart from colors (a11 before p): sort each color set once
        labels: dict[tuple[int, ...], str] = {}
        for i, j, colors in _related_pairs(complex_to_frame(complex_)):
            key = tuple(colors)
            shared = labels.get(key)
            if shared is None:
                shared = labels[key] = ",".join(sorted(names[c] for c in colors))
            lines.append(f'  f{i} -- f{j} [label="{shared}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
