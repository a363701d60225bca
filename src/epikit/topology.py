"""Chromatic simplicial complexes dual to proper Kripke frames.

A proper frame (no two states alike to every agent) corresponds to a pure
chromatic complex: one facet per state, one vertex per (agent, class)
pair, and two facets share their a-colored vertex exactly when the states
are a-related.  Only facets are stored; faces are implied by downward
closure and never materialized.
"""

from __future__ import annotations

from .kernel import (
    FrameMorphism,
    KripkeFrame,
    _related_pairs,
    agent_name,
    is_morphism,
    is_proper,
    new_frame,
)
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
            if not all(0 <= v < len(self.vertices) for v in facet):
                raise ValueError(f"facet {facet} is out of range for {len(self.vertices)} vertices")
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


class SimplicialMap(Record):
    """Vertex map between complexes; validated color-preserving and
    facet-preserving (chromatic, hence dimension-preserving)."""

    vertex_map: tuple[int, ...]


def validate_simplicial_map(
    f: SimplicialMap, src: ChromaticComplex, dst: ChromaticComplex
) -> bool:
    """Whether the map keeps colors and facets; kept for criterion 8."""
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


def frame_to_complex(frame: KripkeFrame) -> ChromaticComplex:
    """Dual complex of a proper frame.

    Vertices are (agent, class) pairs ordered by agent then class, labeled
    with the class's first state as representative.  The facets are
    ``frame.class_ids``, so facet k is state k.
    """
    if not is_proper(frame):
        raise ValueError("frame is not proper: duality undefined")
    vertices = tuple(
        (a, f"{agent_name(a)}:c{c}(s{members[0]})")
        for a, classes in enumerate(frame.classes_by_agent)
        for c, members in enumerate(classes)
    )
    return ChromaticComplex(vertices, frame.class_ids)


def complex_to_frame(complex_: ChromaticComplex) -> KripkeFrame:
    """Frame with one state per facet; states are a-related iff the facets
    share their a-colored vertex."""
    n_colors = complex_.color_count
    if n_colors == 0:
        raise ValueError("complex has no vertices")
    vertices = complex_.vertices
    partitions = [[0] * complex_.facet_count for _ in range(n_colors)]
    for k, facet in enumerate(complex_.facets):
        for v in facet:
            partitions[vertices[v][0]][k] = v
    return new_frame(complex_.facet_count, n_colors, partitions)


def roundtrip_check(frame: KripkeFrame) -> bool:
    """Frame -> complex -> frame lands on the same frame, compared with ==
    (acceptance criterion 5).  Raises ValueError on an improper frame."""
    return complex_to_frame(frame_to_complex(frame)) == frame


def morphism_to_simplicial(
    f: FrameMorphism, src: KripkeFrame, dst: KripkeFrame
) -> SimplicialMap:
    """The chromatic simplicial map dual to a frame morphism between proper
    frames, read off their ``class_ids`` without building the complexes:
    vertex (a, class of u) goes to (a, class of f(u)).  It is well defined
    because morphisms keep related states related, keeps colors because
    class ids are numbered agent by agent, and sends facet u to facet f(u).
    Kept for acceptance criterion 8 and perfbench's span list."""
    if src.agent_count != dst.agent_count or not is_morphism(f, src, dst):
        raise ValueError("not a frame morphism")
    if not (is_proper(src) and is_proper(dst)):
        raise ValueError("frame is not proper: duality undefined")
    vertex_map = [0] * sum(map(src.num_classes, range(src.agent_count)))
    for u, facet in enumerate(src.class_ids):
        for v, image in zip(facet, dst.class_ids[f(u)]):
            vertex_map[v] = image
    return SimplicialMap(tuple(vertex_map))


# ---------------------------------------------------------------------------
# serialization

def complex_to_json(complex_: ChromaticComplex) -> dict:
    return {
        "vertices": [{"color": c, "label": lbl} for c, lbl in complex_.vertices],
        "facets": [list(facet) for facet in complex_.facets],
    }


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
