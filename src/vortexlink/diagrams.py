"""Link diagrams and Milnor mu-bar invariants.

This is the combinatorial oracle: it shares no code with the grid pipeline.
A diagram is arcs (per-component cyclic sequences) plus crossings
(over-arc, split under-arc pair, sign).  `scene_diagram` is the one
projection of a scene: `lk` reads its linking matrix and blackboard
framings off the diagram, `oracle --scene` and `massey` its mu-bar.
Meridian generators are rewritten to base meridians by depth-bounded
conjugacy substitution, longitudes are Magnus-expanded exactly over the
integers, and mu-bar is a word coefficient.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from .errors import DegenerateProjection, InconsistentDiagram, IndeterminateInvariant, SceneError
from .magnus import word_series
from .scenes import _array, _number, _object, _only, _require

DIAGRAM_SCHEMA = "vdiag-1"

# projection directions tried before a scene is declared degenerate
DIRECTION_TRIES = 32


@dataclass(frozen=True)
class DiagramCrossing:
    over: int        # arc id passing over
    under_in: int    # arc id entering the crossing below
    under_out: int   # arc id leaving the crossing below
    sign: int        # +1 or -1


def _pair_sums(n, crossings, error):
    """The signed crossing count of each pair of distinct components, from
    (over component, under component, sign) triples.  Two closed curves
    cross an even number of times in a generic projection: an odd count
    raises `error`."""
    twice = [[0] * n for _ in range(n)]
    for i, j, sign in crossings:
        if i != j:
            twice[i][j] += sign
            twice[j][i] += sign
    for i in range(n):
        for j in range(i + 1, n):
            if twice[i][j] % 2:
                raise error(f"components {i + 1} and {j + 1} cross an odd number of times")
    return twice


@dataclass
class LinkDiagram:
    n_components: int
    arcs: list                 # per component: cyclic list of arc ids
    crossings: list            # DiagramCrossing records
    # arc id -> (component, position in its arc list), set by validate
    arc_pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    # -- structure ---------------------------------------------------------

    def validate(self):
        if self.n_components != len(self.arcs):
            raise InconsistentDiagram(
                f"{self.n_components} components but {len(self.arcs)} arc lists"
            )
        self.arc_pos = {}
        for c, seq in enumerate(self.arcs):
            if not seq:
                raise InconsistentDiagram("component with no arcs")
            for t, a in enumerate(seq):
                if a in self.arc_pos:
                    raise InconsistentDiagram(f"arc {a} in two components")
                self.arc_pos[a] = (c, t)
        unders = [0] * self.n_components
        for x in self.crossings:
            if x.sign not in (-1, 1):
                raise InconsistentDiagram(f"bad sign {x.sign}")
            for a in (x.over, x.under_in, x.under_out):
                if a not in self.arc_pos:
                    raise InconsistentDiagram(f"crossing uses unknown arc {a}")
            c, i = self.arc_pos[x.under_in]
            seq = self.arcs[c]
            if seq[(i + 1) % len(seq)] != x.under_out:
                raise InconsistentDiagram(
                    f"crossing does not split one under-arc: "
                    f"{x.under_in} -> {x.under_out}"
                )
            unders[c] += 1
        # every arc boundary must be produced by exactly one undercrossing
        for c, seq in enumerate(self.arcs):
            if len(seq) > 1 and unders[c] != len(seq):
                raise InconsistentDiagram(
                    f"component {c}: {len(seq)} arcs but {unders[c]} "
                    "undercrossings"
                )
        self.linking_matrix()  # an odd count between two components raises

    def _component(self, arc_id: int) -> int:
        return self.arc_pos[arc_id][0]

    def linking_matrix(self):
        """Entry (i, j): half the signed count of the crossings between
        distinct components i and j, an exact integer (an odd count raises
        InconsistentDiagram)."""
        twice = _pair_sums(
            self.n_components,
            ((self._component(x.over), self._component(x.under_in), x.sign)
             for x in self.crossings),
            InconsistentDiagram,
        )
        return [[t // 2 for t in row] for row in twice]

    def undercrossings_along(self, component: int):
        """Crossings under component, ordered by the arc sequence: entry t
        sits between arc t and arc t+1 (cyclically)."""
        by_in = {x.under_in: x for x in self.crossings
                 if self._component(x.under_in) == component}
        return [by_in[a] for a in self.arcs[component] if a in by_in]

    def self_writhe(self, component: int) -> int:
        """The blackboard framing: the signed count of the crossings of a
        component with itself."""
        return sum(
            x.sign
            for x in self.crossings
            if self._component(x.under_in) == component == self._component(x.over)
        )


# -- documents ---------------------------------------------------------------------

def diagram_to_doc(d: LinkDiagram) -> dict:
    """The diagram document (schema "vdiag-1") of a diagram."""
    return {
        "schema": DIAGRAM_SCHEMA,
        "components": d.n_components,
        "arcs": d.arcs,
        "crossings": [asdict(x) for x in d.crossings],
    }


def diagram_from_doc(doc) -> LinkDiagram:
    """The diagram of a document as `scenes.read_json` returns it.  A
    document of the wrong shape raises SceneError, a diagram whose parts do
    not fit together InconsistentDiagram."""
    doc = _object(doc, "diagram")
    if doc.get("schema") != DIAGRAM_SCHEMA:
        raise SceneError(f"expected schema {DIAGRAM_SCHEMA!r}, got {doc.get('schema')!r}")
    _only(doc, ("schema", "components", "arcs", "crossings"), "diagram")

    def whole(value, what):
        return int(_number(value, what, whole=True))

    arcs = [
        [whole(a, "arc id") for a in _array(seq, "arc list")]
        for seq in _array(_require(doc, "arcs", "diagram"), "arcs")
    ]
    names = [f.name for f in fields(DiagramCrossing)]
    crossings = []
    for x in _array(_require(doc, "crossings", "diagram"), "crossings"):
        x = _only(x, names, "crossing")
        crossings.append(DiagramCrossing(**{
            name: whole(_require(x, name, "crossing"), f"crossing {name}") for name in names
        }))
    n = whole(_require(doc, "components", "diagram"), "diagram components")
    return LinkDiagram(n, arcs, crossings)


def diagram_from_curves(curves, direction) -> LinkDiagram:
    """Project curves along a generic direction and assemble the diagram.

    Arc ids are assigned per component in traversal order.  Raises
    DegenerateProjection through the crossing finder, or when two
    components cross an odd number of times (`scene_diagram` retries with
    another direction).
    """
    from .linking import find_crossings

    crossings = find_crossings(curves, direction)
    n = len(curves)
    _pair_sums(n, ((x.comp_over, x.comp_under, x.sign) for x in crossings),
               DegenerateProjection)
    # under-crossing parameter positions per component
    events = [[] for _ in range(n)]
    for idx, x in enumerate(crossings):
        events[x.comp_under].append((x.seg_under + x.s_under, idx))
    for ev in events:
        ev.sort()
    # arcs: component c has max(1, #under) arcs; arc t spans event t-1 -> t
    arc_ids = []
    next_id = 0
    for c in range(n):
        m = max(1, len(events[c]))
        arc_ids.append(list(range(next_id, next_id + m)))
        next_id += m

    def arc_at(comp: int, position: float) -> int:
        """Arc of `comp` containing the given parameter position."""
        ev = events[comp]
        if not ev:
            return arc_ids[comp][0]
        # arc t starts at event t-1: positions wrap cyclically
        for t in range(len(ev) - 1, -1, -1):
            if position >= ev[t][0]:
                return arc_ids[comp][(t + 1) % len(ev)]
        return arc_ids[comp][0]

    records = []
    for c in range(n):
        ev = events[c]
        for t, (_, idx) in enumerate(ev):
            x = crossings[idx]
            under_in = arc_ids[c][t]
            under_out = arc_ids[c][(t + 1) % len(ev)]
            over = arc_at(x.comp_over, x.seg_over + x.s_over)
            records.append(DiagramCrossing(over, under_in, under_out, x.sign))
    return LinkDiagram(n, arc_ids, records)


def scene_diagram(link, rng) -> LinkDiagram:
    """The diagram of a scene, projected along the first of DIRECTION_TRIES
    directions rng.standard_normal(3) for which `diagram_from_curves`
    raises no DegenerateProjection (deterministic per rng)."""
    for _ in range(DIRECTION_TRIES):
        direction = rng.standard_normal(3)
        try:
            return diagram_from_curves(link.components, direction)
        except DegenerateProjection:
            continue
    raise DegenerateProjection(f"no generic direction found in {DIRECTION_TRIES} tries")


# -- meridian rewriting and longitudes --------------------------------------------

class _Rewriter:
    """Depth-bounded expansion of arc meridians into base-meridian words.

    Arc t+1 of a component equals the conjugate over^-sign . arc_t . over^sign
    (the direction matching our projection sign convention: with the other
    direction the degree-2 longitude coefficients fail to be projection
    invariants), unrolled to the component's base arc; over-arcs recurse
    with one less depth and bottom out at their component's meridian class
    (exact modulo weight > depth commutators).  Words are memoised per
    (arc, depth), so one rewriter serves every longitude of a diagram.
    """

    def __init__(self, diagram: LinkDiagram):
        self.d = diagram
        self.events = {
            c: diagram.undercrossings_along(c) for c in range(diagram.n_components)
        }
        self.memo = {}

    def arc_word(self, arc_id: int, depth: int):
        """Word in signed base-meridian letters (1-based component index)."""
        key = (arc_id, depth)
        if key in self.memo:
            return self.memo[key]
        c, t = self.d.arc_pos[arc_id]
        if depth <= 0 or t == 0:
            word = (c + 1,)
        else:
            conj = []
            for s in range(t - 1, -1, -1):  # o_{t-1} ... o_0, leftmost last
                x = self.events[c][s]
                over_word = self.arc_word(x.over, depth - 1)
                conj.extend(
                    _invert(over_word) if x.sign > 0 else over_word
                )
            word = tuple(conj) + (c + 1,) + _invert(tuple(conj))
        self.memo[key] = word
        return word

    def longitude(self, component: int, depth: int):
        """See `longitude_word`."""
        letters = []
        for x in self.events[component]:
            over = self.arc_word(x.over, depth - 1)
            letters.extend(over if x.sign > 0 else _invert(over))
        w = self.d.self_writhe(component)
        mer = component + 1
        letters.extend([-mer if w > 0 else mer] * abs(w))
        return tuple(letters)


def _invert(word):
    return tuple(-w for w in reversed(word))


def longitude_word(d: LinkDiagram, component: int, depth: int = 3):
    """Longitude of a component as a word in base meridians: the over-arcs
    met while traversing it, with the blackboard framing removed by a
    g_component^(-writhe) tail.  The degree-1 self coefficient is zero."""
    return _Rewriter(d).longitude(component, depth)


def _proper_subsequences(index):
    """Ordered proper subsequences of length >= 2."""
    n = len(index)
    out = set()
    for mask in range(1, 2**n - 1):
        sub = tuple(index[i] for i in range(n) if mask >> i & 1)
        if len(sub) >= 2:
            out.add(sub)
    return sorted(out, key=lambda s: (len(s), s))


def _mu_bars(d: LinkDiagram, index: tuple) -> dict:
    """mu-bar of every proper sub-multi-index of the integer tuple
    `index`, in `_proper_subsequences` order, then of `index` itself, each
    longitude expanded once through one rewriter.  The first non-zero
    sub-index raises IndeterminateInvariant: `index`'s invariant is then
    defined only modulo it."""
    if len(index) < 2:
        raise ValueError("mu-bar needs a multi-index of length >= 2")
    for i in index:
        if not 1 <= i <= d.n_components:
            raise ValueError(f"component index {i} out of range")
    rewriter = _Rewriter(d)
    values = {}
    for sub in _proper_subsequences(index) + [index]:
        truncation = len(sub) - 1
        word = rewriter.longitude(sub[-1] - 1, truncation)
        values[sub] = word_series(word, truncation).coefficient(sub[:-1])
        if sub != index and values[sub] != 0:
            raise IndeterminateInvariant(
                f"lower invariant mu{''.join(map(str, sub))} is nonzero",
                sub_index=sub,
            )
    return values


def mu_bar(d: LinkDiagram, index) -> int:
    """Milnor mu-bar invariant of the multi-index (i_1 ... i_k i_last):
    the coefficient of X_{i_1}..X_{i_k} in the Magnus expansion of the
    longitude of component i_last.

    Requires all mu-bar over proper sub-multi-indices to vanish (the
    invariant is otherwise defined only modulo them): raises
    IndeterminateInvariant carrying the offending sub-index.
    """
    index = tuple(int(i) for i in index)
    return _mu_bars(d, index)[index]


def oracle_report(diagram: LinkDiagram, index: str, timer) -> dict:
    """The `oracle` report section: mu-bar of the multi-index `index` (a
    digit string such as "123") and, as the vanishing-check trail, mu-bar of
    every proper subsequence of length >= 2.  Timed as the stage "mu_bar"."""
    digits = tuple(int(ch) for ch in index)
    timer.start("mu_bar")
    values = _mu_bars(diagram, digits)
    value = values.pop(digits)
    timer.stop()
    trail = {"".join(map(str, sub)): v for sub, v in values.items()}
    return {"index": index, "value": int(value), "vanishing_checks": trail}
