"""Hypothesis fuzzing of the user-input front ends: the tangle DSL (`parse`
then `validate`), the tangle JSON loader and the element JSON loaders behind
`pa compute`.

Only planalg's own errors may escape.  Colours run up to the cap, and the
tokens go past it: the DSL and the element loaders refuse a colour above
`config.COLOUR_CAP` before a `Tangle` or `Diagram` allocates its points.
The tangle JSON loader gets endpoints of every JSON type beside ints.
"""

from hypothesis import example, given, settings, strategies as st

from planalg.cli import _from_json
from planalg.config import COLOUR_CAP
from planalg.elements import Element
from planalg.errors import PlanarAlgebraError
from planalg.tangles import Tangle, parse, validate
from planalg.tower import GradedElement

FUZZ = settings(derandomize=True, max_examples=400, deadline=None)


# -- the tangle DSL ------------------------------------------------------------

COLOUR_TOKENS = st.sampled_from(
    ["0", "0+", "0-", "0_+", "0_-", "1", "2", "3", "4", "-1", "x", "1.5",
     str(COLOUR_CAP), str(COLOUR_CAP + 1), "400000"])
INDEX_TOKENS = st.integers(-1, 9).map(str) | st.sampled_from(["", "x", "1.2"])
BOX_NAMES = st.sampled_from(["a", "b", "c", "e", "e1", "a.b", "1"])
POINTS = st.one_of(
    INDEX_TOKENS.map(lambda i: "e" + i),
    st.builds(lambda name, i: f"{name}.{i}", BOX_NAMES, INDEX_TOKENS),
    st.sampled_from(["", "q", "-", "a."]))
STRANDS = st.builds(lambda p, q: f"{p}-{q}", POINTS, POINTS) | POINTS
LINES = st.one_of(
    COLOUR_TOKENS.map(lambda c: f"ext {c}"),
    st.builds(lambda name, c: f"box {name} {c}", BOX_NAMES, COLOUR_TOKENS),
    st.lists(STRANDS, max_size=8).map(lambda s: " ".join(["strand"] + s)),
    st.sampled_from(["0", "2", "-1", "x"]).map(lambda c: f"loops {c}"),
    st.sampled_from(["", "# note", "ext", "box a", "ext 1 2", "knot 1"]))


@st.composite
def matched_tangle_texts(draw):
    """Structurally valid tangles: a random matching of every marked point."""
    ext = draw(st.integers(0, COLOUR_CAP))
    boxes = draw(st.lists(st.integers(0, COLOUR_CAP), max_size=3))
    points = [f"e{i}" for i in range(1, 2 * ext + 1)]
    points += [f"b{j}.{i}" for j, c in enumerate(boxes) for i in range(1, 2 * c + 1)]
    points = draw(st.permutations(points))
    lines = [f"ext {ext}"] + [f"box b{j} {c}" for j, c in enumerate(boxes)]
    if points:
        lines.append("strand " + " ".join(
            f"{p}-{q}" for p, q in zip(points[::2], points[1::2])))
    lines.append(f"loops {draw(st.integers(0, 2))}")
    return "\n".join(lines)


@FUZZ
@given(matched_tangle_texts() | st.lists(LINES, max_size=8).map("\n".join))
def test_parse_and_validate_raise_only_planalg_errors(text):
    try:
        validate(parse(text))
    except PlanarAlgebraError:
        pass


# -- the tangle JSON loader --------------------------------------------------------

# a point is [boundary, index]; its entries may be of any JSON type, or missing
POINT_ENTRIES = st.integers(-1, 7) | st.sampled_from(["a", "2", 2.0, 1.5, None, True])
TANGLES = st.fixed_dictionaries(
    {"ext": st.integers(0, 3), "boxes": st.lists(st.integers(0, 3), max_size=3),
     "pairs": st.lists(st.tuples(*[st.lists(POINT_ENTRIES, max_size=3)] * 2),
                       max_size=8)},
    optional={"loops": st.integers(-1, 2)})


@FUZZ
@given(TANGLES)
@example({"ext": 1, "boxes": [], "pairs": [[[0, 1], [0, "a"]]]})
@example({"ext": 1, "boxes": [], "pairs": [[[0, 1], [0, 2.0]]]})
def test_tangle_json_loader_raises_only_planalg_errors(data):
    try:
        validate(Tangle.from_json(data))
    except PlanarAlgebraError:
        pass


# -- the element JSON loaders -----------------------------------------------------

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.floats(),
    st.sampled_from(["0+", "0-", "2", "5/2", "1/0", "x/y", "-1", ""]))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["colour", "terms", "pairs", "coeff", "mode", "value",
                         "delta", "level", "components", "1"]),
        inner, max_size=4),
    max_leaves=12)
SCALARS = st.fixed_dictionaries(
    {"mode": st.sampled_from(["symbolic", "rational", "float", "x"]) | JSON},
    optional={"terms": st.lists(st.lists(LEAVES, max_size=3), max_size=3) | JSON,
              "value": LEAVES, "delta": LEAVES})
PAIRS = st.lists(st.lists(st.integers(-1, 9) | LEAVES, max_size=3), max_size=5)
ELEMENTS = st.fixed_dictionaries(
    {"colour": st.integers(-1, COLOUR_CAP + 1) | LEAVES,
     "terms": st.lists(st.fixed_dictionaries({"pairs": PAIRS | JSON,
                                              "coeff": SCALARS | JSON}),
                       max_size=3) | JSON})
GRADED = st.fixed_dictionaries(
    {"level": st.integers(-1, COLOUR_CAP + 1) | LEAVES,
     "components": st.dictionaries(st.sampled_from(["0", "1", "2", "x", ""]),
                                   ELEMENTS | JSON, max_size=3) | JSON})


@FUZZ
@given(ELEMENTS | GRADED | JSON, st.sampled_from([Element, GradedElement]))
def test_json_loaders_raise_only_planalg_errors(data, cls):
    try:
        _from_json(cls.from_json, data, "x.json")
    except PlanarAlgebraError:
        pass
