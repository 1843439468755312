"""``WallGrid`` against ``SetWalls``, a plain set of (cx, cy) cells.

Random sequences of ``add``, ``remove`` and ``fill`` run on a grid and on
the set side by side; between edits every query of the grid must give
what a scan of the set gives: ``cell_at``, ``first_in_rect`` (row-major),
``overlaps_rect``, ``cells_text`` on plain and navigation half-plane
windows (so cached column text must follow each edit), ``len``, ``in``,
``cells`` and the bytes ``pack`` writes for the world hash.
"""

from __future__ import annotations

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bab.prompts import MAP_WINDOW, _ahead, _window
from bab.types import TANK_SIZE, WallGrid

from reference import SetWalls, cell_sets

lattice = st.integers(min_value=0, max_value=63)
pixel = st.integers(min_value=-40, max_value=560)
span = st.integers(min_value=0, max_value=80)
# ranges of lattice indices, empty and reversed ones included
index_range = st.builds(range, st.integers(min_value=0, max_value=64),
                        st.integers(min_value=0, max_value=64))


@st.composite
def edits(draw):
    kind = draw(st.sampled_from(["add", "remove", "fill"]))
    if kind != "fill":
        return kind, draw(lattice), draw(lattice)
    w = draw(st.integers(min_value=1, max_value=8))
    h = draw(st.integers(min_value=1, max_value=8))
    return kind, min(draw(lattice), 64 - w), min(draw(lattice), 64 - h), w, h


def check_queries(grid: WallGrid, model: SetWalls, data) -> None:
    assert len(grid) == len(model)
    assert grid.cells == model.cells
    for cell in data.draw(st.lists(st.tuples(st.integers(-2, 65), st.integers(-2, 65)),
                                   max_size=8)):
        assert (cell in grid) == (cell in model)
    for x, y in data.draw(st.lists(st.tuples(pixel, pixel), max_size=8)):
        assert grid.cell_at(x, y) == model.cell_at(x, y)
    for x, y, w, h in data.draw(st.lists(st.tuples(pixel, pixel, span, span), max_size=8)):
        first = model.first_in_rect(x, y, w, h)
        assert grid.first_in_rect(x, y, w, h) == first
        assert grid.overlaps_rect(x, y, w, h) == (first is not None)
    for xs, ys in data.draw(st.lists(st.tuples(index_range, index_range), max_size=4)):
        assert grid.cells_text(xs, ys) == model.cells_text(xs, ys)
    # the windows a navigation prompt reads: the half-plane ahead of a tank
    reach = MAP_WINDOW + TANK_SIZE // 2
    for cx, cy, (dx, dy) in data.draw(st.lists(st.tuples(
            st.integers(16, 496), st.integers(16, 496),
            st.sampled_from([(0, -1), (0, 1), (-1, 0), (1, 0), (0, 0)])), max_size=4)):
        xs = _ahead(_window(cx, reach), cx, dx)
        ys = _ahead(_window(cy, reach), cy, dy)
        assert grid.cells_text(xs, ys) == model.cells_text(xs, ys)
    assert grid.pack() == model.pack()


@given(data=st.data(), initial=cell_sets())
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_wall_grid_matches_a_plain_set(data, initial):
    grid, model = WallGrid(initial), SetWalls(initial)
    check_queries(grid, model, data)
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        for kind, *args in data.draw(st.lists(edits(), max_size=12)):
            getattr(grid, kind)(*args)
            getattr(model, kind)(*args)
        check_queries(grid, model, data)
