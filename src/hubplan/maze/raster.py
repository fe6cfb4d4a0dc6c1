"""Egocentric channel-plane raster of the maze state, as the observation row
the networks read.

A row holds OBS_SIZE float64 values: the VIEW_SIZE raveled view planes, then
the two barrel slots, each (deposited color + 1) / 4 or 0 when empty. The
view is a 7x7 window in the agent's frame, agent at the bottom-center cell
looking "up". The held item is drawn nowhere: while it is carried, its home
cell shows floor, as does the home of each diamond in the barrel.

Channel planes (12): 0 wall, 1 open floor, 2 barrel, 3-6 key presence by
color, 7-10 door/diamond color, 11 door phase (1.0 locked, 0.5 half-open).
A cell with a color plane set and the phase plane clear is a diamond; open
doors and the homes of held items and deposited diamonds render as floor.
Hidden cells and cells off the map encode as all-zero planes.

Visibility rule: the agent's cell is visible, and any other cell is visible
when one of its neighbours one step closer to the agent (along its row, along
its column, or diagonally) is visible and transparent. Walls, the barrel and
locked or half-open doors are opaque; keys and diamonds are not.

Each env builds `ViewTables` once from its own layout: a static code per map
cell (off-map, wall, floor, barrel, door c, key home c, diamond home c) on a
grid padded by the view's reach, and per orientation the grid offsets of the
49 view cells from the agent. The visibility order, every view cell sorted by
distance from the agent with the cells it can be seen through, is the same
for every env. A call gathers the 49 codes, builds a 16-entry transparency
and shown-contents lookup from the keys applied to each door, the held item
and the barrel, propagates visibility in that order, and gathers each cell's
planes from a fixed table of cell contents into a fresh row.
"""

from __future__ import annotations

import numpy as np

from .env import DIR, HALF_OPEN, OPEN

VIEW_W = 7
VIEW_H = 7
N_CHANNELS = 12
AGENT_VIEW_POS = (3, 6)
VIEW_SIZE = VIEW_W * VIEW_H * N_CHANNELS
OBS_SIZE = VIEW_SIZE + 2  # view planes, then the two barrel slots

CH_WALL = 0
CH_FLOOR = 1
CH_BARREL = 2
CH_KEY = 3      # 3..6 by color
CH_OBJ = 7      # 7..10 door or diamond color
CH_PHASE = 11
# weight of the object planes (CH_BARREL on) in the reconstruction loss
OBJECT_BOOST = 4.0

# static cell codes; door, key and diamond codes are offset by color. What a
# cell shows uses the same numbers (a door code shows the locked door), plus
# the half-open doors
OFF_MAP, WALL, FLOOR, BARREL = 0, 1, 2, 3
DOOR, KEY, DIAMOND, HALF_OPEN_DOOR = 4, 8, 12, 16
N_CODES = 16


def _cell_planes() -> np.ndarray:
    """Channel values of each thing a cell can show; row OFF_MAP is empty."""
    rows = np.zeros((HALF_OPEN_DOOR + 4, N_CHANNELS), dtype=np.float64)
    rows[WALL, CH_WALL] = 1.0
    rows[FLOOR, CH_FLOOR] = 1.0
    rows[BARREL, CH_BARREL] = 1.0
    for c in range(4):
        rows[DOOR + c, [CH_OBJ + c, CH_PHASE]] = 1.0
        rows[HALF_OPEN_DOOR + c, [CH_OBJ + c, CH_PHASE]] = 1.0, 0.5
        rows[KEY + c, CH_KEY + c] = 1.0
        rows[DIAMOND + c, CH_OBJ + c] = 1.0
    return rows


CELL_PLANES = _cell_planes()
STATIC_SHOWN = tuple(range(N_CODES))
STATIC_CLEAR = tuple(code == FLOOR or code >= KEY for code in range(N_CODES))

# view cells index as vx * VIEW_H + vy, the order of the raveled planes
AGENT_CELL = AGENT_VIEW_POS[0] * VIEW_H + AGENT_VIEW_POS[1]
# (cells ahead, cells to the right) of the agent for each view cell
VIEW_FRAME = tuple((AGENT_VIEW_POS[1] - vy, vx - AGENT_VIEW_POS[0])
                   for vx in range(VIEW_W) for vy in range(VIEW_H))
REACH = max(max(abs(ahead), abs(right)) for ahead, right in VIEW_FRAME)


def _visibility_order() -> tuple[tuple[int, int, int, int], ...]:
    """(cell, parent, parent, parent) for every view cell but the agent's,
    nearest first; a cell with fewer than three parents repeats one."""
    ax, ay = AGENT_VIEW_POS
    cells = sorted(((vx, vy) for vx in range(VIEW_W) for vy in range(VIEW_H)),
                   key=lambda c: abs(c[0] - ax) + abs(c[1] - ay))
    order = []
    for vx, vy in cells[1:]:
        sx = int(np.sign(ax - vx))
        sy = int(np.sign(ay - vy))
        parents = sorted({(vx + sx, vy), (vx, vy + sy), (vx + sx, vy + sy)} - {(vx, vy)})
        parents += parents[:1] * (3 - len(parents))
        order.append((vx * VIEW_H + vy, *(px * VIEW_H + py for px, py in parents)))
    return tuple(order)


VISIBILITY_ORDER = _visibility_order()


class ViewTables:
    """One env's static raster tables, built from its layout."""

    def __init__(self, env):
        self.stride = env.height + 2 * REACH
        grid = np.full((env.width + 2 * REACH, self.stride), OFF_MAP, dtype=np.int64)
        layout = grid[REACH:REACH + env.width, REACH:REACH + env.height]
        layout[:] = np.where(env.wall, WALL, FLOOR)
        layout[env.barrel_cell] = BARREL
        for c in range(4):
            layout[env.door_cell[c]] = DOOR + c
            layout[env.key_home[c]] = KEY + c
            layout[env.diamond_home[c]] = DIAMOND + c
        self.codes = grid.ravel().tolist()
        self.offsets = []
        for orientation in range(4):
            (fx, fy), (rx, ry) = DIR[orientation], DIR[(orientation + 1) % 4]
            self.offsets.append([
                (REACH + fx * ahead + rx * right) * self.stride + REACH + fy * ahead + ry * right
                for ahead, right in VIEW_FRAME])


def rasterize(env, state) -> np.ndarray:
    tables = env.view_tables
    grid = tables.codes
    at = state.pos[0] * tables.stride + state.pos[1]
    codes = [grid[at + offset] for offset in tables.offsets[state.orientation]]

    shown = list(STATIC_SHOWN)
    clear = list(STATIC_CLEAR)
    for c, applied in enumerate(state.keys_applied):
        if len(applied) == OPEN:
            shown[DOOR + c] = FLOOR
            clear[DOOR + c] = True
        elif len(applied) == HALF_OPEN:
            shown[DOOR + c] = HALF_OPEN_DOOR + c
    if state.held is not None:
        kind, c = state.held
        shown[(KEY if kind == "key" else DIAMOND) + c] = FLOOR
    for c in state.barrel:
        shown[DIAMOND + c] = FLOOR

    seen = [OFF_MAP] * (VIEW_W * VIEW_H)   # what each visible cell shows
    lit = [False] * (VIEW_W * VIEW_H)      # visible and transparent
    code = codes[AGENT_CELL]
    seen[AGENT_CELL] = shown[code]
    lit[AGENT_CELL] = clear[code]
    for cell, p, q, r in VISIBILITY_ORDER:
        if lit[p] or lit[q] or lit[r]:
            code = codes[cell]
            seen[cell] = shown[code]
            lit[cell] = clear[code]

    row = np.zeros(OBS_SIZE)
    np.take(CELL_PLANES, seen, axis=0, out=row[:VIEW_SIZE].reshape(-1, N_CHANNELS))
    for i, c in enumerate(state.barrel[:2]):
        row[VIEW_SIZE + i] = (c + 1) / 4
    return row


def channel_weights() -> np.ndarray:
    """Per-element weights for raster reconstruction: object planes boosted."""
    w = np.ones((VIEW_W, VIEW_H, N_CHANNELS), dtype=np.float64)
    w[:, :, CH_BARREL:] = OBJECT_BOOST
    return w.ravel()
