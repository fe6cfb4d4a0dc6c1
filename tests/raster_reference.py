"""The per-cell egocentric raster, kept as the reference the table-driven
`hubplan.maze.raster.rasterize` is compared against byte for byte.

A cell is visible when one of its (up to three) neighbours one step closer
to the agent, column-wise, row-wise or diagonally, is visible and
transparent; walls, the barrel and locked or half-open doors are opaque.
An item lies at its home cell unless it is held or, for a diamond, in the
barrel.
"""

from __future__ import annotations

import numpy as np

from hubplan.maze.env import DIR, HALF_OPEN, LOCKED
from hubplan.maze.raster import (
    AGENT_VIEW_POS, CH_BARREL, CH_FLOOR, CH_KEY, CH_OBJ, CH_PHASE, CH_WALL, N_CHANNELS, VIEW_H,
    VIEW_W,
)


def _world_cell(env, state, vx: int, vy: int):
    fx, fy = DIR[state.orientation]
    rx, ry = DIR[(state.orientation + 1) % 4]
    df = AGENT_VIEW_POS[1] - vy
    dr = vx - AGENT_VIEW_POS[0]
    return (state.pos[0] + fx * df + rx * dr, state.pos[1] + fy * df + ry * dr)


def _transparent(env, state, cell) -> bool:
    if not env.in_bounds(cell) or env.wall[cell]:
        return False
    if cell == env.barrel_cell:
        return False
    dc = env._door_at.get(cell)
    if dc is not None and state.door_phase[dc] in (LOCKED, HALF_OPEN):
        return False
    return True


def _visibility(env, state) -> np.ndarray:
    vis = np.zeros((VIEW_W, VIEW_H), dtype=bool)
    ax, ay = AGENT_VIEW_POS
    vis[ax, ay] = True
    cells = sorted(
        ((vx, vy) for vx in range(VIEW_W) for vy in range(VIEW_H)),
        key=lambda c: abs(c[0] - ax) + abs(c[1] - ay),
    )
    for vx, vy in cells:
        if (vx, vy) == (ax, ay):
            continue
        sx = int(np.sign(ax - vx))
        sy = int(np.sign(ay - vy))
        for cand in {(vx + sx, vy), (vx, vy + sy), (vx + sx, vy + sy)}:
            if cand == (vx, vy):
                continue
            if vis[cand] and _transparent(env, state, _world_cell(env, state, *cand)):
                vis[vx, vy] = True
                break
    return vis


def _at_home(state, kind: str, color: int) -> bool:
    if state.held == (kind, color):
        return False
    return kind == "key" or color not in state.barrel


def rasterize(env, state) -> np.ndarray:
    planes = np.zeros((VIEW_W, VIEW_H, N_CHANNELS), dtype=np.float64)
    vis = _visibility(env, state)
    for vx in range(VIEW_W):
        for vy in range(VIEW_H):
            if not vis[vx, vy]:
                continue
            cell = _world_cell(env, state, vx, vy)
            if not env.in_bounds(cell):
                continue
            if env.wall[cell]:
                planes[vx, vy, CH_WALL] = 1.0
                continue
            if cell == env.barrel_cell:
                planes[vx, vy, CH_BARREL] = 1.0
                continue
            dc = env._door_at.get(cell)
            if dc is not None and state.door_phase[dc] in (LOCKED, HALF_OPEN):
                planes[vx, vy, CH_OBJ + dc] = 1.0
                planes[vx, vy, CH_PHASE] = 1.0 if state.door_phase[dc] == LOCKED else 0.5
                continue
            occupied = False
            for c in range(4):
                if _at_home(state, "key", c) and env.key_home[c] == cell:
                    planes[vx, vy, CH_KEY + c] = 1.0
                    occupied = True
                    break
                if _at_home(state, "diamond", c) and env.diamond_home[c] == cell:
                    planes[vx, vy, CH_OBJ + c] = 1.0
                    occupied = True
                    break
            if not occupied:
                planes[vx, vy, CH_FLOOR] = 1.0

    barrel_vec = np.zeros(2, dtype=np.int64)
    for i, c in enumerate(state.barrel[:2]):
        barrel_vec[i] = c + 1
    return np.concatenate([planes.ravel(), barrel_vec.astype(np.float64) / 4.0])

