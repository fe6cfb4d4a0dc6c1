"""Deterministic grid maze: keys, paired-key doors, diamonds, one barrel.

The agent walks cell-snapped with 90-degree turns, carries at most one item,
opens a door by applying its two required key colors (keys are consumed and
respawn at their home cells), and must deposit two diamonds into the barrel
in the requested order. Wrong-key door attempts, wrong deposits and the
step horizon end the episode. Nothing scores a step: the pipeline learns
only by imitating demonstrations.

A state stores each fact once: the pose, the held item, the keys applied to
each door, the barrel, the goal, the step count and whether the episode has
ended. Everything else is read from those: a door's phase is the number of
keys applied to it, an item lies at its home cell unless it is held or (a
diamond) deposited, and the episode succeeded when the barrel holds the goal
pair. All transitions are pure functions of (state, action). `reset` and
`step` also return the new state's observation: one float64 row of
`raster.OBS_SIZE` values, the egocentric view planes followed by the two
barrel slots (see `raster`), rendered by `observe` or taken from a view memo
the caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RED, BLUE, GREEN, PURPLE = 0, 1, 2, 3
COLOR_NAMES = ("red", "blue", "green", "purple")

# door color -> the two key colors that open it
DOOR_REQUIREMENTS = {
    RED: (RED, BLUE),
    BLUE: (RED, GREEN),
    GREEN: (BLUE, PURPLE),
    PURPLE: (GREEN, PURPLE),
}

FORWARD, BACKWARD, TURN_LEFT, TURN_RIGHT, PICKUP, TOGGLE = range(6)
N_ACTIONS = 6

# orientation quarter-turns: 0 east, 1 south, 2 west, 3 north
DIR = ((1, 0), (0, 1), (-1, 0), (0, -1))

# door phases: the number of keys applied to the door
LOCKED, HALF_OPEN, OPEN = 0, 1, 2

HORIZON = 400

# main room (starts, barrel) west; key room north-east; a single corridor
# drops to the door hallway; one diamond room behind each door
DEFAULT_MAP = """\
#################
#.......#..r.b..#
#.......#.......#
#..S..U....g.p..#
#.......#.......#
#.......####.####
#..T....####.####
#...O...####.####
############.####
#...............#
##R###B###G###P##
#.1.#.2.#.3.#.4.#
#################
"""

_KEY_CHARS = {"r": RED, "b": BLUE, "g": GREEN, "p": PURPLE}
_DOOR_CHARS = {"R": RED, "B": BLUE, "G": GREEN, "P": PURPLE}
_DIAMOND_CHARS = {"1": RED, "2": BLUE, "3": GREEN, "4": PURPLE}
_START_CHARS = {"S": 0, "T": 1, "U": 2}


class MazeError(ValueError):
    pass


class TerminalStateError(RuntimeError):
    """An action was applied to a terminal state."""


@dataclass(frozen=True)
class Goal:
    """Ordered pair of distinct diamond colors to deposit."""

    first: int
    second: int

    def __post_init__(self):
        if self.first == self.second:
            raise MazeError("goal colors must be distinct")
        if not (0 <= self.first < 4 and 0 <= self.second < 4):
            raise MazeError("unknown color id")

    def __str__(self) -> str:
        return f"{COLOR_NAMES[self.first]},{COLOR_NAMES[self.second]}"

    @classmethod
    def parse(cls, text: str) -> "Goal":
        a, b = (t.strip() for t in text.split(","))
        return cls(COLOR_NAMES.index(a), COLOR_NAMES.index(b))


def all_goals() -> list[Goal]:
    """The 12 ordered goals, enumerated color-major in (red, blue, green, purple)."""
    return [Goal(a, b) for a in range(4) for b in range(4) if a != b]


@dataclass(frozen=True)
class StartConfig:
    pos: tuple[int, int]
    orientation: int


@dataclass(frozen=True)
class EnvState:
    pos: tuple[int, int]
    orientation: int
    held: tuple[str, int] | None            # ("key", c) or ("diamond", c)
    keys_applied: tuple[frozenset, frozenset, frozenset, frozenset]
    barrel: tuple[int, ...]
    goal: Goal
    step_count: int
    terminal: bool

    @property
    def door_phase(self) -> tuple[int, ...]:
        """LOCKED, HALF_OPEN or OPEN for each door color."""
        return tuple(len(applied) for applied in self.keys_applied)

    @property
    def success(self) -> bool:
        """The barrel holds the goal pair, in order."""
        return self.barrel == (self.goal.first, self.goal.second)


class MazeEnv:
    """Static layout plus the pure transition function over EnvState values."""

    def __init__(self, map_text: str = DEFAULT_MAP, horizon: int = HORIZON):
        self.horizon = horizon
        rows = [r for r in map_text.splitlines() if r]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise MazeError("map rows have unequal widths")
        self.height = len(rows)
        self.width = widths.pop()
        self.wall = np.zeros((self.width, self.height), dtype=bool)
        self.key_home: dict[int, tuple[int, int]] = {}
        self.door_cell: dict[int, tuple[int, int]] = {}
        self.diamond_home: dict[int, tuple[int, int]] = {}
        self.barrel_cell: tuple[int, int] | None = None
        starts: dict[int, tuple[int, int]] = {}
        for y, row in enumerate(rows):
            for x, ch in enumerate(row):
                cell = (x, y)
                if ch == "#":
                    self.wall[x, y] = True
                elif ch == ".":
                    pass
                elif ch == "O":
                    if self.barrel_cell is not None:
                        raise MazeError("more than one barrel")
                    self.barrel_cell = cell
                elif ch in _KEY_CHARS:
                    self.key_home[_KEY_CHARS[ch]] = cell
                elif ch in _DOOR_CHARS:
                    self.door_cell[_DOOR_CHARS[ch]] = cell
                elif ch in _DIAMOND_CHARS:
                    self.diamond_home[_DIAMOND_CHARS[ch]] = cell
                elif ch in _START_CHARS:
                    starts[_START_CHARS[ch]] = cell
                else:
                    raise MazeError(f"unknown map char {ch!r} at {cell}")
        if self.barrel_cell is None:
            raise MazeError("map has no barrel")
        for table, what in ((self.key_home, "key"), (self.door_cell, "door"),
                            (self.diamond_home, "diamond")):
            if set(table) != {RED, BLUE, GREEN, PURPLE}:
                raise MazeError(f"map must place exactly one {what} per color")
        self.starts = [StartConfig(starts[i], 0) for i in sorted(starts)]
        self._door_at = {cell: c for c, cell in self.door_cell.items()}
        self._home_item = {cell: ("key", c) for c, cell in self.key_home.items()}
        self._home_item.update((cell, ("diamond", c)) for c, cell in self.diamond_home.items())
        self.view_tables = raster.ViewTables(self)

    # -- queries ----------------------------------------------------------

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell, state: EnvState) -> bool:
        if not self.in_bounds(cell) or self.wall[cell]:
            return False
        if cell == self.barrel_cell:
            return False
        dc = self._door_at.get(cell)
        if dc is not None and len(state.keys_applied[dc]) != OPEN:
            return False
        return self._item_at(cell, state) is None

    def _item_at(self, cell, state: EnvState) -> tuple[str, int] | None:
        """The key or diamond lying at `cell`. An item lies at its home cell
        unless it is held or, for a diamond, deposited: used keys respawn."""
        item = self._home_item.get(cell)
        if item is None or item == state.held or (item[0] == "diamond" and item[1] in state.barrel):
            return None
        return item

    def facing_cell(self, state: EnvState) -> tuple[int, int]:
        dx, dy = DIR[state.orientation]
        return (state.pos[0] + dx, state.pos[1] + dy)

    # -- episode ----------------------------------------------------------

    def reset(self, start: StartConfig, goal: Goal, views: dict | None = None):
        """The start state and its observation, looked up in `views` as
        `step` does."""
        state = self.start_state(start, goal)
        return state, self.observe(state, views)

    def start_state(self, start: StartConfig, goal: Goal) -> EnvState:
        """`reset` without the observation."""
        if not self.in_bounds(start.pos) or self.wall[start.pos]:
            raise MazeError(f"start cell {start.pos} is not free")
        return EnvState(
            pos=start.pos,
            orientation=start.orientation % 4,
            held=None,
            keys_applied=(frozenset(),) * 4,
            barrel=(),
            goal=goal,
            step_count=0,
            terminal=False,
        )

    def step(self, state: EnvState, action: int, views: dict | None = None):
        """The next state and its observation.

        Without `views` the observation is a fresh, writable row. `views` is
        a dict the caller owns, from `raster.view_key` to a row: the row of
        a state whose key is already there is returned as is, and a missing
        one is rendered, made read-only and stored. That is exact, because
        `rasterize` reads only the key's fields. The caller decides how long
        the dict lives; demonstration building keeps one for one build.
        """
        new_state = self.transition(state, action)
        return new_state, self.observe(new_state, views)

    def observe(self, state: EnvState, views: dict | None = None) -> np.ndarray:
        """`state`'s observation row, from `views` when given (see `step`)."""
        if views is None:
            return raster.rasterize(self, state)
        key = raster.view_key(state)
        row = views.get(key)
        if row is None:
            row = views[key] = raster.rasterize(self, state)
            row.flags.writeable = False
        return row

    def transition(self, state: EnvState, action: int) -> EnvState:
        """`step` without the observation."""
        if state.terminal:
            raise TerminalStateError("cannot step a terminal state")
        if not 0 <= action < N_ACTIONS:
            raise MazeError(f"unknown action {action}")
        pos = state.pos
        orientation = state.orientation
        held = state.held
        keys_applied = state.keys_applied
        barrel = state.barrel
        terminal = False

        if action in (FORWARD, BACKWARD):
            dx, dy = DIR[orientation]
            if action == BACKWARD:
                dx, dy = -dx, -dy
            nxt = (pos[0] + dx, pos[1] + dy)
            if self.passable(nxt, state):
                pos = nxt
        elif action == TURN_LEFT:
            orientation = (orientation - 1) % 4
        elif action == TURN_RIGHT:
            orientation = (orientation + 1) % 4
        elif action == PICKUP:
            if held is None:
                held = self._item_at(self.facing_cell(state), state)
        elif action == TOGGLE:
            face = self.facing_cell(state)
            door_color = self._door_at.get(face)
            if face == self.barrel_cell and held is not None and held[0] == "diamond":
                barrel = barrel + (held[1],)
                held = None
                goal_pair = (state.goal.first, state.goal.second)
                # the goal pair completes the episode, a wrong deposit ends it
                terminal = barrel == goal_pair or barrel != goal_pair[: len(barrel)]
            elif (door_color is not None and len(keys_applied[door_color]) != OPEN
                  and held is not None and held[0] == "key"):
                key_color = held[1]
                if key_color not in DOOR_REQUIREMENTS[door_color]:
                    terminal = True
                elif key_color not in keys_applied[door_color]:
                    applied = list(keys_applied)
                    applied[door_color] = applied[door_color] | {key_color}
                    keys_applied = tuple(applied)
                    held = None  # the consumed key respawns at home
                # re-applying an already-used correct key is a no-op

        step_count = state.step_count + 1
        return EnvState(
            pos=pos,
            orientation=orientation,
            held=held,
            keys_applied=keys_applied,
            barrel=barrel,
            goal=state.goal,
            step_count=step_count,
            terminal=terminal or step_count >= self.horizon,
        )


# imported last: the raster reads this module's constants
from . import raster  # noqa: E402
