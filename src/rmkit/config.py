"""Experiment configuration files: versioned, line-oriented ``key = value``.

Two sections mirror the runtime dataclasses, with the task and agent at the
top level::

    experiment v1
    task = 1
    agent = nrm
    [train]
    episodes = 3000
    seeds = 0,1,2
    [grid]
    width = 5
    height = 5
    start = 0,0
    items = a@2,0 b@4,1 c@2,2 d@0,3

Unknown keys are rejected so a typo cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .errors import MachineFormatError
from .gridworld import GridConfig
from .training import TrainConfig

CONFIG_HEADER = "experiment v1"

_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig)}
_GRID_SIMPLE_KEYS = ("width", "height", "t_max", "empty_symbol")


def _parse_scalar(key: str, raw: str, like) -> object:
    if isinstance(like, int):
        return _number(key, raw, int)
    if isinstance(like, float):
        return _number(key, raw, float)
    return raw


def _number(key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise MachineFormatError(f"bad value for {key!r}: {raw!r} (want {kind.__name__})") from exc


def _int_tuple(key: str, raw: str, size: int | None = None) -> tuple[int, ...]:
    values = tuple(_number(key, v, int) for v in raw.split(","))
    if size is not None and len(values) != size:
        raise MachineFormatError(f"bad value for {key!r}: {raw!r} (want {size} integers)")
    return values


def _parse_items(raw: str):
    items = []
    for chunk in raw.split():
        try:
            symbol, cell = chunk.split("@")
            x, y = cell.split(",")
            items.append(((int(x), int(y)), symbol))
        except ValueError as exc:
            raise MachineFormatError(f"bad items entry {chunk!r} (want sym@x,y)") from exc
    return tuple(items)


def parse_experiment_config(text: str) -> dict:
    """Parse config text into {'task', 'agent', 'train': TrainConfig, 'grid': GridConfig}."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != CONFIG_HEADER:
        raise MachineFormatError(f"expected header {CONFIG_HEADER!r}")
    section = ""
    top: dict[str, str] = {}
    train_kv: dict[str, str] = {}
    grid_kv: dict[str, str] = {}
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            section = ln[1:-1]
            if section not in ("train", "grid"):
                raise MachineFormatError(f"unknown section [{section}]")
            continue
        if "=" not in ln:
            raise MachineFormatError(f"expected 'key = value', got {ln!r}")
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        target = {"": top, "train": train_kv, "grid": grid_kv}[section]
        if key in target:
            raise MachineFormatError(f"duplicate key {key!r}")
        target[key] = value

    unknown_top = set(top) - {"task", "agent"}
    if unknown_top:
        raise MachineFormatError(f"unknown top-level keys {sorted(unknown_top)}")

    train = TrainConfig()
    for key, raw in train_kv.items():
        if key not in _TRAIN_KEYS:
            raise MachineFormatError(f"unknown [train] key {key!r}")
        current = getattr(train, key)
        if key == "seeds":
            value = _int_tuple(key, raw)
        else:
            value = _parse_scalar(key, raw, current)
        train = replace(train, **{key: value})

    grid = GridConfig()
    grid_updates = {}
    for key, raw in grid_kv.items():
        if key in _GRID_SIMPLE_KEYS:
            grid_updates[key] = _parse_scalar(key, raw, getattr(grid, key))
        elif key == "start":
            grid_updates["start"] = _int_tuple(key, raw, size=2)
        elif key == "items":
            grid_updates["items"] = _parse_items(raw)
        elif key == "alphabet":
            grid_updates["alphabet"] = tuple(raw.split(","))
        else:
            raise MachineFormatError(f"unknown [grid] key {key!r}")
    grid = replace(grid, **grid_updates)

    return {
        "task": top.get("task"),
        "agent": top.get("agent"),
        "train": train,
        "grid": grid,
    }
