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

``[grid]`` also takes ``t_max``.  The A2C and grounding settings are
constants in :mod:`rmkit.training`.  Unknown keys are rejected so a typo
cannot silently fall back to defaults.
"""

from __future__ import annotations

from .errors import MachineFormatError
from .gridworld import GridConfig
from .training import TrainConfig

CONFIG_HEADER = "experiment v1"


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

    train_updates = {}
    for key, raw in train_kv.items():
        if key == "episodes":
            train_updates[key] = _number(key, raw, int)
        elif key == "seeds":
            train_updates[key] = _int_tuple(key, raw)
        else:
            raise MachineFormatError(f"unknown [train] key {key!r}")

    grid_updates = {}
    for key, raw in grid_kv.items():
        if key in ("width", "height", "t_max"):
            grid_updates[key] = _number(key, raw, int)
        elif key == "start":
            grid_updates[key] = _int_tuple(key, raw, size=2)
        elif key == "items":
            grid_updates[key] = _parse_items(raw)
        else:
            raise MachineFormatError(f"unknown [grid] key {key!r}")

    return {
        "task": top.get("task"),
        "agent": top.get("agent"),
        "train": TrainConfig(**train_updates),
        "grid": GridConfig(**grid_updates),
    }
