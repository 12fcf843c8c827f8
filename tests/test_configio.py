"""The JSON config loader's rules.

Each config dataclass declares its fields once; the loader maps a JSON
object onto it, builds nested records, turns arrays into tuples where the
field is a tuple, and rejects values the dataclass cannot hold, naming
the dotted path.
"""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from moesim.balance import TraceSpec
from moesim.cluster import HardwareDescription
from moesim.configio import load_cluster, load_model, load_plan, load_space, load_trace_spec
from moesim.errors import ParseError
from moesim.model import DesignSpace, MlaDims, ModelConfig, PruningRules
from moesim.parallel import ParallelPlan

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG_CLASSES = (MlaDims, ModelConfig, PruningRules, DesignSpace, HardwareDescription, ParallelPlan, TraceSpec)

LOADER_HINTS = (int, float, str, bool, tuple, float | None, dict[str, float], dict[str, list])


def write(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


def reference(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_has_a_hint_the_loader_handles(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        assert hint in LOADER_HINTS or dataclasses.is_dataclass(hint), (f.name, hint)


def test_boolean_is_rejected_in_a_numeric_field(tmp_path):
    plan = {**reference("plan_reference"), "tp": True}
    with pytest.raises(ParseError, match=r"^plan\.tp must be an integer, got True$"):
        load_plan(write(tmp_path, "plan", plan))


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        ("model_reference", "num_layers", 4.5, "model.num_layers must be an integer, got 4.5"),
        ("model_reference", "mla", {"q_rank": 1.5}, "model.mla.q_rank must be an integer, got 1.5"),
        ("plan_reference", "tp", 1.0, "plan.tp must be an integer, got 1.0"),
    ],
)
def test_json_integer_errors_name_the_path(tmp_path, name, key, value, message):
    """The loader refuses a float before the dataclasses' own integer check
    runs, so the error keeps its JSON path."""
    load = load_model if name.startswith("model") else load_plan
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load(write(tmp_path, name, {**reference(name), key: value}))


def test_nested_records_and_declared_boolean_load(tmp_path):
    space = reference("space_small")
    space["base"]["mla"] = {"q_rank": 64, "kv_rank": 32, "head_dim": 16, "rope_dim": 8}
    space["pruning"] = {"shape_multiple": 256, "expert_count_power_of_two": True, "depth_width_band": 0.5}
    loaded = load_space(write(tmp_path, "space", space))
    assert isinstance(loaded.base, ModelConfig)
    assert loaded.base.mla == MlaDims(q_rank=64, kv_rank=32, head_dim=16, rope_dim=8)
    assert loaded.pruning == PruningRules(shape_multiple=256, expert_count_power_of_two=True, depth_width_band=0.5)
    assert loaded.ranges == space["ranges"]


def test_reference_space_loads_its_pruning_block():
    space = load_space(CONFIGS / "space_small.json")
    assert space.pruning == PruningRules(shape_multiple=256)
    assert space.base == ModelConfig(**reference("space_small")["base"])


def test_task_mix_becomes_a_tuple(tmp_path):
    spec = {**reference("balance_demo"), "num_tasks": 2, "task_mix": [0.25, 0.75]}
    loaded = load_trace_spec(write(tmp_path, "spec", spec))
    assert loaded.task_mix == (0.25, 0.75)
    assert isinstance(loaded.task_mix, tuple)


def test_space_base_is_required(tmp_path):
    space = reference("space_small")
    del space["base"]
    with pytest.raises(ParseError, match=r"^space\.base is required$"):
        load_space(write(tmp_path, "space", space))


@pytest.mark.parametrize("payload", [[1, 2], 5, "model", None])
def test_top_level_that_is_not_an_object_is_rejected(tmp_path, payload):
    with pytest.raises(ParseError, match=r"^model must be an object, got "):
        load_model(write(tmp_path, "model", payload))


def test_json_integer_in_a_float_field_stays_an_integer(tmp_path):
    cluster = {**reference("cluster_6144"), "hbm_capacity": 64000000000}
    loaded = load_cluster(write(tmp_path, "cluster", cluster))
    assert loaded.hbm_capacity == 64000000000
    assert type(loaded.hbm_capacity) is int
    assert type(loaded.hbm_bandwidth) is float


def test_missing_required_field_is_named(tmp_path):
    model = reference("model_reference")
    del model["hidden_size"]
    with pytest.raises(ParseError, match=r"^model\.hidden_size is required$"):
        load_model(write(tmp_path, "model", model))


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        ("balance_demo", "task_mix", 5, "trace_spec.task_mix must be an array, got int"),
        ("cluster_6144", "peak_flops", [1, 2], "cluster.peak_flops must be an object, got list"),
        ("model_reference", "mla", 5, "model.mla must be an object, got int"),
    ],
)
def test_a_container_field_names_the_json_type_it_takes(tmp_path, name, key, value, message):
    """The loader, which turns arrays into tuples, names JSON types, not the
    Python types the records declare."""
    load = {"balance_demo": load_trace_spec, "cluster_6144": load_cluster, "model_reference": load_model}[name]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load(write(tmp_path, name, {**reference(name), key: value}))


def test_space_that_is_not_an_object_is_rejected(tmp_path):
    with pytest.raises(ParseError, match=r"^space must be an object, got int$"):
        load_space(write(tmp_path, "space", 5))
