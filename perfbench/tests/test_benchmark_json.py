"""BENCHMARK.json and the metric tables in metrics.py agree."""
import json
import re

from conftest import BENCH
from metrics import END_TO_END, PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def test_names_units_and_directions_match():
    spec = _spec()
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert len(listed) == len(spec[key]), f"duplicate name in {key}"
        assert listed == table


def test_names_are_well_formed_and_unique():
    spec = _spec()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_bounds_and_setup_metric():
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in spec["workloads"]} == {"cs-mlp", "cs-conv6", "sweep-imp"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
