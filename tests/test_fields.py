"""One type rule for every settings and record field: each such dataclass
runs fields.check_types on its annotations before its range checks."""

import ast
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import fields as fl
from nanoembed.corpus import CorpusSpec, PairRecord
from nanoembed.distill import DistillConfig
from nanoembed.encoder import EncoderConfig, ItemRecord, TeacherEncoder
from nanoembed.gradcache import CachePlan
from nanoembed.metrics import StepMetrics
from nanoembed.negatives import MinerConfig
from nanoembed.optim import OptimizerSettings

# Each settings class with keyword arguments that construct a valid instance.
VALID = {
    CorpusSpec: {},
    EncoderConfig: {"input_dim": 6, "hidden_dim": 6, "embed_dim": 4},
    DistillConfig: {},
    MinerConfig: {},
    OptimizerSettings: {},
    CachePlan: {"effective_batch": 8, "sub_batch": 4},
}

# Each trace and corpus record class, the same way; their array and
# nested-record fields are checked by the class itself.
ITEM = {"id": "q0", "modality": "text", "features": np.zeros((2, 3))}
RECORDS = {
    StepMetrics: {"step": 0, "loss": 0.0, "grad_norm": 0.0},
    ItemRecord: ITEM,
    PairRecord: {"query": ItemRecord(**ITEM), "positive_id": "c0"},
}

# Annotation -> values a field so annotated must reject.
REJECTED = {
    "int": [True, "2", 2.0],
    "float": [True, "2", float("nan"), float("inf"), -float("inf"), 10**400],
    "dict[str, float]": [True, "2", {"text": float("nan")}, {"text": True}, {"text": 10**400}],
    "str": [True, 5, None, ["q0"]],
    "str | None": [True, 5, ["g00"]],
    "bool": [0, 1, "false", None],
}


def rejection_cases():
    for cls, valid in {**VALID, **RECORDS}.items():
        for f in dataclasses.fields(cls):
            for value in REJECTED.get(f.type, []):
                yield pytest.param(cls, valid, f.name, value, id=f"{cls.__name__}.{f.name}={value!r:.20}")


@pytest.mark.parametrize("cls, valid, name, value", rejection_cases())
def test_badly_typed_field_is_rejected_by_name(cls, valid, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        cls(**{**valid, name: value})


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_every_field_has_a_type_rule(cls):
    unchecked = [f"{f.name}: {f.type}" for f in dataclasses.fields(cls) if f.type not in REJECTED]
    assert not unchecked, f"{cls.__name__} has fields no type rule covers: {unchecked}"


def test_every_rule_has_rejected_values():
    assert set(REJECTED) == set(fl._RULES)


def test_settings_and_record_classes_are_every_checked_class():
    checked = {
        cls.name
        for module in Path(fl.__file__).parent.glob("*.py")
        for cls in ast.walk(ast.parse(module.read_text()))
        if isinstance(cls, ast.ClassDef) and "check_types(self)" in ast.unparse(cls)
    }
    assert {cls.__name__ for cls in {**VALID, **RECORDS}} == checked


def test_every_rule_annotates_a_field():
    # A field's removal must take a rule that only it used along with it.
    used = {f.type for cls in {**VALID, **RECORDS} for f in dataclasses.fields(cls)}
    orphans = sorted(set(fl._RULES) - used)
    assert not orphans, f"type rules no settings or record field is annotated with: {orphans}"


def hand_written_type_checks(tree: ast.Module) -> list[str]:
    """Class.field for each isinstance, is_int or is_number call in a
    dataclass __post_init__ on self.<field>, where the field's annotation
    already has a rule in fields._RULES."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            continue
        ruled = {
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.annotation) in fl._RULES
        }
        post_inits = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"]
        for call in (node for fn in post_inits for node in ast.walk(fn)):
            if not (isinstance(call, ast.Call) and call.args):
                continue
            callee = ast.unparse(call.func).rsplit(".", 1)[-1]
            arg = call.args[0]
            if (
                callee in ("isinstance", "is_int", "is_number")
                and isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
                and arg.attr in ruled
            ):
                found.append(f"{cls.name}.{arg.attr}")
    return found


@pytest.mark.parametrize("module", sorted(Path(fl.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_dataclass_rewrites_a_type_rule(module):
    found = hand_written_type_checks(ast.parse(module.read_text()))
    assert not found, f"check these through fields.check_types instead: {found}"


def test_integer_in_float_field_stays_legal():
    assert DistillConfig(tau=1).tau == 1
    assert MinerConfig(beta=0, tau=2).beta == 0
    assert OptimizerSettings(learning_rate=1, clip_norm=3).clip_norm == 3
    assert CorpusSpec(noise_scale=1, view_mix=0, modality_mix={"text": 1}).view_mix == 0


def test_first_bad_field_in_declaration_order_is_named():
    with pytest.raises(ValueError, match=r"^tau must be a finite number, got True$"):
        DistillConfig(tau=True, batch_size="x")


def test_fields_of_other_annotations_pass():
    @dataclasses.dataclass
    class Named:  # annotations as strings, as under the package's `from __future__ import annotations`
        label: "bytes"
        size: "int"

    fl.check_types(Named(label=5, size=3))
    with pytest.raises(ValueError, match=r"^size must be an integer, got 3\.0$"):
        fl.check_types(Named(label="x", size=3.0))


def test_second_instance_names_the_same_first_bad_field():
    # The rules are read once per class; a later instance is checked by them all.
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^tau must be a finite number, got True$"):
            DistillConfig(tau=True, batch_size="x")
    with pytest.raises(ValueError, match=r"^batch_size must be an integer, got 'x'$"):
        DistillConfig(batch_size="x")


def test_subclass_with_an_extra_ruled_field_gets_its_own_rules():
    @dataclasses.dataclass
    class Base:
        size: "int"

    @dataclasses.dataclass
    class Extended(Base):
        label: "str"

    fl.check_types(Base(size=3))
    fl.check_types(Extended(size=3, label="x"))
    with pytest.raises(ValueError, match=r"^label must be a string, got 5$"):
        fl.check_types(Extended(size=3, label=5))
    with pytest.raises(ValueError, match=r"^size must be an integer, got 3\.0$"):
        fl.check_types(Extended(size=3.0, label=5))
    fl.check_types(Base(size=3))


@pytest.mark.parametrize("value", [10**400, True, "0.5", float("nan")])
def test_check_tau_rejects_what_no_float_holds(value):
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        ad.check_tau(value)


def test_check_tau_returns_a_float():
    assert ad.check_tau(2) == 2.0 and isinstance(ad.check_tau(2), float)


def test_check_tau_refuses_temperatures_whose_logit_gap_overflows():
    # 2 / max rounds to 2**-1023, whose 2 / tau is 2**1024: the smallest
    # temperature with a finite logit gap is the float just above it.
    low = 2 / sys.float_info.max
    assert low == 2.0**-1023
    assert ad.check_tau(math.nextafter(low, 1.0)) > low
    for tau in (low, math.nextafter(low, 0.0), 1e-320, 5e-324):
        with pytest.raises(ValueError, match="tau must be finite and > 0, with 2 / tau finite"):
            ad.check_tau(tau)


def mentions_tau(node: ast.AST) -> bool:
    return any("tau" in (getattr(n, "id", None), getattr(n, "attr", None)) for n in ast.walk(node))


@pytest.mark.parametrize("module", sorted(Path(fl.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_check_tau_is_the_only_tau_range_check(module):
    tree = ast.parse(module.read_text())
    rule = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "check_tau"]
    exempt = {id(node) for fn in rule for node in ast.walk(fn)}
    compares = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in exempt and mentions_tau(node)
    ]
    assert not compares, f"check tau through autodiff.check_tau instead: {compares}"


@pytest.mark.parametrize("value", [True, "3", 10**400, float("nan")])
def test_teacher_offset_scale_must_be_a_number(value):
    config = EncoderConfig(**VALID[EncoderConfig])
    with pytest.raises(ValueError, match="^offset_scale must be finite"):
        TeacherEncoder(config, offset_scale=value)
