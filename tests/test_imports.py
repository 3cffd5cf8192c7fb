"""Package structure: no module reaches into a sibling's private names or
the private slots of the exact routes' or the measures' classes, the model
module stays off the lattice and the reachable-state cap, and only the
partition and model modules read ``sort_key``, so the event order has one
owner."""

import ast
from pathlib import Path

import recomb

SRC = Path(recomb.__file__).resolve().parent


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_only_the_routes_module_reads_the_private_slots_of_its_classes():
    # a route's sizes come from the prepared route, not from its internals
    private = set()
    for node in ast.walk(ast.parse((SRC / "ancestral.py").read_text())):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    private.update(
                        name for name in ast.literal_eval(stmt.value) if name.startswith("_")
                    )
    assert {"_table", "_exit_rates"} <= private
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ancestral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert readers == []


def test_the_model_module_imports_nothing_of_the_lattice_or_the_cap():
    # the model keeps its rates; the exact routes own their states
    banned = {
        "PartitionIndex", "shared_index", "bell_number", "DEFAULT_SITE_CAP",
        "MAX_REACHABLE", "check_reachable",
    }
    used = set()
    for node in ast.walk(ast.parse((SRC / "rates.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):  # e.g. partitions.PartitionIndex
            used.add(node.attr)
    assert sorted(used & banned) == []


def test_only_the_partition_and_model_modules_read_sort_key():
    # the model puts its entries into event order once; the rest reads them as stored
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "sort_key":
                readers.add(path.name)
    assert readers <= {"partitions.py", "rates.py"}


def test_only_the_measure_module_reads_the_storage_of_a_distribution():
    # the letters present have one owner: the measure module's Reduction
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "measure.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in (
                "_dense", "_sparse", "_block_product"
            ):
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert readers == []
