"""Tests of the shared BENCH document machinery (`repro.evaluation.benchdoc`).

Covers the declarative checker's node kinds and rules, and pins the property
both published validators rely on: a document with any one key missing —
anywhere in the tree — either still validates or raises that document's
schema error, never a ``KeyError`` or ``TypeError`` from inside the checker.
"""

from __future__ import annotations

import copy

import pytest

from repro.evaluation.benchdoc import (
    array,
    at_most,
    boolean,
    counts,
    latency_entry,
    mapping,
    nullable,
    number,
    obj,
    one_of,
    string,
    validate,
    write_document,
)
from repro.service import ServiceBenchSchemaError, validate_service_bench
from repro.sweeps import BenchSchemaError, bench_document, make_spec, run_sweep, validate_bench


class Broken(Exception):
    pass


def check(schema, value):
    validate(value, schema, Broken)


class TestNodes:
    @pytest.mark.parametrize(
        "schema, good, bad, match",
        [
            (number(0.0, 1.0), 0.5, 1.5, "> 1.0"),
            (number(low=1), 1, True, "expected a number, got bool"),
            (string, "x", "", "non-empty string"),
            (boolean, False, 0, "must be a boolean"),
            (one_of(1, 2), 2, 3, "3 is not 1 or 2"),
            (nullable(number()), None, "1", "expected a number"),
            (counts, {"4": 2}, {"0": 1}, "positive-integer string"),
            (counts, {"4": 2}, {"4": 0}, r"\['4'\]: 0 < 1"),
            (mapping(nullable(string)), {"a": None, "b": "x"}, {"a": ""}, r"\['a'\]"),
        ],
    )
    def test_leaf_and_container_nodes(self, schema, good, bad, match):
        check(obj({"v": schema}), {"v": good})
        with pytest.raises(Broken, match=match):
            check(obj({"v": schema}), {"v": bad})

    def test_paths_name_the_offending_element(self):
        schema = obj({"rows": array(obj({"n": number(low=0)}))})
        with pytest.raises(Broken, match=r"^rows\[1\]\.n: -1 < 0$"):
            check(schema, {"rows": [{"n": 0}, {"n": -1}]})
        with pytest.raises(Broken, match=r"^rows\[0\]: missing key 'n'$"):
            check(schema, {"rows": [{}]})
        with pytest.raises(Broken, match="non-empty array"):
            check(schema, {"rows": []})
        with pytest.raises(Broken, match="^missing top-level key 'rows'$"):
            check(schema, {})
        with pytest.raises(Broken, match="expected an object"):
            check(schema, [])

    def test_rules_run_after_fields_and_see_the_path(self):
        schema = obj({"inner": obj(dict.fromkeys(("a", "b"), number()), at_most("a", "b"))})
        check(schema, {"inner": {"a": 1, "b": 1}})
        with pytest.raises(Broken, match="^inner: a exceeds b$"):
            check(schema, {"inner": {"a": 2, "b": 1}})
        # a missing field fails as a schema error before the rule reads it
        with pytest.raises(Broken, match="missing key 'b'"):
            check(schema, {"inner": {"a": 2}})

    def test_when_requires_extra_fields_only_while_flag_is_set(self):
        schema = obj({"enabled": boolean}, when=("enabled", {"hits": number(low=0)}))
        check(schema, {"enabled": False})
        check(schema, {"enabled": True, "hits": 3})
        with pytest.raises(Broken, match="missing key 'hits'"):
            check(obj({"c": schema}), {"c": {"enabled": True}})

    def test_latency_entry_scales_seconds_to_microseconds(self):
        entry = latency_entry(3, 1e-6, 2e-6, 3e-6, 0.5e-6, 4e-6)
        assert list(entry) == ["count", "mean_us", "p50_us", "p99_us", "min_us", "max_us"]
        assert entry["count"] == 3
        assert entry["p99_us"] == pytest.approx(3.0)

    def test_write_document_validates_first_and_is_atomic(self, tmp_path):
        def refuse(document):
            raise Broken("refused")

        target = tmp_path / "out" / "doc.json"
        with pytest.raises(Broken):
            write_document({"a": 1}, target, refuse)
        assert not target.exists()
        assert write_document({"b": 2, "a": 1}, target, lambda d: None) == target
        assert target.read_text() == '{\n  "a": 1,\n  "b": 2\n}\n'
        assert not list(target.parent.glob("*.tmp"))


# ---------------------------------------------------------------------------
# single-key deletion never escapes as a non-schema exception
# ---------------------------------------------------------------------------
def key_paths(node, prefix=()):
    """Every path (a tuple of keys and indices) that ends at a dict key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*prefix, key)
            yield from key_paths(value, (*prefix, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from key_paths(value, (*prefix, index))


def without(document, path):
    broken = copy.deepcopy(document)
    *parents, key = path
    target = broken
    for step in parents:
        target = target[step]
    del target[key]
    return broken


def assert_deletions_raise_only(document, validator, error):
    validator(document)
    paths = list(key_paths(document))
    escaped = []
    rejected = 0
    for path in paths:
        try:
            validator(without(document, path))
        except error:
            rejected += 1
        except Exception as exc:  # the property under test: nothing else escapes
            escaped.append(f"{'/'.join(map(str, path))}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)
    return rejected, len(paths)


@pytest.fixture(scope="module")
def filled_sweep_documents():
    """Two valid BENCH documents that fill every nullable sweep block.

    Latency histograms need timing models, which ``lut+`` backends do not
    have, so ``latency`` (plus the threshold fits) and ``lut`` are filled by
    separate sweeps.
    """
    timed = make_spec("timed", (3, 5), (0.03,), ("union-find",), 64, collect_latency=True)
    lut = make_spec("lut", (3,), (0.02,), ("union-find", "lut+union-find"), 64)
    return [bench_document(run_sweep(spec), commit="abc", timestamp="t") for spec in (timed, lut)]


def test_filled_documents_fill_every_nullable_block(filled_sweep_documents, filled_service_bench):
    timed, lut = filled_sweep_documents
    assert all(point["latency"] is not None for point in timed["points"])
    assert any(fit is not None for fit in timed["fits"].values())
    assert any(point["lut"] is not None for point in lut["points"])
    document = filled_service_bench
    for block in ("cache_comparison", "fault_plan", "hostile_mix", "saturation", "wire"):
        assert document[block] is not None, block
    assert document["outcome_cache"]["enabled"]
    assert document["saturation"]["scaling"] is not None
    assert document["wire"]["stats"] is not None
    assert document["wire"]["comparison"] is not None


def test_sweep_key_deletions_raise_only_schema_errors(filled_sweep_documents):
    for document in filled_sweep_documents:
        rejected, total = assert_deletions_raise_only(document, validate_bench, BenchSchemaError)
        assert rejected > total // 2


def test_service_key_deletions_raise_only_schema_errors(filled_service_bench):
    rejected, total = assert_deletions_raise_only(
        filled_service_bench, validate_service_bench, ServiceBenchSchemaError
    )
    assert rejected > total // 2
