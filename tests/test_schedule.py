"""Frozen-mask classification and schedule compilation."""

import json

import pytest

from polarscan import (
    DEFAULT_TYPES,
    KERNEL_TYPES,
    NodeType,
    build_code,
    build_schedule,
    census_csv,
    classify,
    node_census,
    parse_node_types,
)
from polarscan.schedule import CONSTANT_TYPES

from conftest import code_from_mask

F, I = True, False


def test_classify_patterns():
    assert classify([F, F, F, F]) is NodeType.RATE0
    assert classify([I, I, I, I]) is NodeType.RATE1
    assert classify([F, F, F, I]) is NodeType.REP
    assert classify([F, I, I, I]) is NodeType.SPC
    assert classify([F, F, F, F, F, F, I, I]) is NodeType.TYPE_I
    assert classify([F, F, I, I, I, I, I, I]) is NodeType.TYPE_III
    assert classify([F, F, F, F, F, I, I, I], KERNEL_TYPES) is NodeType.TYPE_II
    assert classify([F, F, F, I, I, I, I, I], KERNEL_TYPES) is NodeType.TYPE_IV
    # mixed patterns that match nothing
    assert classify([F, I, F, I]) is NodeType.INTERNAL
    assert classify([I, F, F, F]) is NodeType.INTERNAL


def test_classify_precedence():
    # FFII matches both TypeI and TypeIII; precedence picks TypeI
    assert classify([F, F, I, I]) is NodeType.TYPE_I
    # size-2 FI matches both Rep and Spc; precedence picks Rep
    assert classify([F, I]) is NodeType.REP
    # TypeII/TypeIV only fire when enabled
    assert classify([F, F, F, F, F, I, I, I]) is NodeType.INTERNAL
    assert classify([F, F, F, I, I, I, I, I]) is NodeType.INTERNAL
    # FIII at size 4 is Spc before TypeII even with everything enabled
    assert classify([F, I, I, I], KERNEL_TYPES) is NodeType.SPC
    # TypeIV needs size >= 8
    assert classify([F, F, F, I], KERNEL_TYPES) is NodeType.REP


def test_classify_bad_length():
    with pytest.raises(ValueError):
        classify([F, F, F])
    with pytest.raises(ValueError):
        classify([])


def test_5g_256_239_node_count():
    sched = build_schedule(build_code(256, 239))
    assert sched.node_count == 17


def test_rate1_root():
    sched = build_schedule(build_code(16, 16))
    assert sched.node_count == 1
    assert sched.nodes[0].kind is NodeType.RATE1
    assert sched.nodes[0].stage == 4


def test_8_4_schedule():
    sched = build_schedule(build_code(8, 4))
    kinds = [d.kind for d in sched.nodes]
    assert kinds == [NodeType.INTERNAL, NodeType.REP, NodeType.SPC]
    assert [d.size for d in sched.nodes] == [8, 4, 4]
    assert node_census(build_code(8, 4)) == {(NodeType.REP, 4): 1, (NodeType.SPC, 4): 1}


def test_1024_128_census_anchors():
    census = node_census(build_code(1024, 128))
    assert census[(NodeType.REP, 128)] >= 1
    assert census[(NodeType.RATE0, 256)] >= 1


def test_rate0_census():
    census = node_census(code_from_mask([1] * 16))
    assert census == {(NodeType.RATE0, 16): 1}


def leaf_partition(sched):
    spans = []
    for d in sched.nodes:
        if d.kind is not NodeType.INTERNAL:
            spans.append((d.offset, d.offset + d.size))
    return spans


def test_leaves_partition_exhaustive():
    # every (N, K) with N <= 64: leaf spans tile 0..N with no gaps/overlaps
    for n in range(1, 7):
        N = 1 << n
        for K in range(N + 1):
            code = build_code(N, K)
            for types in (DEFAULT_TYPES, CONSTANT_TYPES, KERNEL_TYPES):
                spans = leaf_partition(build_schedule(code, types))
                spans.sort()
                assert spans[0][0] == 0 and spans[-1][1] == N
                for (_, e), (s, _) in zip(spans, spans[1:]):
                    assert e == s


def test_maximality():
    # no leaf's parent span also matches an enabled type
    for n in range(2, 7):
        N = 1 << n
        for K in (N // 8, N // 4, N // 2, 3 * N // 4, 7 * N // 8):
            code = build_code(N, max(1, K))
            sched = build_schedule(code)
            for d in sched.nodes:
                if d.kind is NodeType.INTERNAL or d.stage == code.n:
                    continue
                pt, pi = d.stage + 1, d.index // 2
                parent = code.frozen_mask[pi << pt:(pi + 1) << pt]
                assert classify(parent, sched.enabled_types) is NodeType.INTERNAL


def test_fewer_types_never_fewer_nodes():
    for N, K in ((64, 32), (128, 96), (256, 128), (256, 239)):
        code = build_code(N, K)
        n_kernel = build_schedule(code, KERNEL_TYPES).node_count
        n_default = build_schedule(code, DEFAULT_TYPES).node_count
        n_const = build_schedule(code, CONSTANT_TYPES).node_count
        assert n_kernel <= n_default <= n_const


def test_descriptor_geometry():
    sched = build_schedule(build_code(32, 20))
    for d in sched.nodes:
        assert d.size == 1 << d.stage
        assert d.offset == d.index * d.size
        assert d.offset + d.size <= 32


def test_stage0_singletons():
    # a mask with no matchable pairs forces descent to single positions
    code = code_from_mask([0, 1, 1, 0])
    sched = build_schedule(code, CONSTANT_TYPES)
    stage0 = [d for d in sched.nodes if d.stage == 0]
    assert [d.kind for d in stage0] == [
        NodeType.RATE1, NodeType.RATE0, NodeType.RATE0, NodeType.RATE1,
    ]


def test_schedule_json_roundtrip():
    sched = build_schedule(build_code(8, 4))
    entries = json.loads(sched.to_json())
    assert entries == [
        {"stage": 3, "index": 0, "kind": "internal"},
        {"stage": 2, "index": 0, "kind": "rep"},
        {"stage": 2, "index": 1, "kind": "spc"},
    ]


def test_census_csv_format():
    text = census_csv(node_census(build_code(8, 4)))
    assert text == "kind,size,count\nrep,4,1\nspc,4,1\n"


def test_parse_node_types():
    assert parse_node_types("default") == DEFAULT_TYPES
    assert parse_node_types("") == DEFAULT_TYPES
    assert parse_node_types("all") == KERNEL_TYPES
    got = parse_node_types("rep,spc")
    assert got == CONSTANT_TYPES | {NodeType.REP, NodeType.SPC}
    assert parse_node_types("rate0") == CONSTANT_TYPES
    with pytest.raises(ValueError):
        parse_node_types("rep,bogus")


def test_build_schedule_rejects_entries_that_are_not_node_types():
    # the string "spc" never equals NodeType.SPC: unchecked, it pruned nothing
    code = build_code(64, 32)
    with pytest.raises(ValueError, match="'spc'"):
        build_schedule(code, frozenset({"spc"}))
    with pytest.raises(ValueError, match="INTERNAL"):
        build_schedule(code, DEFAULT_TYPES | {NodeType.INTERNAL})
    assert build_schedule(code, frozenset()).node_count == 47
    assert build_schedule(code, DEFAULT_TYPES).node_count == 13
