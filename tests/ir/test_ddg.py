"""Dependence graph construction."""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import DepKind, build_dependence_graph
from repro.ir.liveness import compute_liveness


def _graph(fn):
    cfg = CfgInfo(fn)
    return build_dependence_graph(fn, cfg, compute_liveness(fn)), cfg


def _edges_between(graph, src_mnemonic, dst_mnemonic):
    return [
        e
        for e in graph.edges
        if e.src.mnemonic.startswith(src_mnemonic)
        and e.dst.mnemonic.startswith(dst_mnemonic)
    ]


def test_true_dep_latency(diamond_fn):
    graph, _ = _graph(diamond_fn)
    load_edges = _edges_between(graph, "ld8", "add")
    assert load_edges and all(e.latency == 2 for e in load_edges)


def test_cmp_to_branch_zero_latency(diamond_fn):
    graph, _ = _graph(diamond_fn)
    edges = _edges_between(graph, "cmp", "br.cond")
    assert edges and edges[0].latency == 0
    assert edges[0].kind is DepKind.TRUE


def test_cross_block_true_dep(diamond_fn):
    graph, _ = _graph(diamond_fn)
    # add r14 (A) -> ld8 (B)
    edges = _edges_between(graph, "add", "ld8")
    assert any(e.kind is DepKind.TRUE for e in edges)


def test_memory_anti_edge(diamond_fn):
    graph, _ = _graph(diamond_fn)
    edges = _edges_between(graph, "ld8", "st8")
    assert any(e.kind is DepKind.MEM_ANTI for e in edges)


def test_two_loads_never_conflict(straight_fn):
    graph, _ = _graph(straight_fn)
    assert not any(
        e.kind.is_memory and e.src.is_load and e.dst.is_load for e in graph.edges
    )


def test_loop_carried_true_dep_not_forward(loop_fn):
    """Backedge-carried reaching defs must not create forward edges."""
    graph, _ = _graph(loop_fn)
    loop_block = loop_fn.block("LOOP")
    load = loop_block.instructions[0]
    update = loop_block.instructions[2]  # adds r15 = 8, r15 (later)
    assert not any(
        e.src is update and e.dst is load and e.kind is DepKind.TRUE
        for e in graph.edges
    )
    # ...but the protecting anti edge load -> update exists.
    assert any(
        e.src is load and e.dst is update and e.kind is DepKind.ANTI
        for e in graph.edges
    )


def test_output_dep_between_double_defs():
    from repro.ir.parser import parse_function

    text = """
.proc outdep
.liveout r5
.block A freq=1
  add r5 = r32, r32
  add r5 = r5, 1
  br.ret b0
.endp
"""
    graph, _ = _graph(parse_function(text))
    assert any(e.kind is DepKind.OUTPUT and e.latency == 1 for e in graph.edges)


def test_alias_classes_suppress_memory_edges():
    from repro.ir.parser import parse_function

    text = """
.proc disjoint
.livein r32, r33
.block A freq=1
  st8 [r32] = r33 cls=stack
  ld8 r5 = [r33] cls=heap
  br.ret b0
.endp
"""
    graph, _ = _graph(parse_function(text))
    mem = [e for e in graph.edges if e.kind.is_memory]
    # ANSI-distinct classes keep the edge but mark it data-speculable.
    assert mem and all(e.data_speculable for e in mem)


def test_same_base_disjoint_offsets_no_edge():
    from repro.ir.parser import parse_function

    text = """
.proc offsets
.livein r32, r33
.block A freq=1
  st8 [r32] = r33
  ld8 r5 = [r32+8]
  br.ret b0
.endp
"""
    graph, _ = _graph(parse_function(text))
    assert not any(e.kind.is_memory for e in graph.edges)


def test_call_orders_memory():
    from repro.ir.parser import parse_function

    text = """
.proc callsite
.livein r32, r33
.block A freq=1
  st8 [r32] = r33
  br.call helper
  ld8 r5 = [r32]
  br.ret b0
.endp
"""
    graph, _ = _graph(parse_function(text))
    call_edges = [e for e in graph.edges if e.kind is DepKind.CALL]
    assert len(call_edges) >= 2


def test_has_path_transitive(diamond_fn):
    graph, _ = _graph(diamond_fn)
    block_a = diamond_fn.block("A")
    block_b = diamond_fn.block("B")
    add14 = block_a.instructions[0]
    add8 = block_b.instructions[2]
    assert graph.has_path(add14, add8)
    assert not graph.has_path(add8, add14)


def test_latch_access_orders_post_loop_access():
    """A latch store reaches post-loop accesses only via the back edge;
    the memory edges must still order them (loop exit follows it)."""
    from repro.ir.parser import parse_function

    text = """
.proc latchmem
.livein r32, r39
.liveout r8
.block B0 freq=1
  mov r9 = 0
.block B1 freq=10
  cmp.ge p16, p17 = r9, 9
  (p16) br.cond B3
.block B2 freq=9
  st8 [r39] = r32
  adds r9 = r9, 1
  br B1
.block B3 freq=1
  st8 [r39] = r39
  ld8 r8 = [r39]
  br.ret b0
.endp
"""
    fn = parse_function(text)
    graph, _ = _graph(fn)
    latch_store = fn.block("B2").instructions[0]
    post_store, post_load = fn.block("B3").instructions[:2]
    kinds = {
        (e.dst, e.kind) for e in graph.succs(latch_store) if e.kind.is_memory
    }
    assert (post_store, DepKind.MEM_OUTPUT) in kinds
    assert (post_load, DepKind.MEM_TRUE) in kinds
