"""Global data-dependence graph construction (the paper's G_D).

Edge kinds and latencies follow Sec. 4 of the paper:

* true register dependences carry the producer's latency (with the
  Itanium special case compare → dependent branch = 0 cycles, which is
  why a compare and its branch may share an instruction group);
* anti and output register dependences have latency 0 and 1 respectively
  (two writes to one register may not share a group);
* memory ordering edges (st→ld, ld→st, st→st) have latency 0 — IA-64
  allows them *inside* a group, where slot order must be preserved;
* calls order against all memory operations and other calls.

Cross-block edges are added along possible forward (acyclic) paths; the
in-body anti edges this creates are exactly what keeps loop-carried
values correct when blocks of a loop are rescheduled. A use after a loop
is also ordered after the loop's definitions and accesses it depends on,
even when only the back edge links the pair (a latch store and a
post-loop load).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.alias import data_spec_candidate, must_order
from repro.ir.liveness import LivenessInfo


class DepKind(enum.Enum):
    TRUE = "true"
    ANTI = "anti"
    OUTPUT = "output"
    MEM_TRUE = "mem_true"  # store -> load
    MEM_ANTI = "mem_anti"  # load -> store
    MEM_OUTPUT = "mem_output"  # store -> store
    CALL = "call"  # ordering against calls

    @property
    def is_false_dep(self):
        return self in (DepKind.ANTI, DepKind.OUTPUT)

    @property
    def is_memory(self):
        return self in (DepKind.MEM_TRUE, DepKind.MEM_ANTI, DepKind.MEM_OUTPUT)


@dataclass(frozen=True)
class DepEdge:
    """One dependence: ``src`` must precede ``dst`` by ``latency`` cycles."""

    src: object  # Instruction
    dst: object  # Instruction
    kind: DepKind
    latency: int
    reg: object = None  # Register for register deps
    data_speculable: bool = False  # ANSI-distinct memory pair (ld.a candidate)

    def __repr__(self):
        return (
            f"DepEdge({self.src.uid}->{self.dst.uid}, {self.kind.value}, "
            f"lat={self.latency})"
        )


@dataclass
class DepGraph:
    """Dependence edges plus adjacency indexes."""

    edges: list = field(default_factory=list)
    _out: dict = field(default_factory=dict)
    _in: dict = field(default_factory=dict)

    def add(self, edge):
        key = (edge.src, edge.dst, edge.kind, edge.reg)
        if key in self._seen:
            return
        self._seen.add(key)
        self.edges.append(edge)
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)

    def __post_init__(self):
        self._seen = set()

    def succs(self, instr):
        return self._out.get(instr, [])

    def preds(self, instr):
        return self._in.get(instr, [])

    def __len__(self):
        return len(self.edges)

    def has_path(self, src, dst):
        """Transitive dependence test (DFS)."""
        seen = set()
        stack = [src]
        while stack:
            node = stack.pop()
            for edge in self.succs(node):
                if edge.dst is dst:
                    return True
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return False


def build_dependence_graph(fn, cfg, liveness):
    """Build the global DDG for the whole function region."""
    graph = DepGraph()
    positions = {}
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            positions[instr] = (block.name, idx)

    def path_ordered(a, b):
        """Can ``a`` execute before ``b`` on some forward path?"""
        block_a, idx_a = positions[a]
        block_b, idx_b = positions[b]
        if block_a == block_b:
            return idx_a < idx_b
        return cfg.reaches(block_a, block_b)

    def after_loop(a, b):
        """Does ``b`` follow a loop that holds ``a`` but not ``b``?"""
        block_b = positions[b][0]
        loop = cfg.innermost_loop(positions[a][0])
        while loop is not None:
            if block_b not in loop.blocks and cfg.reaches(loop.header, block_b):
                return True
            loop = loop.parent
        return False

    _add_true_edges(fn, graph, liveness, positions, path_ordered, cfg)
    _add_false_edges(fn, graph, positions, path_ordered)
    _add_memory_edges(fn, graph, path_ordered, after_loop)
    _add_call_edges(fn, graph, path_ordered)
    return graph


def _escapes_loop(cfg, def_block, use_block):
    """Is the use outside some loop containing the definition?"""
    loop = cfg.innermost_loop(def_block)
    while loop is not None:
        if use_block not in loop.blocks:
            return True
        loop = loop.parent
    return False


def _true_latency(producer, consumer, regname):
    """Latency of a true dependence, with the cmp→branch special case."""
    if producer.op.is_compare and consumer.is_branch:
        return 0
    return producer.latency


def _add_true_edges(fn, graph, liveness, positions, path_ordered, cfg):
    for block in fn.blocks:
        for instr in block.instructions:
            use_map = liveness.reaching_uses.get(instr, {})
            for regname, defs in use_map.items():
                for definition in defs:
                    if definition is LivenessInfo.ENTRY_DEF:
                        continue
                    if definition is instr:
                        continue  # self-loop via a cyclic path: not in-region
                    if definition not in positions:
                        continue
                    if not path_ordered(definition, instr):
                        # The definition reaches only through a back edge.
                        # Genuinely loop-carried (use inside the same loop):
                        # skip — the same-iteration protection is the anti
                        # dependence use→def added below. But when the use
                        # is *outside* some loop containing the definition,
                        # the value escapes the loop and the ordering is a
                        # real program-order dependence that must survive
                        # (e.g. a post-loop read of the final induction
                        # value must not hoist above the loop).
                        def_block = positions[definition][0]
                        use_block = positions[instr][0]
                        if not _escapes_loop(cfg, def_block, use_block):
                            continue
                    graph.add(
                        DepEdge(
                            definition,
                            instr,
                            DepKind.TRUE,
                            _true_latency(definition, instr, regname),
                            reg=regname,
                        )
                    )


def _add_false_edges(fn, graph, positions, path_ordered):
    defs_by_reg, uses_by_reg = {}, {}
    for block in fn.blocks:
        for instr in block.instructions:
            for dst in instr.regs_written():
                defs_by_reg.setdefault(dst, []).append(instr)
            for src in instr.regs_read():
                uses_by_reg.setdefault(src, []).append(instr)

    for regname, defs in defs_by_reg.items():
        # Output deps: order any two defs that can share a path.
        for i, d1 in enumerate(defs):
            for d2 in defs[i + 1 :]:
                if d1 is d2:
                    continue
                if path_ordered(d1, d2):
                    graph.add(DepEdge(d1, d2, DepKind.OUTPUT, 1, reg=regname))
                elif path_ordered(d2, d1):
                    graph.add(DepEdge(d2, d1, DepKind.OUTPUT, 1, reg=regname))
        # Anti deps: a use must not be overtaken by a later def.
        for use in uses_by_reg.get(regname, []):
            for definition in defs:
                if definition is use:
                    continue
                if path_ordered(use, definition):
                    graph.add(
                        DepEdge(use, definition, DepKind.ANTI, 0, reg=regname)
                    )


def _add_memory_edges(fn, graph, path_ordered, after_loop):
    memory_ops = [
        i
        for i in fn.all_instructions()
        if (i.is_load or i.is_store) and i.mem is not None
    ]
    for i, op_a in enumerate(memory_ops):
        for op_b in memory_ops[i + 1 :]:
            if not (op_a.is_store or op_b.is_store):
                continue  # two loads never conflict
            first, second = None, None
            if path_ordered(op_a, op_b):
                first, second = op_a, op_b
            elif path_ordered(op_b, op_a):
                first, second = op_b, op_a
            # An access in a loop's latch reaches a post-loop access only
            # through the back edge, yet the loop's last iteration precedes
            # it (the memory analogue of a value escaping the loop).
            elif after_loop(op_a, op_b):
                first, second = op_a, op_b
            elif after_loop(op_b, op_a):
                first, second = op_b, op_a
            if first is None:
                continue
            if not must_order(first.mem, second.mem):
                continue
            if first.is_store and second.is_store:
                kind = DepKind.MEM_OUTPUT
            elif first.is_store:
                kind = DepKind.MEM_TRUE
            else:
                kind = DepKind.MEM_ANTI
            graph.add(
                DepEdge(
                    first,
                    second,
                    kind,
                    0,
                    data_speculable=(
                        kind is DepKind.MEM_TRUE
                        and data_spec_candidate(first.mem, second.mem)
                    ),
                )
            )


def _add_call_edges(fn, graph, path_ordered):
    calls = [i for i in fn.all_instructions() if i.is_call]
    if not calls:
        return
    barriers = [
        i
        for i in fn.all_instructions()
        if i.is_load or i.is_store or i.is_call
    ]
    for call in calls:
        for other in barriers:
            if other is call:
                continue
            if path_ordered(other, call):
                graph.add(DepEdge(other, call, DepKind.CALL, 0))
            elif path_ordered(call, other):
                graph.add(DepEdge(call, other, DepKind.CALL, 0))
    # Calls also order among themselves via the barriers list above.
