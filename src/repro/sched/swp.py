"""Software-pipelining data: loop bodies, carried dependences, kernels.

The paper closes with "currently we are studying ... how [the model] can
be modified to support software pipelining"; :mod:`repro.sched.modulo`
is that extension.  This module holds the pieces every stage of it
shares:

* :func:`body_instructions` — the schedulable body of a single-block
  loop (header == latch, no calls), mirroring where production
  compilers apply SWP and exactly the loops the paper's routine
  selection avoided; the backedge branch is excluded because the
  kernel's branch recurs implicitly every II cycles;
* :func:`build_modulo_edges` — dependences with an iteration *distance*:
  same-iteration edges from the in-block order, loop-carried edges
  (distance 1) from definitions reaching the next iteration and from
  carried anti/output/memory pairs; a schedule is feasible when
  ``t_dst - t_src >= latency - distance · II``;
* :class:`ModuloSchedule` — one kernel (II, start times), with its
  kernel rows and stage-annotated prologue/epilogue copies.

The kernel itself comes from the II climb over the modulo ILP,
:func:`repro.sched.modulo.ladder.modulo_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError


@dataclass(frozen=True)
class ModuloEdge:
    """A dependence with iteration distance (omega)."""

    src: object
    dst: object
    latency: int
    distance: int


@dataclass
class ModuloSchedule:
    """Result of modulo scheduling one loop body."""

    loop_header: str
    ii: int
    start_times: dict  # instruction -> absolute start cycle
    stages: int
    mii_resource: int
    mii_recurrence: int
    solver_stats: object = None

    def kernel(self):
        """Kernel rows: list (length II) of [(instr, stage), ...]."""
        rows = [[] for _ in range(self.ii)]
        for instr, start in self.start_times.items():
            rows[start % self.ii].append((instr, start // self.ii))
        for row in rows:
            row.sort(key=lambda pair: (pair[1], pair[0].uid))
        return rows

    def prologue(self):
        """Fill instructions: iterations 0..stages-2, stages not yet live."""
        out = []
        for fill in range(self.stages - 1):
            for instr, start in sorted(
                self.start_times.items(), key=lambda kv: kv[1]
            ):
                if start // self.ii <= fill:
                    out.append((instr.copy(), fill))
        return out

    def epilogue(self):
        """Drain instructions: the last stages-1 iterations finishing up."""
        out = []
        for drain in range(1, self.stages):
            for instr, start in sorted(
                self.start_times.items(), key=lambda kv: kv[1]
            ):
                if start // self.ii >= drain:
                    out.append((instr.copy(), drain))
        return out


def body_instructions(fn, loop):
    """The schedulable body of a single-block loop (no branch, no nop).

    Raises :class:`SchedulingError` for loops outside the pipelining
    scope: more than one block, a call in the body, or nothing to
    schedule.
    """
    if len(loop.blocks) != 1:
        raise SchedulingError(
            "modulo scheduling handles single-block loops only"
        )
    block = fn.block(loop.header)
    body = [
        i
        for i in block.instructions
        if not i.is_branch and not i.is_nop
    ]
    if any(i.is_call for i in block.instructions):
        raise SchedulingError("loops with calls are not pipelined")
    if not body:
        raise SchedulingError("empty loop body")
    return body


def build_modulo_edges(fn, loop, body, ddg):
    """Dependences with iteration distances for a single-block loop body.

    Distance-0 edges come straight from the DDG (in-block, forward);
    distance-1 edges are reconstructed from the loop-carried
    relationships the acyclic DDG intentionally drops: a register read
    whose in-block definition comes *later* is fed by the previous
    iteration; symmetrically, that read constrains the definition as a
    carried anti dependence; carried memory and output pairs get
    conservative distance-1 ordering.
    """
    members = set(body)
    edges = []
    for edge in ddg.edges:
        if edge.src in members and edge.dst in members:
            edges.append(
                ModuloEdge(edge.src, edge.dst, edge.latency, 0)
            )

    position = {instr: i for i, instr in enumerate(body)}
    for reader in body:
        for reg in reader.regs_read():
            writers = [
                w
                for w in body
                if reg in w.regs_written() and w is not reader
            ]
            for writer in writers:
                if position[writer] >= position[reader]:
                    # Value flows across the back edge.
                    edges.append(
                        ModuloEdge(writer, reader, writer.latency, 1)
                    )
            if reg in reader.regs_written():
                # Self-recurrence (post-increment style).
                edges.append(ModuloEdge(reader, reader, reader.latency, 1))

    # Carried anti: a later write must not overtake this iteration's read.
    for writer in body:
        for reg in writer.regs_written():
            for reader in body:
                if reader is writer:
                    continue
                if reg in reader.regs_read() and position[reader] > position[writer]:
                    edges.append(ModuloEdge(reader, writer, 0, 1))

    # Carried memory ordering (conservative: any store pairs).
    memory = [i for i in body if (i.is_load or i.is_store) and i.mem is not None]
    from repro.ir.alias import must_order

    for i, op_a in enumerate(memory):
        for op_b in memory:
            if op_a is op_b or not (op_a.is_store or op_b.is_store):
                continue
            if position[op_a] > position[op_b] and must_order(op_a.mem, op_b.mem):
                edges.append(ModuloEdge(op_a, op_b, 0, 1))
    return edges

