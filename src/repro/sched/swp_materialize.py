"""Materializing modulo schedules: prologue / unrolled kernel / epilogue.

:func:`repro.sched.modulo.ladder.modulo_schedule` finds the optimal
kernel (II, start times); this module turns it into executable code for
*counted* loops — the classic software-pipelining code generation with
**modulo variable expansion** (no rotating register file needed):

* the kernel is unrolled ``u = stages`` times; the instance of
  instruction n for logical iteration ℓ writes the renamed register
  ``R[n, (ℓ + stage(n)) % u]``, so simultaneously-live instances of one
  value never collide;
* a consumer reading its operand at iteration distance d takes the copy
  of logical iteration ``ℓ − d``; distance-1 reads of iteration −1 (the
  prologue boundary) fall back to the original register, i.e. the value
  the preheader left behind;
* the prologue fills the first ``stages − 1`` iterations stage by stage,
  the epilogue drains the last ones and finally copies every
  loop-escaping value back to its architectural register.

Scope (each unmet condition returns ``None`` rather than bad code):
single-block counted loops — trip counter starting at 0, unit step,
literal bound, counter used for control only (and not live-out).  The
loop tests its counter at the bottom, so trip bounds of 0 and 1 still
execute the body once (do-while semantics); when the trip count is too
small for even one steady-state kernel pass, the loop is **fully
unrolled** instead — every instance lands in the prologue block and the
epilogue keeps only the escaping-value copies.  Loops that do not fit
stay on the acyclic path, exactly how production compilers gate their
SWP (and how the paper's routine selection avoided hot SWP loops).

The interpreter-based differential tests exercise this end to end: the
materialized routine must compute the same live-out values and memory
image as the original.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instruction import MemRef
from repro.ir.parser import parse_instruction
from repro.ir.registers import Register, RegisterBank, fresh_register_allocator


@dataclass
class CountedLoop:
    """The recognized counted-loop control pattern."""

    counter: object  # Register
    trips: int
    compare: object  # the exit test (excluded from the pipelined body)
    branch: object  # the backedge branch
    update: object  # adds counter = 1, counter


def recognize_counted_loop(fn, loop):
    """Match ``counter from 0 step 1 until literal`` control; else None."""
    if len(loop.blocks) != 1:
        return None
    block = fn.block(loop.header)
    branch = block.terminator
    if branch is None or branch.pred is None or branch.target != loop.header:
        return None
    compare = next(
        (
            i
            for i in block.instructions
            if i.op.is_compare and branch.pred in i.dests
        ),
        None,
    )
    if compare is None or not compare.imms or not compare.mnemonic.startswith(
        "cmp.lt"
    ):
        return None
    counter_regs = [s for s in compare.srcs if isinstance(s, Register)]
    if len(counter_regs) != 1:
        return None
    counter = counter_regs[0]
    trips = compare.imms[0]
    update = next(
        (
            i
            for i in block.instructions
            if i is not compare
            and counter in i.regs_written()
            and i.mnemonic == "adds"
            and i.imms == [1]
        ),
        None,
    )
    if update is None:
        return None
    # The counter must serve control only — a live-out counter is an
    # implicit read after the loop, and the pipelined rewrite drops the
    # counter updates entirely.
    if counter in fn.live_out:
        return None
    for instr in fn.all_instructions():
        if instr in (compare, update):
            continue
        if counter in instr.regs_read():
            return None
    # Counter initialized to zero before the loop.
    init = [
        i
        for b in fn.blocks
        if b.name not in loop.blocks
        for i in b.instructions
        if counter in i.regs_written()
    ]
    if len(init) != 1 or init[0].mnemonic != "mov" or init[0].imms != [0]:
        return None
    return CountedLoop(counter, trips, compare, branch, update)


class _Renamer:
    """Modulo-variable-expansion register mapping."""

    def __init__(self, fn, body, u):
        self.u = u
        self.map = {}  # (writer instr, original Register) -> [copies]
        used = set(fn.live_in) | set(fn.live_out)
        for instr in fn.all_instructions():
            used.update(instr.regs_read())
            used.update(instr.regs_written())
        allocators = {
            RegisterBank.GR: fresh_register_allocator(used, RegisterBank.GR),
            RegisterBank.PR: fresh_register_allocator(used, RegisterBank.PR),
            RegisterBank.FR: fresh_register_allocator(used, RegisterBank.FR),
        }
        self.ok = True
        for instr, _start in body:
            for dest in instr.regs_written():
                allocator = allocators.get(dest.bank)
                if allocator is None:
                    self.ok = False
                    return
                try:
                    copies = [next(allocator) for _ in range(u)]
                except StopIteration:
                    self.ok = False
                    return
                self.map[(instr, dest)] = copies
        try:
            self.pass_counter = next(allocators[RegisterBank.GR])
        except StopIteration:
            self.ok = False

    def dest(self, instr, original, logical, stage):
        return self.map[(instr, original)][(logical + stage) % self.u]


def materialize_counted_loop(fn, cfg, ddg, loop, msched, counted=None):
    """Rewrite into a pipelined routine; None when the loop is out of scope.

    Emission is *time-expanded*: every instance (n, ℓ) of a body
    instruction executes at absolute time ℓ·II + t_n; instances sorted by
    that time give a sequentially valid order. The window [P, P + q·P)
    (P = u·II) is periodic — identical register classes every pass — and
    becomes the kernel loop; everything before is the prologue, the rest
    the epilogue.
    """
    counted = counted or recognize_counted_loop(fn, loop)
    if counted is None:
        return None
    control = {counted.compare, counted.branch, counted.update}
    body = [
        (instr, start)
        for instr, start in sorted(
            msched.start_times.items(), key=lambda kv: (kv[1], kv[0].uid)
        )
        if instr not in control
    ]
    if not body:
        return None
    ii = msched.ii
    stages = 1 + max(start // ii for _i, start in body)
    if stages < 2:
        return None  # nothing overlaps; the acyclic path handles it
    # The recognized loop tests its counter at the *bottom* (do-while):
    # the body runs once before the first compare, so even trip bounds
    # of 0 or 1 execute exactly one iteration.
    iterations = max(counted.trips, 1)

    stage_of = {instr: start // ii for instr, start in body}
    start_of = dict(body)
    position = {instr: at for at, (instr, _s) in enumerate(body)}
    # Reaching definitions resolve in *original program order* — the
    # schedule's time order is no proxy for it: a register written twice
    # per iteration (accumulator chains) or a carried writer the solver
    # placed time-earlier than its reader would bind reads to the wrong
    # def and silently change semantics.
    block_order = {
        instr: at
        for at, instr in enumerate(fn.block(loop.header).instructions)
    }
    writers_of = {}  # register -> writers, in program order
    for instr, _start in body:
        for dest in instr.regs_written():
            writers_of.setdefault(dest, []).append(instr)
    for defs in writers_of.values():
        defs.sort(key=block_order.get)
    # Last def per register (program order): the value leaving the loop.
    writers = {regname: defs[-1] for regname, defs in writers_of.items()}

    def reaching(src, reader):
        """(writer, distance) of the def feeding ``reader``'s read of
        ``src``: the closest preceding same-iteration def, else the last
        def of the previous iteration.  (None, 0) for loop invariants."""
        defs = writers_of.get(src)
        if not defs:
            return None, 0
        at = block_order[reader]
        prior = [w for w in defs if block_order[w] < at]
        if prior:
            return prior[-1], 0
        return defs[-1], 1

    # Unroll factor: enough stages in flight AND every value's lifetime
    # (d·II + t_reader − t_writer) strictly shorter than u·II, so the
    # renamed copy is never clobbered before its last read.
    u = stages
    for reader, _t in body:
        for src in _register_operands(reader):
            writer, distance = reaching(src, reader)
            if writer is None:
                continue
            lifetime = distance * ii + start_of[reader] - start_of[writer]
            u = max(u, lifetime // ii + 1)

    period = u * ii
    renamer = _Renamer(fn, body, u)
    if not renamer.ok:
        return None
    escaping = _escaping_registers(fn, loop, writers)

    def instances_between(t_lo, t_hi):
        """(time, body position, instr, logical) for t_lo <= time < t_hi."""
        out = []
        for instr, t_start in body:
            first = max(0, -(-(t_lo - t_start) // ii))
            for logical in range(first, iterations):
                time = logical * ii + t_start
                if time >= t_hi:
                    break
                out.append((time, position[instr], instr, logical))
        out.sort()
        return out

    def pass_complete(k):
        """Does kernel pass k consist solely of in-range iterations?"""
        lo = period + k * period
        for instr, t_start in body:
            first_time = lo + ((t_start - lo) % ii)
            first_logical = (first_time - t_start) // ii
            last_logical = first_logical + u - 1
            if first_logical < 0 or last_logical > iterations - 1:
                return False
        return True

    passes = 0
    while pass_complete(passes):
        passes += 1
    # Too few iterations for a steady-state kernel pass (trip count
    # below the depth of the pipeline): fully unroll instead — every
    # instance lands in the prologue block, there is no kernel loop, and
    # the epilogue holds only the escaping-value copies.  Trip counts of
    # 0 and 1 (one do-while execution) take this path.
    unrolled = passes < 1

    def mapped(src, reader, logical):
        if not isinstance(src, Register) or src.is_constant:
            return src
        writer, distance = reaching(src, reader)
        if writer is None:
            return src  # loop-invariant operand
        src_logical = logical - distance
        if src_logical < 0:
            return src  # value from before the loop (preheader)
        return renamer.dest(writer, src, src_logical, stage_of[writer])

    def instance(instr, logical):
        copy = instr.copy(origin=None)
        copy.dests = [
            renamer.dest(instr, d, logical, stage_of[instr])
            if (instr, d) in renamer.map
            else d
            for d in copy.dests
        ]
        copy.srcs = [mapped(s, instr, logical) for s in copy.srcs]
        if copy.mem is not None:
            base = mapped(copy.mem.base, instr, logical)
            if base is not copy.mem.base:
                copy.mem = MemRef(
                    base, copy.mem.offset, copy.mem.alias_class, copy.mem.size
                )
        if copy.pred is not None and not copy.pred.is_constant:
            copy.pred = mapped(copy.pred, instr, logical)
        return copy

    header = loop.header
    header_freq = fn.block(header).freq
    last_time = (iterations - 1) * ii + max(start_of.values()) + 1

    prologue = BasicBlock(
        name=f"{header}__pro", freq=header_freq / iterations
    )
    fill_end = last_time if unrolled else period
    for _t, _p, instr, logical in instances_between(0, fill_end):
        prologue.instructions.append(instance(instr, logical))

    kernel = counter = None
    if not unrolled:
        kernel = BasicBlock(
            name=f"{header}__ker", freq=header_freq * passes * u / iterations
        )
        for _t, _p, instr, logical in instances_between(period, 2 * period):
            # Register classes repeat every u iterations, so pass-0
            # instances stand for every pass.
            kernel.instructions.append(instance(instr, logical))
        counter = renamer.pass_counter
        kernel.instructions.append(
            parse_instruction(f"adds {counter.name} = 1, {counter.name}")
        )
        kernel.instructions.append(
            parse_instruction(f"cmp.lt p62, p63 = {counter.name}, {passes}")
        )
        kernel.instructions.append(
            parse_instruction(f"(p62) br.cond {header}__ker")
        )

    epilogue = BasicBlock(
        name=f"{header}__epi", freq=header_freq / iterations
    )
    if not unrolled:
        for _t, _p, instr, logical in instances_between(
            period + passes * period, last_time
        ):
            epilogue.instructions.append(instance(instr, logical))
    for regname, writer in sorted(escaping.items(), key=lambda kv: kv[0].name):
        final = renamer.dest(writer, regname, iterations - 1, stage_of[writer])
        epilogue.instructions.append(
            parse_instruction(f"mov {regname.name} = {final.name}")
        )

    return _rebuild_function(fn, loop, counted, prologue, kernel, epilogue, counter)


def _register_operands(instr):
    operands = [s for s in instr.srcs if isinstance(s, Register)]
    if instr.mem is not None:
        operands.append(instr.mem.base)
    if instr.pred is not None:
        operands.append(instr.pred)
    return operands


def _escaping_registers(fn, loop, writers):
    """Loop-defined registers read outside the loop (or routine-live-out)."""
    escaping = {}
    for regname, writer in writers.items():
        if regname in fn.live_out:
            escaping[regname] = writer
            continue
        for block in fn.blocks:
            if block.name in loop.blocks:
                continue
            for instr in block.instructions:
                if regname in instr.regs_read():
                    escaping[regname] = writer
                    break
    return escaping


def _rebuild_function(fn, loop, counted, prologue, kernel, epilogue, counter):
    """New Function with the loop block replaced by pro/[ker]/epi.

    ``kernel`` is ``None`` on the full-unroll path (trip count below the
    pipeline depth): the prologue then holds every instance, there is no
    pass counter, and the old trip-counter init is simply dropped — the
    counter served control only, and control is gone.
    """
    header = loop.header
    out = Function(
        name=fn.name + "_swp",
        live_in=set(fn.live_in),
        live_out=set(fn.live_out),
    )
    name_map = {header: prologue.name}
    for block in fn.blocks:
        if block.name == header:
            out.add_block(prologue)
            if kernel is not None:
                out.add_block(kernel)
            out.add_block(epilogue)
            continue
        clone = BasicBlock(name=block.name, freq=block.freq)
        for instr in block.instructions:
            if counted and instr.mnemonic == "mov" and counted.counter in instr.regs_written():
                if counter is not None:
                    # Replace the old trip-counter init with the pass
                    # counter's; without a kernel it is dropped outright.
                    clone.instructions.append(
                        parse_instruction(f"mov {counter.name} = 0")
                    )
                continue
            copy = instr.copy(origin=None)
            if copy.is_branch and copy.target == header:
                copy.target = prologue.name
            clone.instructions.append(copy)
        out.add_block(clone)

    # Kernel needs at least one pass: the cmp/br loop above runs passes
    # times because the counter starts at 0.
    for edge in fn.edges:
        src = name_map.get(edge.src, edge.src)
        dst = name_map.get(edge.dst, edge.dst)
        if edge.src == header and edge.dst == header:
            continue  # replaced by the kernel's own backedge
        if edge.src == header:
            out.add_edge(epilogue.name, dst, edge.prob)
            continue
        out.add_edge(src, dst, edge.prob)
    if kernel is not None:
        out.add_edge(prologue.name, kernel.name)
        out.add_edge(kernel.name, kernel.name, None)
        out.add_edge(kernel.name, epilogue.name, None)
    else:
        out.add_edge(prologue.name, epilogue.name)
    out.validate()
    return out
