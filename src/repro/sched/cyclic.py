"""Cyclic code motion — paper Sec. 5.2.

An instruction is *cyclically moved* when it leaves the loop upward while
a copy stays on every backedge: iteration i then computes the value that
iteration i+1 needs, and the pre-loop copy feeds the first iteration.
Fig. 5's ``op rX = rZ`` is the canonical case: its operand is produced
late in the body (previous iteration's load), so plain hoisting is
impossible, but the latch copy overlaps the computation with the
previous iteration and shortens the header's critical path.

Implementation (paper restrictions: upward only, innermost loop only,
speculative and multiply-executable instructions only — ``add r1=r1,..``
style self-overlap is excluded by ``multiply_executable``):

For each eligible instruction n in loop L (header H, latches T) a binary
``cyc_n`` selects the transformation:

* ``a[n,H] >= cyc``   — copies above the loop cover every entering path;
* ``Σ_t x[n,latch,t] >= cyc`` for every latch — the recomputation;
* ``Σ_t x[n,B,t] <= 1 - cyc`` for in-loop non-latch blocks — no stray
  in-loop copies whose ordering nothing would protect;
* outgoing true dependences (n → u) to in-loop consumers are relaxed by
  ``cyc`` inside the loop: consumers read the previous iteration's value,
  so a local-only anti edge u → n, active with ``cyc``, keeps the latch
  copy from overwriting that value before u has read it;
* each loop-carried operand writer w (the DDG's in-loop anti edge n → w)
  is handled by relaxing that anti edge inside the loop by ``cyc`` and
  adding a *local-only* edge (w → n) with w's latency, active only when
  ``cyc`` is set: the latch copy reads this iteration's w result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ddg import DepEdge, DepKind


@dataclass
class CyclicSite:
    """One cyclic-motion alternative wired into the model."""

    instr: object
    loop: object
    cyc: object = None  # ilp binary, set by attach_cyclic_motion
    carried_writers: list = field(default_factory=list)


def find_cyclic_candidates(region):
    """Eligible instructions with their innermost loops.

    Only *backedge-variant* instructions qualify: loop-invariant code is
    already hoisted by the base model, and variant code is exactly what
    the base model's Θ exclusion pinned inside the loop.
    """
    sites = []
    cfg = region.cfg
    for instr in region.instructions:
        if not region.speculative.get(instr, False):
            continue
        if not instr.multiply_executable:
            continue
        if instr.is_load or instr.is_check or instr in region.predicate_sources:
            continue
        source = region.source_block[instr]
        loop = cfg.innermost_loop(source)
        if loop is None or not loop.latches:
            continue
        if loop not in region.backedge_variant.get(instr, []):
            continue
        sites.append(CyclicSite(instr, loop))
    return sites


def attach_cyclic_motion(ilp, max_sites=16):
    """Wire cyclic-motion alternatives into the model (pre-generate)."""
    region = ilp.region
    sites = find_cyclic_candidates(region)[:max_sites]
    for site in sites:
        _wire_site(ilp, site)
    return sites


def candidate_extension(region, site):
    """Above-loop blocks a cyclic site may re-open for placement.

    The base model excluded them for this backedge-variant instruction;
    cyclic motion re-opens everything that reaches the source — but never
    above an *outer* loop the instruction is also variant for. Shared
    with :mod:`repro.sched.decompose`, whose cut-legality rule must see
    the same effective placement domain the wired model would get.
    """
    cfg = region.cfg
    instr = site.instr
    loop = site.loop
    source = region.source_block[instr]
    outer_variant = [
        other
        for other in region.backedge_variant.get(instr, [])
        if other is not loop
    ]
    return {
        block
        for block in cfg.block_names
        if block not in loop.blocks
        and block not in region.forbidden_blocks
        and cfg.reaches(block, source)
        and all(
            block in outer.blocks or not cfg.reaches(block, outer.header)
            for outer in outer_variant
        )
    }


def _wire_site(ilp, site):
    region = ilp.region
    instr = site.instr
    loop = site.loop
    cyc = ilp.model.add_binary(f"cyc_{instr.uid}")
    site.cyc = cyc
    in_loop = frozenset(loop.blocks)
    cfg = region.cfg

    ilp.info[instr].theta |= candidate_extension(region, site)

    # Paper Sec. 5.2: the instruction is cyclically moved *iff* it is
    # complete before the header — copies above the loop on every
    # entering path, and (below) a recomputation in every latch.
    header_a = ilp.a_expr(instr, loop.header)
    ilp.model.add_constraint(
        ilp._as_expr(header_a) >= cyc.to_expr(), name=f"cyc_head_{instr.uid}"
    )
    ilp.model.add_constraint(
        ilp._as_expr(header_a) <= cyc.to_expr(), name=f"cyc_head2_{instr.uid}"
    )
    # Cyclic motion places the instruction twice on in-loop paths
    # (pre-loop copy + latch copy), so the flow equalities (2) must relax
    # to "<=" inside the loop and on the latch→Ω edges (the weakening of
    # Theorem 2's no-duplicate hypothesis, as for partial-ready motion).
    for block in loop.blocks:
        for pred in cfg.predecessors_in_dag(block):
            ilp.relaxed_flow.add((instr, pred, block))
        for succ in cfg.successors_in_dag(block):
            ilp.relaxed_flow.add((instr, block, succ))
        ilp.relaxed_flow.add((instr, block, ilp.OMEGA))
    # A copy in every latch; no other in-loop copies while cyclic.
    theta = ilp.info[instr].theta
    for latch in loop.latches:
        if latch in theta:
            ilp.forced_copies.append((instr, latch, cyc))
        else:
            # Latch unreachable for placement: the site cannot be used.
            ilp.model.add_constraint(cyc.to_expr() <= 0)
            return
    def forbid_stray_copies(ilp_):
        for block in loop.blocks:
            if block in loop.latches or block not in theta:
                continue
            total = ilp_.x_sum(instr, block)
            ilp_.model.add_constraint(
                ilp_._as_expr(total) <= 1 - cyc,
                name=f"cyc_off_{instr.uid}_{block}",
            )
        # Relaxed flow loses the implicit one-copy-per-block bound.
        for block in ilp_.info[instr].theta:
            total = ilp_.x_sum(instr, block)
            ilp_.model.add_constraint(
                ilp_._as_expr(total) <= 1, name=f"cyc_once_{instr.uid}_{block}"
            )

    ilp.defer(forbid_stray_copies)

    # In-loop consumers read the previous iteration's value. Speculation
    # groups attach *extra* edges (e.g. shladd → ld.s) before cyclic
    # motion runs; they need the same treatment or the model stays
    # over-strict and the verifier mis-attributes the ordering.
    outgoing = list(region.ddg.succs(instr)) + [
        e for e in ilp.extra_edges if e.src is instr
    ]
    for edge in outgoing:
        if edge.kind is not DepKind.TRUE:
            continue
        consumer_block = region.source_block.get(edge.dst)
        if consumer_block is None:
            info = ilp.info.get(edge.dst)
            consumer_block = info.source if info is not None else None
        if consumer_block in in_loop:
            ilp.relax_edge(edge, cyc, blocks=in_loop)
            ilp.verify_exempt.append((edge, cyc))
            # The consumer still reads this iteration's value, so it must
            # not be overtaken by the latch copy computing the next one:
            # a local-only anti edge consumer → n, active while cyclic.
            flipped = DepEdge(edge.dst, instr, DepKind.ANTI, 0, reg=edge.reg)
            _add_cyclic_local_edge(ilp, flipped, cyc, in_loop)

    # Out-of-loop dependence successors must stay *below* the loop while
    # the motion is active. The pre-loop copy satisfies the acyclic
    # precedence (4), so without this a consumer of n could ride that
    # copy above the loop and read iteration 0's value instead of the
    # last latch copy's (a real miscompile the differential suite
    # caught: ``or r44 = r42, ...`` hoisted past the loop recomputing
    # r42). Anti/output successors have the mirrored hazard — hoisted
    # above the loop, the latch copies would clobber/read them out of
    # order — so every out-of-loop successor is confined.
    above = frozenset(
        b
        for b in cfg.block_names
        if b not in in_loop and cfg.reaches(b, loop.header)
    )
    confined = set()
    for edge in outgoing:
        succ = edge.dst
        if succ is instr or succ in confined or succ not in ilp.info:
            continue
        # Extension copies (an ld.s of a post-loop load) have no region
        # entry; their source block is the original's.
        if ilp.info[succ].source in in_loop:
            continue
        confined.add(succ)

        def confine_succ(ilp_, succ=succ):
            for block in ilp_.info[succ].theta:
                if block not in above and block not in in_loop:
                    continue
                total = ilp_.x_sum(succ, block)
                ilp_.model.add_constraint(
                    ilp_._as_expr(total) <= 1 - cyc,
                    name=f"cyc_below_{instr.uid}_{succ.uid}_{block}",
                )

        ilp.defer(confine_succ)

    # Loop-carried operand writers: the anti edge n→w flips into a
    # local-only true-like edge w→n while cyclic motion is active.
    for edge in outgoing:
        if edge.kind is not DepKind.ANTI:
            continue
        writer = edge.dst
        writer_block = region.source_block.get(writer)
        if writer_block not in in_loop:
            continue
        if edge.reg not in [s for s in instr.regs_read()]:
            continue
        ilp.relax_edge(edge, cyc, blocks=in_loop)
        ilp.verify_exempt.append((edge, cyc))
        flipped = DepEdge(writer, instr, DepKind.TRUE, max(writer.latency, 0))
        _add_cyclic_local_edge(ilp, flipped, cyc, in_loop)
        # The flipped edge is local-only, so nothing global would stop the
        # writer from leaving the loop while the latch copy still reads it:
        # confine the writer to the loop whenever cyclic motion is active.
        if writer in ilp.info:

            def confine_writer(ilp_, writer=writer):
                for block in ilp_.info[writer].theta:
                    if block in in_loop:
                        continue
                    total = ilp_.x_sum(writer, block)
                    ilp_.model.add_constraint(
                        ilp_._as_expr(total) <= 1 - cyc,
                        name=f"cyc_confine_{instr.uid}_{writer.uid}_{block}",
                    )

            ilp.defer(confine_writer)
        site.carried_writers.append(writer)


def _add_cyclic_local_edge(ilp, edge, cyc, in_loop):
    """Add a local-only edge that exists only inside the loop, while cyclic."""
    ilp.add_edge(edge)
    ilp.local_only_edges.add(edge)
    ilp.relax_edge(edge, 1 - cyc, blocks=in_loop)
    outside = frozenset(b for b in ilp.region.cfg.block_names if b not in in_loop)
    ilp.relax_edge(edge, 1, blocks=outside)
    ilp.verify_exempt.append((edge, 1 - cyc))
    ilp.verify_scopes[edge] = in_loop
