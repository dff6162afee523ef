"""The modulo ILP: a one-hot kernel row plus an integer stage per instruction.

A *time-indexed* formulation — binaries ``x[n,t]`` over an
absolute-time horizon — grows with the critical path, not the kernel.
This module is the genuinely *modulo* formulation: each body
instruction n picks one kernel **row** ``r = t mod II`` through a
one-hot binary row ``y[n,r]`` (``Σ_r y = 1``) and one **stage**
``k_n = t div II``, an integer column in ``[0, max_stages − 1]``, so
``t_n = II·k_n + Σ_r r·y[n,r]``.  The model
has ``|body| · (II + 1)`` columns regardless of how long the unrolled
schedule runs, a dependence row touches at most ``2·II + 2`` of them,
and the modulo reservation table is stated directly: the instructions
sharing a row occupy the *same* issue group of the kernel no matter
their stage, so one dispersal-window constraint per row covers the
steady state exactly (eq. (6) of the paper, wrapped around the kernel).
(row, stage) ↔ (r, k) is a bijection, so the integer feasible set in
start times equals that of one binary per (row, stage) cell; that
denser model (``|body| · II · max_stages`` columns, dependence rows
over all of them) spent most of its HiGHS time in presolve.

Constraints:

* assignment — every instruction takes exactly one row;
* dependences — an edge (m → n, latency, distance) requires
  ``t_n − t_m ≥ latency − distance·II``;
* modulo reservation table — per row: the machine issue width (L-unit
  ops weighted 2) and each per-unit port cap;
* stage count / register pressure — the stage domain itself caps
  ``t < max_stages·II``, and every value-carrying edge additionally
  bounds its lifetime ``t_n + distance·II − t_m ≤ max_stages·II − 1``,
  so modulo variable expansion never needs more than ``max_stages``
  renamed copies per value (the materializer's unroll factor ``u`` is
  ``max(stages, lifetime div II + 1)`` — this row keeps it, and with it
  the kernel's register pressure, bounded).

The objective minimizes ``Σ t_n``: flat schedules first, which keeps
the stage count — and therefore prologue/epilogue size — small.

The model is a standard :class:`repro.ilp.Model`, so it solves through
either backend: HiGHS or the branch-and-bound oracle.
"""

from __future__ import annotations

from repro.ilp import Model, lin_sum
from repro.machine.itanium2 import ITANIUM2
from repro.machine.units import UnitKind


class ModuloIlp:
    """Builds and decodes the (row one-hot, integer stage) model for one II."""

    def __init__(self, body, edges, ii, machine=ITANIUM2, max_stages=4):
        self.body = list(body)
        self.edges = list(edges)
        self.ii = int(ii)
        self.machine = machine
        self.max_stages = max(1, int(max_stages))
        self.rows = {}  # instr -> [row binary Var per kernel row]
        self.stage = {}  # instr -> integer stage Var
        self.start = {}  # instr -> LinExpr start time
        self.spans = []  # (src, dst, min t_dst − t_src, max or None)
        self.model = self._build()

    # -- model ----------------------------------------------------------------
    def _build(self):
        ii, stages = self.ii, self.max_stages
        model = Model(f"modulo_ii{ii}")
        for instr in self.body:
            cells = [model.add_binary(f"y_{instr.uid}_{r}") for r in range(ii)]
            stage = model.add_var(f"k_{instr.uid}", lb=0.0, ub=stages - 1,
                                  is_integer=True)
            self.rows[instr], self.stage[instr] = cells, stage
            model.add_constraint(lin_sum(cells) == 1, name=f"assign_{instr.uid}")
            self.start[instr] = lin_sum(
                [ii * stage] + [r * cell for r, cell in enumerate(cells) if r]
            )

        members = set(self.body)
        for index, edge in enumerate(self.edges):
            if edge.src not in members or edge.dst not in members:
                continue
            gap = self.start[edge.dst] - self.start[edge.src]
            low = edge.latency - edge.distance * ii
            model.add_constraint(gap >= low, name=f"dep_{index}")
            high = None
            if edge.latency > 0:
                # Lifetime / register-pressure bound: the value written
                # by src and read by dst stays live distance·II +
                # (t_dst − t_src) cycles; cap it so MVE's unroll factor
                # never exceeds the stage budget.
                high = stages * ii - 1 - edge.distance * ii
                model.add_constraint(gap <= high, name=f"life_{index}")
            self.spans.append((edge.src, edge.dst, low, high))

        ports = self.machine.ports
        for row in range(ii):
            cells = [(instr, self.rows[instr][row]) for instr in self.body]
            total = lin_sum(
                (2.0 if i.unit is UnitKind.L else 1.0) * v for i, v in cells
            )
            model.add_constraint(
                total <= ports.issue_width, name=f"width_{row}"
            )
            self._unit_cap(model, cells, (UnitKind.M,), ports.m_ports, row, "m")
            self._unit_cap(
                model, cells, (UnitKind.I, UnitKind.L), ports.i_ports, row, "i"
            )
            self._unit_cap(model, cells, (UnitKind.F,), ports.f_ports, row, "f")
            self._unit_cap(model, cells, (UnitKind.B,), ports.b_ports, row, "b")
            self._unit_cap(
                model,
                cells,
                (UnitKind.A, UnitKind.M, UnitKind.I),
                ports.m_ports + ports.i_ports,
                row,
                "mi",
            )

        # Flat schedules first: fewer stages, smaller prologue/epilogue.
        model.set_objective(lin_sum(self.start.values()))
        return model

    @staticmethod
    def _unit_cap(model, cells, kinds, cap, row, tag):
        terms = [v for i, v in cells if i.unit in kinds]
        if len(terms) > cap:
            model.add_constraint(
                lin_sum(terms) <= cap, name=f"cap{tag}_{row}"
            )

    # -- decoding -------------------------------------------------------------
    def start_times(self, solution):
        """``{instr: absolute start cycle}``, or None for a corrupt solution.

        A row one-hot without exactly one set cell, a stage outside
        ``[0, max_stages)`` or starts that break a ``dep_``/``life_`` row
        (a fuzzy or injected-fault solution) decode to None, never to a
        wrong kernel.
        """
        times = {}
        for instr in self.body:
            picked = [r for r, cell in enumerate(self.rows[instr])
                      if solution.value_of(cell) >= 0.5]
            stage = solution.value_of(self.stage[instr])
            if len(picked) != 1 or not 0 <= stage < self.max_stages:
                return None
            times[instr] = stage * self.ii + picked[0]
        for src, dst, low, high in self.spans:
            gap = times[dst] - times[src]
            if gap < low or (high is not None and gap > high):
                return None
        return times

    @property
    def size(self):
        return {
            "constraints": self.model.num_constraints,
            "variables": self.model.num_variables,
            "nonzeros": sum(len(c.expr.terms) for c in self.model.constraints),
        }
