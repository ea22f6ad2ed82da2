"""Plan and schedule visualization.

Two renderers, both dependency-free:

* :func:`plan_to_dot` — the plan's dataflow as a Graphviz DOT digraph
  (operations as nodes, register flows as edges, sources as shaded
  boxes), for papers/slides/debugging: ``dot -Tpng plan.dot``;
* :func:`schedule_gantt` — an ASCII Gantt chart of a
  :class:`~repro.mediator.schedule.Schedule`, one row per remote
  operation, showing the parallel rounds and the semijoin barrier.
"""

from __future__ import annotations

from repro.mediator.schedule import Schedule
from repro.plans.plan import Plan


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(plan: Plan, name: str = "plan") -> str:
    """Render a plan's dataflow as Graphviz DOT.

    Each operation becomes a node labelled with its paper-notation
    rendering; an edge ``A -> B`` means B reads a register A wrote.
    Remote operations are drawn as shaded boxes tagged with their
    source; local operations as plain ellipses.

    Example:
        >>> from repro.plans.builder import build_filter_plan
        >>> from repro.query.fusion import FusionQuery
        >>> query = FusionQuery.from_strings("L", ["V = 'a'"])
        >>> dot = plan_to_dot(build_filter_plan(query, ["R1"]))
        >>> "digraph" in dot and "sq(" in dot
        True
    """
    labels = plan.condition_labels()
    lines = [f'digraph "{_dot_escape(name)}" {{', "  rankdir=TB;"]
    writer_of: dict[str, int] = {}
    for index, op in enumerate(plan.operations, start=1):
        label = _dot_escape(op.render(labels))
        if op.remote:
            shape = 'shape=box, style=filled, fillcolor="#dce6f2"'
        else:
            shape = "shape=ellipse"
        lines.append(f'  op{index} [label="{index}) {label}", {shape}];')
        for register in op.reads():
            source_step = writer_of.get(register)
            if source_step is not None:
                lines.append(
                    f'  op{source_step} -> op{index} '
                    f'[label="{_dot_escape(register)}"];'
                )
        writer_of[op.target] = index
    result_step = writer_of[plan.result]
    lines.append(
        '  answer [label="answer", shape=doublecircle];'
    )
    lines.append(f'  op{result_step} -> answer [label="{plan.result}"];')
    lines.append("}")
    return "\n".join(lines)


def schedule_gantt(schedule: Schedule, width: int = 60) -> str:
    """ASCII Gantt chart of a parallel schedule (remote ops only).

    Example output::

        R1  sq(c1, R1)    |####......................|
        R2  sq(c1, R2)    |#####.....................|
        R1  sjq(c2,R1,X1) |......###############.....|
    """
    remote = [op for op in schedule.ops if op.operation.remote]
    if not remote:
        return "(no remote operations)"
    makespan = schedule.makespan_s or 1.0
    label_width = max(
        len(_op_label(scheduled)) for scheduled in remote
    )
    lines = []
    for scheduled in remote:
        start = int(round(scheduled.start_s / makespan * width))
        finish = max(start + 1, int(round(scheduled.finish_s / makespan * width)))
        finish = min(finish, width)
        bar = "." * start + "#" * (finish - start) + "." * (width - finish)
        lines.append(f"{_op_label(scheduled).ljust(label_width)} |{bar}|")
    lines.append(
        f"{'makespan'.ljust(label_width)}  {schedule.makespan_s:.3f}s "
        f"(serial {schedule.total_time_s:.3f}s, "
        f"speedup {schedule.parallel_speedup:.2f}x)"
    )
    return "\n".join(lines)


def _op_label(scheduled) -> str:
    op = scheduled.operation
    source = getattr(op, "source", "")
    return f"{scheduled.step:>3}) {source:<6} {op.kind.value}->{op.target}"
