"""Looplet IR: hierarchical descriptions of structure in a value sequence.

Every looplet is read relative to a target extent (an inclusive absolute index
range). `truncate` restricts a looplet to a subrange; `materialize` is the
reference oracle that expands a looplet to the concrete value sequence it
denotes over a constant extent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .expr import (
    Expr,
    Extent,
    Lit,
    TRUE,
    Var,
    const_diff,
    eq,
    iadd,
    isub,
    keep,
    print_expr,
    subst,
)
from .interp import InterpError, Machine
from .target import Template, print_stmt


class Style(enum.IntEnum):
    """Lowering styles, totally ordered by priority (highest lowers first)."""

    LOOKUP = 1
    STEPPER = 2
    JUMPER = 3
    PIPELINE = 4
    SPIKE = 5
    RUN = 6
    SWITCH = 7


class Looplet:
    """Looplet node; same traversal protocol as `Expr`, with `fe` mapping
    scalar fields and `fs` bodies and templates. Each kind's `style` picks
    the lowering pass that consumes it."""

    __slots__ = ()

    def children(self) -> tuple:
        return ()

    def map(self, fe, fs):
        return self


Body = Union[Looplet, Expr]


@dataclass(frozen=True, slots=True)
class Run(Looplet):
    """The same value over the whole target region."""

    style = Style.RUN

    body: Expr

    def children(self):
        return (self.body,)

    def map(self, fe, fs):
        return Run(fe(self.body))


@dataclass(frozen=True, slots=True)
class Spike(Looplet):
    """body everywhere except a single tail value at the region's last index."""

    style = Style.SPIKE

    body: Expr
    tail: Expr

    def children(self):
        return (self.body, self.tail)

    def map(self, fe, fs):
        return Spike(fe(self.body), fe(self.tail))


@dataclass(frozen=True, slots=True)
class Lookup(Looplet):
    """Arbitrary per-index value: body is a template instantiated at each index.

    binds are per-index let-bindings (e.g. a search position) the body may use.
    """

    style = Style.LOOKUP

    index_sym: str
    body: Body
    binds: Tuple[Tuple[str, Expr], ...] = ()

    def children(self):
        return tuple(e for _, e in self.binds) + (self.body,)

    def map(self, fe, fs):
        binds = tuple((n, fe(e)) for n, e in self.binds)
        return Lookup(self.index_sym, fs(self.body), binds)


@dataclass(frozen=True, slots=True)
class Switch(Looplet):
    """First-match choice between looplets under runtime conditions."""

    style = Style.SWITCH

    cases: Tuple[Tuple[Expr, Body], ...]

    def children(self):
        return tuple(x for case in self.cases for x in case)

    def map(self, fe, fs):
        return Switch(tuple((fe(c), fs(b)) for c, b in self.cases))


@dataclass(frozen=True, slots=True)
class Phase:
    """One segment of a pipeline; stop is absolute and inclusive, None extends
    to the target stop."""

    body: Body
    stop: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class Pipeline(Looplet):
    style = Style.PIPELINE

    phases: Tuple[Phase, ...]

    def children(self):
        return tuple(x for p in self.phases for x in (p.body, p.stop) if x is not None)

    def map(self, fe, fs):
        return Pipeline(tuple(Phase(fs(p.body), None if p.stop is None else fe(p.stop))
                              for p in self.phases))


class _Steps(Looplet):
    """Protocol shared by Stepper and Jumper, which have the same fields."""

    __slots__ = ()

    def children(self):
        return tuple(x for x in (self.stop, self.body, self.next, self.seek) if x is not None)

    def map(self, fe, fs):
        return type(self)(fe(self.stop), fs(self.body), fs(self.next),
                          None if self.seek is None else fs(self.seek))


@dataclass(frozen=True, slots=True)
class Stepper(_Steps):
    """Unbounded sequence of identical children.

    stop declares the current child's last absolute index; seek positions the
    runtime state at a target start; next advances to the following child.
    """

    style = Style.STEPPER

    stop: Expr
    body: Body
    next: Template
    seek: Optional[Template] = None


@dataclass(frozen=True, slots=True)
class Jumper(_Steps):
    """Like Stepper, but lowered with the largest declared extent (leader)."""

    style = Style.JUMPER

    stop: Expr
    body: Body
    next: Template
    seek: Optional[Template] = None


def resolve_style(a: Style, b: Style) -> Style:
    return a if a >= b else b


def truncate(l: Body, target: Extent, new: Extent) -> Body:
    """Restrict a looplet from its target extent to a subrange of it."""
    if isinstance(l, (Expr, Run, Lookup, Stepper, Jumper)):
        return l
    if isinstance(l, Spike):
        d = const_diff(new.stop, target.stop)
        if d == 0 or new.stop == target.stop:
            return l
        if d is not None:
            return Run(l.body)
        return Switch(((eq(new.stop, target.stop), l), (TRUE, Run(l.body))))
    if isinstance(l, Switch):
        return l.map(keep, lambda b: truncate(b, target, new))
    if isinstance(l, Pipeline):
        new_start = new.const_bounds()[0] if new.const_bounds() else None
        kept = []
        for ph in l.phases:
            drop = False
            if new_start is not None and ph.stop is not None:
                cd = const_diff(ph.stop, Lit(new_start))
                if cd is not None and cd < 0:
                    drop = True
            if not drop:
                kept.append(ph)
        if kept and kept[-1].stop is None:
            # pin the implicit stop to the original target so position-sensitive
            # bodies keep their reference frame under the narrower extent
            kept[-1] = Phase(kept[-1].body, stop=target.stop)
        if kept == list(l.phases):
            return l
        return Pipeline(tuple(kept))
    raise TypeError(f"cannot truncate {l!r}")


def push_shift(delta: Expr, l: Body) -> Body:
    """`l` indexed at i - delta: the body's coordinates displaced by delta."""
    if const_diff(delta, Lit(0)) == 0:
        return l
    if isinstance(l, (Run, Spike)) or isinstance(l, Expr):
        return l
    if isinstance(l, Lookup):
        return subst(l, {l.index_sym: isub(Var(l.index_sym), delta)})
    if isinstance(l, Switch):
        return l.map(keep, lambda b: push_shift(delta, b))
    if isinstance(l, Pipeline):
        return l.map(lambda stop: iadd(stop, delta), lambda b: push_shift(delta, b))
    if isinstance(l, (Stepper, Jumper)):
        seek = l.seek
        if seek is not None and seek.param is not None:
            seek = subst(seek, {seek.param: isub(Var(seek.param), delta)})
        cls = type(l)
        return cls(iadd(l.stop, delta), push_shift(delta, l.body), l.next, seek)
    raise TypeError(f"cannot shift {l!r}")


# -- reference materializer (per-looplet oracle) ---------------------------


def materialize(l: Body, ext: Extent, m: Machine) -> list:
    """Expand a looplet to its value sequence over a constant extent."""
    a, b = m.eval(ext.start), m.eval(ext.stop)
    return _mat(l, a, b, m)


def _mat(l: Body, a: int, b: int, m: Machine) -> list:
    n = b - a + 1
    if n <= 0:
        return []
    if isinstance(l, Expr):
        v = m.eval(l)
        return [v] * n
    if isinstance(l, Run):
        v = m.eval(l.body)
        return [v] * n
    if isinstance(l, Spike):
        return [m.eval(l.body)] * (n - 1) + [m.eval(l.tail)]
    if isinstance(l, Lookup):
        out = []
        for i in range(a, b + 1):
            m.vars.push()
            m.vars.define(l.index_sym, i)
            for name, e in l.binds:
                m.vars.define(name, m.eval(e))
            if isinstance(l.body, Expr):
                out.append(m.eval(l.body))
            else:
                out.extend(_mat(l.body, i, i, m))
            m.vars.pop()
        return out
    if isinstance(l, Switch):
        for cond, body in l.cases:
            c = m.eval(cond)
            if not isinstance(c, bool):
                raise InterpError("switch condition must be boolean")
            if c:
                return _mat(body, a, b, m)
        raise InterpError("switch with no true case")
    if isinstance(l, Pipeline):
        out: list = []
        cur = a
        for ph in l.phases:
            pstop = m.eval(ph.stop) if ph.stop is not None else b
            if pstop < cur:
                continue
            seg_end = min(pstop, b)
            body = truncate(ph.body, Extent(Lit(cur), Lit(pstop)), Extent(Lit(cur), Lit(seg_end)))
            out.extend(_mat(body, cur, seg_end, m))
            cur = seg_end + 1
            if cur > b:
                break
        if len(out) != n:
            raise InterpError(f"pipeline phases cover {len(out)} of {n} slots")
        return out
    if isinstance(l, (Stepper, Jumper)):
        if l.seek is not None:
            for s in l.seek.instantiate(Lit(a)):
                m.exec(s)
        out = []
        cur = a
        guard = 0
        while cur <= b:
            guard += 1
            if guard > 4 * n + 16:
                raise InterpError("stepper made no progress during materialization")
            s = m.eval(l.stop)
            if s < cur:
                raise InterpError(f"stepper child ends at {s}, before cursor {cur}")
            seg_end = min(s, b)
            body = truncate(l.body, Extent(Lit(cur), Lit(s)), Extent(Lit(cur), Lit(seg_end)))
            out.extend(_mat(body, cur, seg_end, m))
            if s > b:
                break
            for stmt in l.next.instantiate():
                m.exec(stmt)
            cur = s + 1
        return out
    raise TypeError(f"cannot materialize {l!r}")


# -- debug rendering --------------------------------------------------------


def render(l: Body, indent: int = 0) -> str:
    """One node per line, indented; scalar fields printed inline."""
    pad = "  " * indent
    if isinstance(l, Expr):
        return f"{pad}{print_expr(l)}"
    if isinstance(l, Run):
        return f"{pad}Run(body={print_expr(l.body)})"
    if isinstance(l, Spike):
        return f"{pad}Spike(body={print_expr(l.body)}, tail={print_expr(l.tail)})"
    if isinstance(l, Lookup):
        binds = "".join(f"{n}={print_expr(e)}, " for n, e in l.binds)
        if isinstance(l.body, Expr):
            return f"{pad}Lookup({l.index_sym} -> {binds}{print_expr(l.body)})"
        return f"{pad}Lookup({l.index_sym} -> {binds}\n{render(l.body, indent + 1)})"
    if isinstance(l, Switch):
        lines = [f"{pad}Switch("]
        for cond, body in l.cases:
            lines.append(f"{pad}  case {print_expr(cond)}:")
            lines.append(render(body, indent + 2))
        return "\n".join(lines) + ")"
    if isinstance(l, Pipeline):
        lines = [f"{pad}Pipeline("]
        for k, ph in enumerate(l.phases):
            stop = f"stop={print_expr(ph.stop)}," if ph.stop is not None else ""
            sep = "," if k + 1 < len(l.phases) else ""
            lines.append(f"{pad}  Phase({stop}")
            lines.append(render(ph.body, indent + 2) + ")" + sep)
        return "\n".join(lines) + ")"
    if isinstance(l, (Stepper, Jumper)):
        name = type(l).__name__
        seek = _tpl(l.seek)
        nxt = _tpl(l.next)
        lines = [f"{pad}{name}(stop={print_expr(l.stop)}, seek={seek}, next={nxt},"]
        lines.append(render(l.body, indent + 1) + ")")
        return "\n".join(lines)
    raise TypeError(f"cannot render {l!r}")


def _tpl(t: Optional[Template]) -> str:
    if t is None:
        return "none"
    body = "; ".join(print_stmt(s) for s in t.stmts)
    return f"[{body}]"
