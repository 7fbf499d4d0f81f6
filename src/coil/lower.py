"""Progressive lowering of CIN to the target IR.

At each forall, every access headed by the loop index is unfurled into a
looplet; the joint style of the unfurled looplets picks the next pass
(Switch > Run > Spike > Pipeline > Jumper > Stepper > Lookup), each pass
consumes one style and re-dispatches. Accesses whose indices are already
bound scalarize to direct follow code when the innermost statement is
emitted.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .cin import (
    Access,
    Assign,
    Cursor,
    Forall,
    Furl,
    Mod,
    Multi,
    PassStmt,
    Proto,
    Sieve,
    Stmt,
    TARGET_TERMS,
    Where,
    annotate_extents,
    assign_scopes,
    check_bindings,
    normalize_scatter,
    print_stmt as print_cin,
    uses_index,
)
from .expr import (
    Call,
    Expr,
    Extent,
    Lit,
    ONE,
    Read,
    TRUE,
    Var,
    const_diff,
    eq,
    iadd,
    imax,
    imin,
    isub,
    keep,
    le,
    subst,
    walk,
)
from .levels import Fiber
from .looplets import (
    Jumper,
    Lookup,
    Looplet,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Style,
    Switch,
    resolve_style,
    truncate,
)
from .hoist import hoist
from .rewrite import Ruleset, simplify
from .target import (
    AssignVar,
    Block,
    For,
    IfChain,
    Let,
    NOP,
    TargetStmt,
    While,
    block,
    is_nop,
)
from .unfurl import (
    BoundTensor,
    CompileError,
    WriterPlan,
    _FreshNames,
    mask_looplet,
    unfurl,
    unfurl_modified,
)
from .values import MISSING


# most branches pass_switch may emit at one forall
SWITCH_BRANCH_LIMIT = 64


class LowerCtx:
    def __init__(self, tensors: Dict[str, BoundTensor], writers: Dict[str, WriterPlan],
                 ruleset: Optional[Ruleset] = None, collect_stages: bool = False):
        self.tensors = tensors
        self.writers = writers
        self.ruleset = ruleset or Ruleset()
        self.names = _FreshNames()
        self.stages: List[str] = [] if collect_stages else None
        self._tag = 0

    def fresh(self, base: str) -> str:
        return self.names.fresh(base)

    def next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def stage(self, passname: str, idx: str, ext: Extent, body: Stmt):
        if self.stages is not None:
            self.stages.append(f"== {passname} @{idx} in {ext}\n{print_cin(body)}")


# -- furl bookkeeping ----------------------------------------------------------


def collect_furls(s: Stmt) -> List[Furl]:
    """The furls of `s` by tag, in preorder. A furl's looplet holds none."""
    found: Dict[int, Furl] = {}
    stack = [s]
    while stack:
        n = stack.pop()
        if isinstance(n, Furl):
            found.setdefault(n.tag, n)
        else:
            stack.extend(reversed(n.children()))
    return list(found.values())


def replace_furls(s: Stmt, mapping: Dict[int, object]) -> Stmt:
    """Map furl tags to a Looplet (kept furled) or an Expr (unwrapped)."""

    def go(n):
        if not isinstance(n, Furl):
            return n if isinstance(n, TARGET_TERMS) else n.map(go, go)
        if n.tag not in mapping:
            return n
        v = mapping[n.tag]
        return Furl(v, n.index, n.tag) if isinstance(v, Looplet) else v

    return go(s)


def _furl(l: Looplet, index: str, tag: int) -> Furl:
    """A furl of `l` over `index`. A furl holds a looplet, never a bare Expr,
    so each furl has a style and a pass that consumes it."""
    if not isinstance(l, Looplet):
        raise TypeError(f"a furl holds a looplet, not {l!r}")
    return Furl(l, index, tag)


# -- access unfurling at a forall ------------------------------------------------


def _peel(use: Expr):
    """Split an index use into (core, modifiers innermost-first, protocol)."""
    mods: List[Tuple[str, Tuple[Expr, ...]]] = []
    proto = None
    e = use
    while True:
        if isinstance(e, Proto):
            proto = e.proto
            e = e.inner
        elif isinstance(e, Mod):
            mods.append((e.kind, e.params))
            e = e.inner
        else:
            break
    mods.reverse()
    return e, mods, proto


def _default_proto(bt: BoundTensor, depth: int) -> str:
    if bt.protocols and depth in bt.protocols:
        return bt.protocols[depth]
    return "walk"


def unfurl_at(ctx: LowerCtx, s: Stmt, idx: str, ext: Extent,
              preamble: List[TargetStmt]) -> Stmt:
    """Replace every access headed by `idx` with its unfurled looplet, and turn
    matching equality sieves into mask looplets."""

    def fix_expr(e: Expr) -> Expr:
        if not isinstance(e, Access):
            return e.map(fix_expr)
        # modifier chains and cursor bases are left whole
        e = Access(e.base, tuple(i if isinstance(i, (Mod, Proto)) else fix_expr(i)
                                 for i in e.idx))
        if isinstance(e.base, Cursor) and e.idx:
            core, mods, proto = _peel(e.idx[0])
            if isinstance(core, Var) and core.name == idx:
                bt = ctx.tensors[e.base.tensor]
                proto = proto or _default_proto(bt, e.base.depth)
                if mods:
                    mods2 = [(k, tuple(_scalarized(ctx, p, preamble) for p in ps))
                             for k, ps in mods]
                    loop = unfurl_modified(bt, e.base, proto, ctx.names, mods2)
                else:
                    loop = unfurl(bt, e.base, proto, ctx.names)
                return Access(_furl(loop, idx, ctx.next_tag()), e.idx[1:])
        return e

    def fix_stmt(node: Stmt) -> Stmt:
        if isinstance(node, Forall):
            # an inner extent is scalarized when its own forall lowers
            return node.map(keep, fix_stmt)
        if isinstance(node, Sieve):
            mask = _try_mask(ctx, node.cond, idx, preamble)
            if mask is not None:
                return Sieve(mask, fix_stmt(node.body))
        return node.map(fix_expr, fix_stmt)

    return fix_stmt(s)


def _try_mask(ctx: LowerCtx, cond: Expr, idx: str, preamble) -> Optional[Expr]:
    if not (isinstance(cond, Call) and cond.op == "eq" and len(cond.args) == 2):
        return None
    a, b = cond.args
    if isinstance(b, Var) and b.name == idx:
        a, b = b, a
    if not (isinstance(a, Var) and a.name == idx) or uses_index(b, idx):
        return None
    target = _scalarized(ctx, b, preamble)
    return _furl(mask_looplet(target), idx, ctx.next_tag())


def _scalarized(ctx: LowerCtx, e: Expr, preamble: List[TargetStmt]) -> Expr:
    stmts, e2 = scalarize_expr(ctx, e)
    preamble.extend(stmts)
    return e2


# -- scalarization (trailing / bound accesses) ------------------------------------


def scalarize_expr(ctx: LowerCtx, e: Expr) -> Tuple[List[TargetStmt], Expr]:
    out: List[TargetStmt] = []

    def go(x: Expr) -> Expr:
        if isinstance(x, Call):
            return Call(x.op, tuple(go(a) for a in x.args))
        if isinstance(x, Access):
            if isinstance(x.base, str):
                bt = ctx.tensors.get(x.base)
                if bt is None:
                    raise CompileError(f"kernel references unbound tensor {x.base!r}")
                if x.idx:
                    raise CompileError(f"internal: uncursored access to {x.base}")
                return Read(bt.bufname(1, "val"), (ONE,))
            if isinstance(x.base, Cursor):
                return _resolve_cursor(ctx, x.base, x.idx, out)
            if isinstance(x.base, Furl):
                raise CompileError("internal: unlowered looplet in a scalar position")
            return go(x.base)
        if isinstance(x, Furl):
            raise CompileError("internal: unlowered looplet in a scalar position")
        if isinstance(x, (Mod, Proto)):
            raise CompileError("index modifier outside an index position")
        return x

    return out, go(e)


def _scalarize_index(ctx: LowerCtx, core: Expr, mods, out: List[TargetStmt]
                     ) -> Tuple[Expr, List[Expr]]:
    """Scalar value of an index use, from its peeled core and modifiers
    (innermost first), with statements appended to `out`. Window and offset
    shift the value; the second result lists the value each permit bounds."""
    stmts, v = scalarize_expr(ctx, core)
    out.extend(stmts)
    permitted = []
    for kind, params in mods:
        ps = []
        for p in params:
            st, pv = scalarize_expr(ctx, p)
            out.extend(st)
            ps.append(pv)
        if kind == "window":
            v = iadd(ps[0], isub(v, ONE))
        elif kind == "offset":
            v = isub(v, ps[0])
        elif kind == "permit":
            permitted.append(v)
        else:
            raise CompileError(f"unknown index modifier {kind!r}")
    return v, permitted


def _resolve_cursor(ctx: LowerCtx, cur: Cursor, uses: Tuple[Expr, ...],
                    out: List[TargetStmt]) -> Expr:
    bt = ctx.tensors[cur.tensor]
    guards: List[Expr] = []
    values: List[Expr] = []
    for k, use in enumerate(uses):
        core, mods, _proto = _peel(use)
        v, permitted = _scalarize_index(ctx, core, mods, out)
        size = Lit(bt.mode_size(cur.depth + k))
        guards += [Call("and", (le(ONE, p), le(p, size))) for p in permitted]
        values.append(v)

    def chain(depth: int, pos: Expr, k: int, sink: List[TargetStmt]) -> Expr:
        """Value at `pos` of level `depth`, locating values[k:] in it and below."""
        f = Fiber(bt, depth, pos, ctx.names)
        binds, found, at = f.level.locate(f, values[k] if k < len(values) else None)
        sink.extend(Let(name, e) for name, e in binds)
        if not f.level.nested:
            return f.level.entry(f, at)
        if found is None:
            return chain(depth + 1, at, k + 1, sink)
        return guarded(found, bt.fill, depth + 1, at, k + 1, sink)

    def guarded(cond: Expr, init, depth: int, pos: Expr, k: int, sink: List[TargetStmt]) -> Expr:
        """A variable holding `init`, set to the chain's value where `cond` holds."""
        tmp = ctx.fresh(f"v_{bt.name}")
        sink.append(Let(tmp, Lit(init)))
        inner: List[TargetStmt] = []
        val = chain(depth, pos, k, inner)
        inner.append(AssignVar(tmp, val))
        sink.append(IfChain(((cond, block(inner)),)))
        return Var(tmp)

    if guards:
        cond = guards[0] if len(guards) == 1 else Call("and", tuple(guards))
        return guarded(cond, MISSING, cur.depth, cur.pos, 0, out)
    return chain(cur.depth, cur.pos, 0, out)


# -- statement lowering -------------------------------------------------------------


def lower_stmt(ctx: LowerCtx, s: Stmt) -> TargetStmt:
    if isinstance(s, PassStmt):
        return NOP
    if isinstance(s, Multi):
        return block([lower_stmt(ctx, p) for p in s.parts])
    if isinstance(s, Where):
        stmts: List[TargetStmt] = []
        for t in s.inits:
            stmts.extend(_writer_plan(ctx, t).init_stmts())
        stmts.append(lower_stmt(ctx, s.prod))
        for t in s.inits:
            stmts.extend(_writer_plan(ctx, t).finalize_stmts())
        stmts.append(lower_stmt(ctx, s.cons))
        return block(stmts)
    if isinstance(s, Sieve):
        stmts, cond = scalarize_expr(ctx, s.cond)
        body = lower_stmt(ctx, s.body)
        if is_nop(body):
            return block(stmts) if stmts else NOP
        return block(stmts + [IfChain(((cond, body),))])
    if isinstance(s, Forall):
        pre: List[TargetStmt] = []
        start = _scalarized(ctx, s.ext.start, pre)
        stop = _scalarized(ctx, s.ext.stop, pre)
        inner = lower_forall(ctx, s.idx, Extent(start, stop), s.body)
        return block(pre + [inner])
    if isinstance(s, Assign):
        return lower_assign(ctx, s)
    raise CompileError(f"cannot lower {s!r}")


def _writer_plan(ctx: LowerCtx, t: str) -> WriterPlan:
    if t not in ctx.writers:
        raise CompileError(f"no output binding for tensor {t!r}")
    return ctx.writers[t]


def lower_assign(ctx: LowerCtx, a: Assign) -> TargetStmt:
    stmts, rhs = scalarize_expr(ctx, a.rhs)
    plan = _writer_plan(ctx, a.lhs.base)
    idx_exprs = []
    for use in a.lhs.idx:
        core, mods, _ = _peel(use)
        if plan.writer.appends and not isinstance(core, (Var, Lit)):
            raise CompileError(
                f"scatter write to append-only output {a.lhs.base!r}")
        v, permitted = _scalarize_index(ctx, core, mods, stmts)
        if permitted:
            raise CompileError("permit cannot modify an output index")
        idx_exprs.append(v)
    stmts.extend(plan.write_stmts(tuple(idx_exprs), a.op, rhs))
    return block(stmts)


# -- the forall dispatcher -----------------------------------------------------------


def lower_forall(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt) -> TargetStmt:
    pre: List[TargetStmt] = []
    body = unfurl_at(ctx, body, idx, ext, pre)
    out = _dispatch(ctx, idx, ext, body)
    return block(pre + [out])


def _dispatch(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt) -> TargetStmt:
    d = const_diff(ext.stop, ext.start)
    if d is not None and d < 0:
        return NOP
    node = simplify(Forall(idx, ext, body), ctx.ruleset)
    if not isinstance(node, Forall):
        return lower_stmt(ctx, node)
    idx, ext, body = node.idx, node.ext, node.body

    furls = collect_furls(body)
    if not furls:
        return _terminal(ctx, idx, ext, body)

    style = furls[0].looplet.style
    for f in furls[1:]:
        style = resolve_style(style, f.looplet.style)
    lower_pass = _PASSES[style]
    ctx.stage(lower_pass.__name__, idx, ext, body)
    return lower_pass(ctx, idx, ext, body, furls)


def _terminal(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt) -> TargetStmt:
    if ext.is_point():
        return lower_stmt(ctx, subst(body, {idx: ext.start}))
    run_set = _try_run_set(ctx, idx, ext, body)
    if run_set is not None:
        return run_set
    return For(idx, ext.start, ext.stop, lower_stmt(ctx, body))


def _try_run_set(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt) -> Optional[TargetStmt]:
    """A whole-region overwrite of a run-length output with a loop-invariant
    value writes one run instead of looping."""
    if not (isinstance(body, Assign) and body.op == "set" and body.lhs.idx):
        return None
    plan = ctx.writers.get(body.lhs.base)
    if plan is None or not plan.writer.runs:
        return None
    core, mods, _ = _peel(body.lhs.idx[-1])
    if mods or not (isinstance(core, Var) and core.name == idx):
        return None
    if uses_index(body.rhs, idx):
        return None
    prefix_uses = body.lhs.idx[:-1]
    if any(uses_index(u, idx) for u in prefix_uses):
        return None
    stmts, rhs = scalarize_expr(ctx, body.rhs)
    prefix = []
    for use in prefix_uses:
        c, m, _ = _peel(use)
        if m:
            return None
        st, v = scalarize_expr(ctx, c)
        stmts.extend(st)
        prefix.append(v)
    stmts.extend(plan.run_set_stmts(tuple(prefix), ext.start, ext.stop, rhs))
    return block(stmts)


# -- the per-style passes --------------------------------------------------------------


def _restrict(body: Stmt, furls, ext: Extent, region: Extent, mapping) -> Stmt:
    """`body` over `region` of `ext`: each furl in `mapping` (by tag) gets its
    new looplet, every other furl is truncated to the region."""
    return replace_furls(body, {f.tag: mapping[f.tag] if f.tag in mapping
                                else truncate(f.looplet, ext, region) for f in furls})


def pass_run(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    mapping = {f.tag: f.looplet.body for f in furls if isinstance(f.looplet, Run)}
    return _dispatch(ctx, idx, ext, replace_furls(body, mapping))


def pass_spike(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    out: List[TargetStmt] = []
    body_stop = isub(ext.stop, ONE)
    d = const_diff(body_stop, ext.start)
    if d is None or d >= 0:
        region = Extent(ext.start, body_stop)
        out.append(_dispatch(ctx, idx, region, _restrict(body, furls, ext, region, {})))
    point = Extent(ext.stop, ext.stop)
    tails = {f.tag: f.looplet.tail for f in furls if isinstance(f.looplet, Spike)}
    out.append(_dispatch(ctx, idx, point, _restrict(body, furls, ext, point, tails)))
    return block(out)


def pass_switch(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    switches = [f for f in furls if isinstance(f.looplet, Switch)]
    ncombos = 1
    for s in switches:
        ncombos *= len(s.looplet.cases)
    if ncombos > SWITCH_BRANCH_LIMIT:
        raise CompileError(
            f"switch lowering would need {ncombos} branches (limit "
            f"{SWITCH_BRANCH_LIMIT}); choose a different protocol")
    cases: List[Tuple[Expr, TargetStmt]] = []
    orelse: Optional[TargetStmt] = None
    for combo in itertools.product(*[s.looplet.cases for s in switches]):
        conds = [c for c, _ in combo if c != TRUE]
        mapping = {s.tag: cb for s, (_, cb) in zip(switches, combo)}
        branch = _dispatch(ctx, idx, ext, replace_furls(body, mapping))
        if not conds:
            orelse = branch
            break
        cond = conds[0] if len(conds) == 1 else Call("and", tuple(conds))
        cases.append((cond, branch))
    if not cases:
        return orelse if orelse is not None else NOP
    if orelse is not None and is_nop(orelse):
        orelse = None
    if orelse is None:
        while cases and is_nop(cases[-1][1]):
            cases.pop()
    if not cases:
        return orelse if orelse is not None else NOP
    return IfChain(tuple(cases), orelse)


def pass_pipeline(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    pipes = [f for f in furls if isinstance(f.looplet, Pipeline)]
    out: List[TargetStmt] = []

    def phase_body(combo, region: Extent) -> Stmt:
        mapping = {}
        for p, j in zip(pipes, combo):
            phases = p.looplet.phases
            pstart = ext.start if j == 0 else iadd(phases[j - 1].stop, ONE)
            pstop = phases[j].stop if phases[j].stop is not None else ext.stop
            mapping[p.tag] = truncate(phases[j].body, Extent(pstart, pstop), region)
        return _restrict(body, furls, ext, region, mapping)

    choices = [range(len(p.looplet.phases)) for p in pipes]
    for combo in itertools.product(*choices):
        starts = [ext.start]
        stops = [ext.stop]
        for p, j in zip(pipes, combo):
            phases = p.looplet.phases
            if j > 0:
                starts.append(iadd(phases[j - 1].stop, ONE))
            if phases[j].stop is not None:
                stops.append(phases[j].stop)
        cstart = imax(*starts)
        cstop = imin(*stops)
        d = const_diff(cstop, cstart)
        if d is not None and d < 0:
            continue
        simple = isinstance(cstart, (Lit, Var)) and isinstance(cstop, (Lit, Var))
        if simple:
            region = Extent(cstart, cstop)
            inner = _dispatch(ctx, idx, region, phase_body(combo, region))
            if is_nop(inner):
                continue
            if d is not None:
                out.append(inner)
            else:
                out.append(IfChain(((le(cstart, cstop), inner),)))
        else:
            lov = ctx.fresh("lo")
            hiv = ctx.fresh("hi")
            region = Extent(Var(lov), Var(hiv))
            inner = _dispatch(ctx, idx, region, phase_body(combo, region))
            if is_nop(inner):
                continue
            out.append(block([
                Let(lov, cstart),
                Let(hiv, cstop),
                IfChain(((le(Var(lov), Var(hiv)), inner),)),
            ]))
    return block(out)


def _step_loop(ctx: LowerCtx, ext: Extent, steps: List[Looplet], stride: Expr,
               body_of, advance: bool) -> TargetStmt:
    """The stepping loop over `ext` that steppers and jumpers share. Every
    looplet of `steps` seeks to the start; then each iteration binds the
    region's stop to `stride`, runs `body_of(region)` over the region
    [step, stride], advances each looplet whose child ends at the stride
    (with `advance`; else the body advances them), and moves `step` past the
    region.

    Each iteration tests a looplet's end (`stride == stop`) once: an advance
    moves into a trailing branch on exactly its end test, and an end test
    that two or more conditions still read is bound once, after the stride.

    The region is never empty. By the looplet contract each child is
    non-empty and its stop is its last index, so after a seek to `start`,
    and after an advance past the previous stride, every looplet's stop is
    at least `step`. A branch of the body on `step <= stride` is therefore
    always taken, and it is replaced by its arm."""
    out = [x for l in steps if l.seek is not None for x in l.seek.instantiate(ext.start)]
    step_var, stride_var = ctx.fresh("step"), ctx.fresh("stride")
    region = Extent(Var(step_var), Var(stride_var))
    out.append(Let(step_var, ext.start))
    ends = [eq(region.stop, l.stop) for l in steps]
    body = _taken(body_of(region), le(region.start, region.stop))
    if advance:
        body = _advance(body, [(t, l.next.instantiate()) for t, l in zip(ends, steps)])
    # only a test that appears twice can be read twice
    seen = [n for n in walk(body) if isinstance(n, Call) and n.op == "eq" and n in ends]
    read: List[Expr] = []
    _end_tests(body, {t for t in ends if seen.count(t) > 1}, lambda t: read.append(t) or t)
    bound = {t: ctx.fresh("ended") for t in dict.fromkeys(ends) if read.count(t) > 1}
    if bound:
        body = _end_tests(body, set(bound), lambda t: Var(bound[t]))
    loop_body = [Let(stride_var, stride), *(Let(name, t) for t, name in bound.items()),
                 body, AssignVar(step_var, iadd(Var(stride_var), ONE))]
    out.append(While(le(Var(step_var), ext.stop), block(loop_body), cursor=step_var))
    return block(out)


def _taken(s: TargetStmt, cond: Expr) -> TargetStmt:
    """`s` with each branch on `cond` alone replaced by its arm, where `cond`
    holds throughout `s`. Loops are not entered."""
    if isinstance(s, Block):
        return block(_taken(x, cond) for x in s.stmts)
    if not isinstance(s, IfChain):
        return s
    if s.orelse is None and len(s.cases) == 1 and s.cases[0][0] == cond:
        return _taken(s.cases[0][1], cond)
    return s.map(keep, lambda x: _taken(x, cond))


def _written(s: TargetStmt) -> set:
    """Names that `s` declares or assigns, at any depth."""
    return {n.name for n in walk(s) if isinstance(n, (Let, AssignVar))}


def _reads(e: Expr) -> set:
    return {n.name for n in walk(e) if isinstance(n, Var)}


def _advance(body: TargetStmt, advances) -> TargetStmt:
    """`body`, then each (end test, statements) advance under its test. An
    advance whose test is the first condition of the body's trailing branch
    chain joins that branch, when the branch leaves the test's names alone."""
    stmts = list(body.stmts) if isinstance(body, Block) else [body]
    guards = []
    for test, stmts_of in advances:
        last = stmts[-1]
        if (isinstance(last, IfChain) and last.cases[0][0] == test
                and not _written(last.cases[0][1]) & _reads(test)):
            (cond, branch), *rest = last.cases
            stmts[-1] = IfChain(((cond, block([branch, *stmts_of])), *rest), last.orelse)
        else:
            guards.append(IfChain(((test, block(stmts_of)),)))
    return block(stmts + guards)


def _end_tests(s: TargetStmt, tests: set, use) -> TargetStmt:
    """`s` with `use(t)` in place of each end test `t` of `tests` that a
    branch condition reads while t's names keep the values they had where `s`
    starts. Loops are not entered: their conditions run once per iteration of
    their own."""
    reads = {t: _reads(t) for t in tests}

    def expr(e: Expr, live) -> Expr:
        return use(e) if e in live else e.map(lambda x: expr(x, live))

    def stmt(x: TargetStmt, live) -> TargetStmt:
        if not live:
            return x
        if isinstance(x, Block):
            out = []
            for y in x.stmts:
                out.append(stmt(y, live))
                if live:
                    written = _written(y)
                    live = {t for t in live if not reads[t] & written}
            return Block(tuple(out))
        if isinstance(x, IfChain):
            return IfChain(tuple((expr(c, live), stmt(b, live)) for c, b in x.cases),
                           None if x.orelse is None else stmt(x.orelse, live))
        return x

    return stmt(s, tests)


def pass_stepper(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    """A stepping loop whose stride is the least declared stop. Over a
    single-index extent, the steppers seek and the body runs at that index,
    with no loop: the sought positions die with the region."""
    steppers = [f for f in furls if isinstance(f.looplet, Stepper)]
    looplets = [f.looplet for f in steppers]

    def step_body(region: Extent) -> TargetStmt:
        mapping = {f.tag: truncate(f.looplet.body, Extent(region.start, f.looplet.stop), region)
                   for f in steppers}
        return _dispatch(ctx, idx, region, _restrict(body, furls, ext, region, mapping))

    if ext.is_point() and all(l.seek is not None for l in looplets):
        return block([x for l in looplets for x in l.seek.instantiate(ext.start)]
                     + [step_body(ext)])
    stride = imin(*[l.stop for l in looplets], ext.stop)
    return _step_loop(ctx, ext, looplets, stride, step_body, advance=True)


def pass_jumper(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    """A stepping loop whose stride is the largest declared stop: each member
    jumper (whose stop is the stride) is lowered over its whole child and
    advances; the others follow as steppers."""
    jumpers = [f for f in furls if isinstance(f.looplet, Jumper)]

    def step_body(region: Extent) -> TargetStmt:
        branches: List[Tuple[Expr, TargetStmt]] = []
        orelse: Optional[TargetStmt] = None
        for members in sorted(itertools.product([True, False], repeat=len(jumpers)),
                              key=lambda m: -sum(m)):
            mapping, nexts, conds = {}, [], []
            for f, is_member in zip(jumpers, members):
                j = f.looplet
                if is_member:
                    child = Extent(region.start, j.stop)
                    mapping[f.tag] = truncate(j.body, child, child)
                    nexts.extend(j.next.instantiate())
                    conds.append(eq(region.stop, j.stop))
                else:
                    mapping[f.tag] = Stepper(stop=j.stop, body=j.body, next=j.next, seek=j.seek)
            inner = _dispatch(ctx, idx, region, _restrict(body, furls, ext, region, mapping))
            branch = block([inner] + nexts)
            if not conds:
                orelse = branch
            else:
                branches.append((conds[0] if len(conds) == 1 else Call("and", tuple(conds)),
                                 branch))
        return IfChain(tuple(branches), orelse)

    stride = imin(imax(*[f.looplet.stop for f in jumpers]), ext.stop)
    return _step_loop(ctx, ext, [f.looplet for f in jumpers], stride, step_body, advance=False)


def pass_lookup(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    lookups = [f for f in furls if isinstance(f.looplet, Lookup)]

    def instantiate(at: Expr) -> Tuple[List[TargetStmt], Stmt]:
        pre: List[TargetStmt] = []
        mapping = {}
        for f in lookups:
            l: Lookup = f.looplet
            env = {l.index_sym: at}
            for name, e in l.binds:
                pre.append(Let(name, subst(e, env)))
            mapping[f.tag] = subst(l.body, env)
        return pre, replace_furls(body, mapping)

    if ext.is_point():
        pre, newbody = instantiate(ext.start)
        return block(pre + [_dispatch(ctx, idx, ext, newbody)])
    pre, newbody = instantiate(Var(idx))
    inner = _dispatch(ctx, idx, Extent(Var(idx), Var(idx)), newbody)
    if is_nop(inner) and not pre:
        return NOP
    return For(idx, ext.start, ext.stop, block(pre + [inner]))


_PASSES = {
    Style.SWITCH: pass_switch,
    Style.RUN: pass_run,
    Style.SPIKE: pass_spike,
    Style.PIPELINE: pass_pipeline,
    Style.JUMPER: pass_jumper,
    Style.STEPPER: pass_stepper,
    Style.LOOKUP: pass_lookup,
}


# -- program entry ---------------------------------------------------------------------


def lower_program(ctx: LowerCtx, stmt: Stmt) -> TargetStmt:
    stmt = normalize_scatter(stmt)
    check_bindings(stmt)
    dims = {name: bt.dims for name, bt in ctx.tensors.items()}
    stmt = annotate_extents(stmt, dims)
    stmt, root_inits = assign_scopes(stmt)
    stmt = _install_cursors(ctx, stmt)
    body = lower_stmt(ctx, stmt)
    out: List[TargetStmt] = []
    for t in root_inits:
        out.extend(_writer_plan(ctx, t).init_stmts())
    out.append(body)
    for t in root_inits:
        out.extend(_writer_plan(ctx, t).finalize_stmts())
    written = {b for plan in ctx.writers.values() for b in plan.buffers.values()}
    return hoist(block(out), written, ctx.names)


def _install_cursors(ctx: LowerCtx, s: Stmt) -> Stmt:
    def fix(n):
        if isinstance(n, Assign):
            # the output keeps its name as base: its writer, not a cursor, resolves it
            lhs = Access(n.lhs.base, tuple(map(fix, n.lhs.idx)))
            return Assign(lhs, n.op, fix(n.rhs))
        if isinstance(n, Access) and isinstance(n.base, str):
            bt = ctx.tensors.get(n.base)
            if bt is None:
                raise CompileError(f"kernel references unbound tensor {n.base!r}")
            idx = tuple(map(fix, n.idx))
            if not bt.dims:
                return Access(n.base, idx)
            return Access(Cursor(n.base, 1, ONE), idx)
        return n.map(fix, fix)

    return fix(s)
