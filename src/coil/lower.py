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
    Search,
    TRUE,
    Var,
    const_diff,
    eq,
    iadd,
    imax,
    imin,
    imul,
    isub,
    keep,
    le,
    subst,
    walk,
)
from .looplets import (
    Jumper,
    Lookup,
    Looplet,
    Run,
    SimplifyMark,
    Spike,
    Stepper,
    Style,
    resolve_style,
    style_of,
    truncate,
)
from .rewrite import Ruleset, simplify
from .target import (
    AssignVar,
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


class LowerCtx:
    def __init__(self, tensors: Dict[str, BoundTensor], writers: Dict[str, WriterPlan],
                 ruleset: Optional[Ruleset] = None, collect_stages: bool = False):
        self.tensors = tensors
        self.writers = writers
        self.ruleset = ruleset or Ruleset()
        self.names = _FreshNames()
        self.stages: List[str] = [] if collect_stages else None
        self.switch_branch_limit = 64
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


def _map_furls(s: Stmt, fn) -> Stmt:
    """Rebuild `s` with `fn` applied to every Furl."""

    def go(n):
        if isinstance(n, Furl):
            return fn(n)
        return n if isinstance(n, TARGET_TERMS) else n.map(go, go)

    return go(s)


def collect_furls(s: Stmt) -> List[Furl]:
    found: Dict[int, Furl] = {}
    for n in walk(s):
        if isinstance(n, Furl):
            found.setdefault(n.tag, n)
    return list(found.values())


def replace_furls(s: Stmt, mapping: Dict[int, object]) -> Stmt:
    """Map furl tags to a Looplet (kept furled) or an Expr (unwrapped)."""

    def repl(f: Furl):
        if f.tag not in mapping:
            return f
        v = mapping[f.tag]
        if isinstance(v, Looplet):
            return Furl(v, f.index, f.tag)
        return v

    return _map_furls(s, repl)


def _strip_marks(l):
    from .looplets import Shift, push_shift

    while True:
        if isinstance(l, SimplifyMark):
            l = l.body
        elif isinstance(l, Shift):
            l = push_shift(l.delta, l.body)
        else:
            return l


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
                return Access(Furl(loop, idx, ctx.next_tag()), e.idx[1:])
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
    return Furl(mask_looplet(idx, target), idx, ctx.next_tag())


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
        kind = bt.level_kind(depth)
        if kind == "elem":
            return Read(bt.bufname(depth, "val"), (pos,))
        v = values[k]
        if kind == "dense":
            q = iadd(imul(isub(pos, ONE), Lit(bt.mode_size(depth))), v)
            return chain(depth + 1, q, k + 1, sink)
        if kind == "rle":
            posb, idxb = bt.bufname(depth, "pos"), bt.bufname(depth, "idx")
            r = ctx.fresh(f"r_{bt.name}")
            plo = Read(posb, (pos,))
            phi = Read(posb, (iadd(pos, ONE),))
            sink.append(Let(r, Search(idxb, plo, isub(phi, ONE), v)))
            return Read(bt.bufname(depth, "val"), (Var(r),))
        if kind == "splist":
            posb, idxb = bt.bufname(depth, "pos"), bt.bufname(depth, "idx")
            p = ctx.fresh(f"p_{bt.name}")
            plo = Read(posb, (pos,))
            phi = Read(posb, (iadd(pos, ONE),))
            sink.append(Let(p, Search(idxb, plo, isub(phi, ONE), v)))
            found = Call("and", (le(Var(p), isub(phi, ONE)),
                                 eq(Read(idxb, (Var(p),)), v)))
            return _guarded(ctx, bt, found, depth, Var(p), k, sink)
        if kind == "sband":
            a = Read(bt.bufname(depth, "start"), (pos,))
            b = Read(bt.bufname(depth, "stop"), (pos,))
            o = Read(bt.bufname(depth, "ofs"), (pos,))
            found = Call("and", (le(a, v), le(v, b)))
            return _guarded(ctx, bt, found, depth, iadd(o, isub(v, a)), k, sink,
                            valid_pos=True)
        if kind == "svbl":
            posb, idxb = bt.bufname(depth, "pos"), bt.bufname(depth, "idx")
            ofsb = bt.bufname(depth, "ofs")
            bvar = ctx.fresh(f"b_{bt.name}")
            plo = Read(posb, (pos,))
            phi = Read(posb, (iadd(pos, ONE),))
            sink.append(Let(bvar, Search(idxb, plo, isub(phi, ONE), v)))
            blk_end = Read(idxb, (Var(bvar),))
            blk_len = isub(Read(ofsb, (iadd(Var(bvar), ONE),)), Read(ofsb, (Var(bvar),)))
            blk_start = iadd(isub(blk_end, blk_len), ONE)
            found = Call("and", (le(Var(bvar), isub(phi, ONE)), le(blk_start, v)))
            return _guarded(ctx, bt, found, depth,
                            iadd(Read(ofsb, (Var(bvar),)), isub(v, blk_start)), k, sink)
        raise CompileError(f"cannot follow into level kind {kind!r} of {bt.name}")

    def _guarded(ctx, bt, cond, depth, child_pos, k, sink, valid_pos=False):
        tmp = ctx.fresh(f"v_{bt.name}")
        sink.append(Let(tmp, Lit(bt.fill)))
        inner: List[TargetStmt] = []
        val = chain(depth + 1, child_pos, k + 1, inner)
        inner.append(AssignVar(tmp, val))
        sink.append(IfChain(((cond, block(inner)),)))
        return Var(tmp)

    if guards:
        tmp = ctx.fresh(f"v_{bt.name}")
        out.append(Let(tmp, Lit(MISSING)))
        inner: List[TargetStmt] = []
        val = chain(cur.depth, cur.pos, 0, inner)
        inner.append(AssignVar(tmp, val))
        cond = guards[0] if len(guards) == 1 else Call("and", tuple(guards))
        out.append(IfChain(((cond, block(inner)),)))
        return Var(tmp)
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
        if plan.append_only and not isinstance(core, (Var, Lit)):
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
    # consume simplification markers, then simplify the whole loop nest
    body = _map_furls(body, lambda f: Furl(_strip_marks(f.looplet), f.index, f.tag))
    node = simplify(Forall(idx, ext, body), ctx.ruleset)
    if not isinstance(node, Forall):
        return lower_stmt(ctx, node)
    idx, ext, body = node.idx, node.ext, node.body

    furls = collect_furls(body)
    if not furls:
        return _terminal(ctx, idx, ext, body)

    style = Style.TERMINAL
    for f in furls:
        style = resolve_style(style, style_of(f.looplet))
    passes = {
        Style.SWITCH: pass_switch,
        Style.RUN: pass_run,
        Style.SPIKE: pass_spike,
        Style.PIPELINE: pass_pipeline,
        Style.JUMPER: pass_jumper,
        Style.STEPPER: pass_stepper,
        Style.LOOKUP: pass_lookup,
        Style.TERMINAL: pass_run,  # bare scalars unfurl like runs
    }
    ctx.stage(passes[style].__name__, idx, ext, body)
    return passes[style](ctx, idx, ext, body, furls)


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
    if plan is None or not plan.supports_run_set:
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


def _style_is(f: Furl, style: Style) -> bool:
    return style_of(f.looplet) == style


def pass_run(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    mapping = {}
    for f in furls:
        l = f.looplet
        if isinstance(l, Run):
            mapping[f.tag] = l.body
        elif isinstance(l, Expr):
            mapping[f.tag] = l
    return _dispatch(ctx, idx, ext, replace_furls(body, mapping))


def pass_spike(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    out: List[TargetStmt] = []
    body_stop = isub(ext.stop, ONE)
    d = const_diff(body_stop, ext.start)
    if d is None or d >= 0:
        region = Extent(ext.start, body_stop)
        mapping = {f.tag: truncate(f.looplet, ext, region) for f in furls}
        out.append(_dispatch(ctx, idx, region, replace_furls(body, mapping)))
    point = Extent(ext.stop, ext.stop)
    mapping = {}
    for f in furls:
        if isinstance(f.looplet, Spike):
            mapping[f.tag] = f.looplet.tail
        else:
            mapping[f.tag] = truncate(f.looplet, ext, point)
    out.append(_dispatch(ctx, idx, point, replace_furls(body, mapping)))
    return block(out)


def pass_switch(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    switches = [f for f in furls if _style_is(f, Style.SWITCH)]
    ncombos = 1
    for s in switches:
        ncombos *= len(s.looplet.cases)
    if ncombos > ctx.switch_branch_limit:
        raise CompileError(
            f"switch lowering would need {ncombos} branches (limit "
            f"{ctx.switch_branch_limit}); choose a different protocol")
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
    pipes = [f for f in furls if _style_is(f, Style.PIPELINE)]
    others = [f for f in furls if not _style_is(f, Style.PIPELINE)]
    out: List[TargetStmt] = []

    def phase_body(combo, region: Extent) -> Stmt:
        mapping = {}
        for p, j in zip(pipes, combo):
            phases = p.looplet.phases
            pstart = ext.start if j == 0 else iadd(phases[j - 1].stop, ONE)
            pstop = phases[j].stop if phases[j].stop is not None else ext.stop
            mapping[p.tag] = truncate(phases[j].body, Extent(pstart, pstop), region)
        for f in others:
            mapping[f.tag] = truncate(f.looplet, ext, region)
        return replace_furls(body, mapping)

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


def _emit_seeks(ctx: LowerCtx, nodes, start: Expr) -> List[TargetStmt]:
    stmts: List[TargetStmt] = []
    for n in nodes:
        if n.seek is not None:
            stmts.extend(n.seek.instantiate(start))
    return stmts


def pass_stepper(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    steppers = [f for f in furls if _style_is(f, Style.STEPPER)]
    out = _emit_seeks(ctx, [f.looplet for f in steppers], ext.start)
    step = ctx.fresh("step")
    stride = ctx.fresh("stride")
    out.append(Let(step, ext.start))
    region = Extent(Var(step), Var(stride))
    mapping = {}
    for f in steppers:
        mapping[f.tag] = truncate(f.looplet.body, Extent(Var(step), f.looplet.stop), region)
    for f in furls:
        if f.tag not in mapping:
            mapping[f.tag] = truncate(f.looplet, ext, region)
    inner = _dispatch(ctx, idx, region, replace_furls(body, mapping))
    loop_body: List[TargetStmt] = [
        Let(stride, imin(*([f.looplet.stop for f in steppers] + [ext.stop]))),
        inner,
    ]
    for f in steppers:
        loop_body.append(IfChain(((eq(Var(stride), f.looplet.stop),
                                   block(f.looplet.next.instantiate())),)))
    loop_body.append(AssignVar(step, iadd(Var(stride), ONE)))
    out.append(While(le(Var(step), ext.stop), block(loop_body), cursor=step))
    return block(out)


def pass_jumper(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    jumpers = [f for f in furls if _style_is(f, Style.JUMPER)]
    out = _emit_seeks(ctx, [f.looplet for f in jumpers], ext.start)
    step = ctx.fresh("step")
    stride = ctx.fresh("stride")
    out.append(Let(step, ext.start))
    region = Extent(Var(step), Var(stride))

    def as_follower(j: Jumper) -> Stepper:
        return Stepper(stop=j.stop, body=j.body, next=j.next, seek=j.seek)

    branches: List[Tuple[Expr, TargetStmt]] = []
    orelse_body: Optional[TargetStmt] = None
    n = len(jumpers)
    for members in sorted(itertools.product([True, False], repeat=n),
                          key=lambda m: -sum(m)):
        mapping = {}
        nexts: List[TargetStmt] = []
        for f, is_member in zip(jumpers, members):
            if is_member:
                mapping[f.tag] = truncate(f.looplet.body,
                                          Extent(Var(step), f.looplet.stop),
                                          Extent(Var(step), f.looplet.stop))
                nexts.extend(f.looplet.next.instantiate())
            else:
                mapping[f.tag] = as_follower(f.looplet)
        for f in furls:
            if f.tag not in mapping:
                mapping[f.tag] = truncate(f.looplet, ext, region)
        inner = _dispatch(ctx, idx, region, replace_furls(body, mapping))
        branch = block([inner] + nexts)
        conds = [eq(Var(stride), f.looplet.stop)
                 for f, m in zip(jumpers, members) if m]
        if not conds:
            orelse_body = branch
        else:
            cond = conds[0] if len(conds) == 1 else Call("and", tuple(conds))
            branches.append((cond, branch))
    chain = IfChain(tuple(branches), orelse_body)
    loop_body: List[TargetStmt] = [
        Let(stride, imin(imax(*[f.looplet.stop for f in jumpers]), ext.stop)),
        chain,
        AssignVar(step, iadd(Var(stride), ONE)),
    ]
    out.append(While(le(Var(step), ext.stop), block(loop_body), cursor=step))
    return block(out)


def pass_lookup(ctx: LowerCtx, idx: str, ext: Extent, body: Stmt, furls) -> TargetStmt:
    lookups = [f for f in furls if _style_is(f, Style.LOOKUP)]

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
    return block(out)


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
