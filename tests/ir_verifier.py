"""The static verifier of target programs, shared by the IR snapshot tests."""

from coil.expr import Expr, Read, Search, Var
from coil.target import AssignVar, Block, BufferWrite, CallStmt, For, Let, While


def verify(prog, buffers, params, writers=()) -> list:
    """Problems in a target program, following the interpreter's scoping: a
    `Let` binds for the rest of its block, and loop and branch bodies open a
    new scope (`For` binds its variable there). Kernel parameters are bound
    throughout as `$name`. Writer hooks (`CallStmt` `<writer>.<hook>`) are
    checked in program order: each writer is opened by `init` and closed by
    `finalize` before it is opened again, and its other hooks run while open."""
    problems = []
    opened, used = set(), set()

    def hook(fn: str):
        writer, _, name = fn.partition(".")
        if writer not in writers:
            problems.append(f"hook {fn!r} of unknown writer")
        elif name == "init":
            if writer in opened:
                problems.append(f"{fn} while {writer!r} is open")
            opened.add(writer)
            used.add(writer)
        elif writer not in opened:
            problems.append(f"{fn} while {writer!r} is not open")
        elif name == "finalize":
            opened.discard(writer)

    def visit(n, bound: set):
        if isinstance(n, (Var, AssignVar)) and n.name not in bound:
            problems.append(f"unbound variable {n.name!r}")
        if isinstance(n, (Read, Search, BufferWrite)) and n.buf not in buffers:
            problems.append(f"unknown buffer {n.buf!r}")
        if isinstance(n, While) and n.cursor not in bound:
            problems.append(f"while loop with cursor {n.cursor!r}")
        if isinstance(n, CallStmt):
            hook(n.fn)
        scope = bound | {n.var} if isinstance(n, For) else bound
        for c in n.children():
            if isinstance(c, Expr) or isinstance(n, Block):
                visit(c, bound)
            else:
                visit(c, set(scope))
        if isinstance(n, Let):
            bound.add(n.name)

    visit(prog, {f"${k}" for k in params})
    problems += [f"writer {w!r} never finalized" for w in sorted(opened)]
    problems += [f"writer {w!r} never initialized" for w in sorted(set(writers) - used)]
    return problems
