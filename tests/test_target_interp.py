import random

import pytest

from coil.expr import Call, Lit, Read, Search, Var, iadd, le
from coil.interp import Buf, InterpError, Machine, run_program
from coil.target import (
    AssignVar,
    Block,
    BufferWrite,
    For,
    IfChain,
    Let,
    NOP,
    Nop,
    While,
    block,
    count_loops,
    print_ir,
)
from coil.values import MISSING


def test_print_nop():
    assert print_ir(NOP) == "nop"


def test_print_empty_for_two_lines():
    prog = For("i", Lit(1), Lit(0), NOP)
    assert print_ir(prog) == "for i = 1:0\nend"


def test_print_stable():
    prog = Block((
        Let("x", Lit(3)),
        While(le(Var("x"), Lit(5)), AssignVar("x", iadd(Var("x"), Lit(1))), cursor="x"),
        IfChain(((le(Var("x"), Lit(9)), BufferWrite("y", (Lit(1),), "add", Var("x"))),),
                Nop()),
    ))
    assert print_ir(prog) == print_ir(prog)
    assert print_ir(prog) == (
        "let x = 3\n"
        "while x <= 5\n"
        "  x = x + 1\n"
        "end\n"
        "if x <= 9\n"
        "  y[1] += x\n"
        "end"
    )


def test_search_first_not_less():
    m = Machine({"idx": Buf("idx", [2, 4, 6, 8])})
    assert m.eval(Search("idx", Lit(1), Lit(4), Lit(4))) == 2
    assert m.eval(Search("idx", Lit(1), Lit(4), Lit(5))) == 3
    assert m.eval(Search("idx", Lit(1), Lit(4), Lit(9))) == 5  # hi + 1 when absent
    assert m.counters.searches == 3


def test_search_matches_linear_scan():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 12)
        data = sorted(rng.sample(range(1, 40), n))
        key = rng.randint(0, 41)
        m = Machine({"b": Buf("b", data)})
        got = m.eval(Search("b", Lit(1), Lit(n), Lit(key)))
        want = next((p for p in range(1, n + 1) if data[p - 1] >= key), n + 1)
        assert got == want


def test_empty_for_counts_zero_iterations():
    m = run_program(For("i", Lit(3), Lit(2), BufferWrite("y", (Lit(1),), "add", Lit(1))),
                    {"y": Buf("y", [0])})
    assert m.counters.loop_iterations == 0
    assert m.buffers["y"].data == [0]


def test_interpreter_determinism():
    prog = Block((
        Let("acc", Lit(0)),
        For("i", Lit(1), Lit(6), Block((
            AssignVar("acc", iadd(Var("acc"), Read("v", (Var("i"),)))),
            BufferWrite("y", (Lit(1),), "add", Call("mul", (Var("acc"), Lit(2)))),
        ))),
    ))
    runs = []
    for _ in range(3):
        m = run_program(prog, {"v": Buf("v", [1, 2, 3, 4, 5, 6]), "y": Buf("y", [0])})
        runs.append((m.buffers["y"].data[0], m.counters.as_dict()))
    assert runs[0] == runs[1] == runs[2]


def test_counter_conservation():
    prog = For("i", Lit(1), Lit(5), BufferWrite(
        "y", (Lit(1),), "add", Call("mul", (Read("v", (Var("i"),)), Lit(2), Lit(3)))))
    m = run_program(prog, {"v": Buf("v", [1, 2, 3, 4, 5]), "y": Buf("y", [0])})
    assert m.counters.multiplies == 10  # two per three-operand product, five times
    assert m.counters.buffer_reads == 5
    assert m.counters.buffer_writes == 5


def test_while_progress_guard():
    prog = Block((
        Let("x", Lit(1)),
        While(le(Var("x"), Lit(5)), AssignVar("x", Var("x")), cursor="x"),
    ))
    with pytest.raises(InterpError):
        run_program(prog, {})


def test_missing_write_is_an_error():
    prog = BufferWrite("y", (Lit(1),), "set", Lit(MISSING))
    with pytest.raises(InterpError):
        run_program(prog, {"y": Buf("y", [0.0], "float")})


def test_out_of_bounds_read_is_an_error():
    with pytest.raises(InterpError):
        run_program(Let("x", Read("v", (Lit(9),))), {"v": Buf("v", [1, 2])})


def test_unbound_symbol_is_an_error():
    with pytest.raises(InterpError):
        run_program(Let("x", Var("ghost")), {})


def test_update_write_ops():
    buf = Buf("y", [5], "int")
    run_program(Block((
        BufferWrite("y", (Lit(1),), "min", Lit(3)),
        BufferWrite("y", (Lit(1),), "max", Lit(-1)),
        BufferWrite("y", (Lit(1),), "mul", Lit(4)),
    )), {"y": buf})
    assert buf.data == [12]


def test_lazy_select_protects_oob():
    m = Machine({"v": Buf("v", [7])})
    e = Call("select", (Lit(False), Read("v", (Lit(5),)), Lit(0)))
    assert m.eval(e) == 0


def test_shortcircuit_and_missing():
    m = Machine({})
    assert m.eval(Call("and", (Lit(False), Lit(MISSING)))) is False
    assert m.eval(Call("and", (Lit(True), Lit(MISSING)))) is MISSING
    assert m.eval(Call("or", (Lit(MISSING), Lit(True)))) is True


def test_count_loops():
    prog = Block((For("i", Lit(1), Lit(2), While(le(Var("i"), Lit(1)), NOP)), NOP))
    assert count_loops(prog) == 2
    assert count_loops(block([NOP, NOP])) == 0


def test_buffer_set_rejects_non_int_index():
    buf = Buf("y", [0, 0], "int")
    for bad in (True, 1.0, 0, 3):
        with pytest.raises(InterpError):
            buf.set(bad, 7)
    buf.set(2, 7)
    assert buf.data == [0, 7]
