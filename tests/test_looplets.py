import itertools
import random

import pytest

from coil.expr import Call, Extent, Lit, Read, Search, Var, extent, iadd
from coil.interp import Buf, Machine
from coil.looplets import (
    Jumper,
    Lookup,
    Phase,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Style,
    Switch,
    materialize,
    push_shift,
    resolve_style,
    truncate,
)
from coil.target import AssignVar, Let, Template


def mach(buffers=None):
    return Machine({k: Buf(k, v) for k, v in (buffers or {}).items()})


# -- styles -------------------------------------------------------------------


def test_style_of_constructors():
    assert Run(Lit(0)).style == Style.RUN
    assert Spike(Lit(0), Lit(1)).style == Style.SPIKE
    assert Lookup("j", Var("j")).style == Style.LOOKUP
    assert Switch(((Lit(True), Run(Lit(0))),)).style == Style.SWITCH
    assert Pipeline((Phase(Run(Lit(0))),)).style == Style.PIPELINE
    st, _ = stepper_over_runs()
    ju, _ = stepper_over_runs(Jumper)
    assert (st.style, ju.style) == (Style.STEPPER, Style.JUMPER)


def test_resolve_style_total_order():
    order = [Style.SWITCH, Style.RUN, Style.SPIKE, Style.PIPELINE,
             Style.JUMPER, Style.STEPPER, Style.LOOKUP]
    for hi, lo in itertools.combinations(order, 2):
        assert resolve_style(hi, lo) == hi
        assert resolve_style(lo, hi) == hi


def test_resolve_style_examples():
    assert resolve_style(Style.SPIKE, Style.STEPPER) == Style.SPIKE
    assert resolve_style(Style.JUMPER, Style.STEPPER) == Style.JUMPER
    assert resolve_style(Style.LOOKUP, Style.LOOKUP) == Style.LOOKUP


def test_resolve_style_is_join():
    styles = list(Style)
    for a, b in itertools.product(styles, repeat=2):
        assert resolve_style(a, b) == resolve_style(b, a)
        assert resolve_style(a, a) == a
    for a, b, c in itertools.product(styles, repeat=3):
        assert resolve_style(a, resolve_style(b, c)) == resolve_style(resolve_style(a, b), c)


# -- truncation ---------------------------------------------------------------


def test_truncate_run_is_identity():
    assert truncate(Run(Lit(5)), extent(1, 10), extent(3, 7)) == Run(Lit(5))


def test_truncate_spike_excluding_tail_is_run():
    got = truncate(Spike(Lit(0), Lit(9)), extent(1, 10), extent(1, 9))
    assert got == Run(Lit(0))


def test_truncate_spike_full_range_is_identity():
    sp = Spike(Lit(0), Lit(9))
    assert truncate(sp, extent(1, 10), extent(1, 10)) == sp


def test_truncate_spike_symbolic_produces_cases():
    sp = Spike(Lit(0), Lit(9))
    got = truncate(sp, Extent(Var("a"), Var("b")), Extent(Var("a"), Var("c")))
    assert isinstance(got, Switch)
    (c1, b1), (c2, b2) = got.cases
    assert b1 == sp and b2 == Run(Lit(0))
    assert c2 == Lit(True)


def test_truncate_lookup_identity():
    lk = Lookup("j", Var("j"))
    assert truncate(lk, extent(1, 10), extent(2, 4)) == lk


def test_truncate_pipeline_drops_constant_outside_phases():
    p = Pipeline((Phase(Run(Lit(1)), stop=Lit(3)), Phase(Run(Lit(2)), stop=Lit(7)),
                  Phase(Run(Lit(3)))))
    got = truncate(p, extent(1, 10), extent(5, 10))
    assert isinstance(got, Pipeline)
    assert len(got.phases) == 2  # the 1..3 phase is gone


# -- materialization ----------------------------------------------------------


def test_materialize_run():
    assert materialize(Run(Lit(3)), extent(1, 4), mach()) == [3, 3, 3, 3]


def test_materialize_spike():
    assert materialize(Spike(Lit(0), Lit(7)), extent(2, 5), mach()) == [0, 0, 0, 7]


def test_materialize_empty_extent():
    assert materialize(Run(Lit(3)), extent(4, 3), mach()) == []


def test_materialize_lookup_binds():
    lk = Lookup("j", Call("mul", (Var("j"), Var("j"))))
    assert materialize(lk, extent(1, 4), mach()) == [1, 4, 9, 16]


def test_materialize_switch_first_match():
    sw = Switch(((Lit(False), Run(Lit(1))), (Lit(True), Run(Lit(2)))))
    assert materialize(sw, extent(1, 3), mach()) == [2, 2, 2]


def test_materialize_switch_no_true_case_errors():
    from coil.interp import InterpError

    sw = Switch(((Lit(False), Run(Lit(1))),))
    with pytest.raises(InterpError):
        materialize(sw, extent(1, 3), mach())


def test_materialize_pipeline_phases():
    p = Pipeline((Phase(Run(Lit(1)), stop=Lit(3)), Phase(Spike(Lit(2), Lit(9)), stop=Lit(6)),
                  Phase(Run(Lit(0)))))
    assert materialize(p, extent(1, 8), mach()) == [1, 1, 1, 2, 2, 9, 0, 0]
    # clipping inside the spike phase degrades its tail to the body value
    assert materialize(p, extent(1, 5), mach()) == [1, 1, 1, 2, 2]


def test_materialize_shift():
    lk = Lookup("j", Var("j"))
    assert materialize(push_shift(Lit(3), lk), extent(4, 6), mach()) == [1, 2, 3]


def stepper_over_runs(node_cls=Stepper):
    # runs [1..3]=10, [4..7]=20, [8..9]=30
    bufs = {"ends": [3, 7, 9], "vals": [10, 20, 30]}
    st = node_cls(
        stop=Read("ends", (Var("p"),)),
        body=Run(Read("vals", (Var("p"),))),
        next=Template((AssignVar("p", iadd(Var("p"), Lit(1))),)),
        seek=Template((Let("p", Search("ends", Lit(1), Lit(3), Var("s0"))),), "s0"),
    )
    return st, bufs


def test_materialize_stepper():
    st, bufs = stepper_over_runs()
    assert materialize(st, extent(1, 9), mach(bufs)) == [10] * 3 + [20] * 4 + [30] * 2
    assert materialize(st, extent(5, 8), mach(bufs)) == [20, 20, 20, 30]


def test_materialize_jumper_matches_stepper():
    st, bufs = stepper_over_runs()
    ju, _ = stepper_over_runs(Jumper)
    assert materialize(ju, extent(2, 9), mach(bufs)) == materialize(st, extent(2, 9), mach(bufs))


# -- randomized truncation soundness -------------------------------------------


class LoopletGen:
    """Random well-formed looplet trees (depth <= 4) with backing buffers."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.buffers = {}
        self.n = 0

    def fresh_buf(self, data):
        self.n += 1
        name = f"g{self.n}"
        self.buffers[name] = list(data)
        return name

    def value(self):
        return self.rng.choice([0, 1, 2, 5, -3, 0.5])

    def gen(self, a: int, b: int, depth: int):
        kinds = ["run", "spike", "lookup"]
        if depth > 0:
            kinds += ["switch", "pipeline", "shift", "stepper", "jumper"]
        k = self.rng.choice(kinds)
        if k == "run":
            return Run(Lit(self.value()))
        if k == "spike":
            return Spike(Lit(self.value()), Lit(self.value()))
        if k == "lookup":
            base = self.fresh_buf([self.value() for _ in range(b + 60)])
            off = self.rng.randint(30, 33)  # keeps shifted coordinates in range
            sym = f"j{self.n}"
            return Lookup(sym, Read(base, (iadd(Var(sym), Lit(off)),)))
        if k == "switch":
            cases = []
            for _ in range(self.rng.randint(1, 2)):
                cases.append((Lit(self.rng.random() < 0.5), self.gen(a, b, depth - 1)))
            cases.append((Lit(True), self.gen(a, b, depth - 1)))
            return Switch(tuple(cases))
        if k == "pipeline":
            cuts = sorted(self.rng.sample(range(a, b + 1), self.rng.randint(0, min(2, b - a + 1))))
            phases = []
            lo = a
            for c in cuts:
                phases.append(Phase(self.gen(lo, c, depth - 1), stop=Lit(c)))
                lo = c + 1
            phases.append(Phase(self.gen(lo, b, depth - 1)))
            return Pipeline(tuple(phases))
        if k == "shift":
            d = self.rng.randint(-3, 3)
            return push_shift(Lit(d), self.gen(a - d, b - d, depth - 1))
        # stepper / jumper over contiguous children covering a..>=b
        ends = []
        cur = a - 1
        while cur < b:
            cur += self.rng.randint(1, max(1, (b - a + 1) // 2))
            ends.append(cur)
        endbuf = self.fresh_buf(ends)
        valbuf = self.fresh_buf([self.value() for _ in range(len(ends))])
        pvar = f"p{self.n}"
        cls = Stepper if k == "stepper" else Jumper
        body = self.rng.choice([
            Run(Read(valbuf, (Var(pvar),))),
            Spike(Lit(0), Read(valbuf, (Var(pvar),))),
        ])
        return cls(
            stop=Read(endbuf, (Var(pvar),)),
            body=body,
            next=Template((AssignVar(pvar, iadd(Var(pvar), Lit(1))),)),
            seek=Template((Let(pvar, Search(endbuf, Lit(1), Lit(len(ends)), Var("s0"))),),
                          "s0"),
        )


def run_truncation_soundness(cases: int, seed: int = 0) -> int:
    rng = random.Random(seed)
    checked = 0
    while checked < cases:
        a = rng.randint(1, 4)
        b = a + rng.randint(0, 9)
        g = LoopletGen(rng)
        l = g.gen(a, b, rng.randint(0, 4))
        full = materialize(l, extent(a, b), mach(g.buffers))
        assert len(full) == b - a + 1
        for _ in range(3):
            c = rng.randint(a, b)
            d = rng.randint(c - 1, b)  # c-1 gives an empty subrange
            sub = materialize(truncate(l, extent(a, b), extent(c, d)),
                              extent(c, d), mach(g.buffers))
            assert sub == full[c - a: d - a + 1], (l, (a, b), (c, d))
            checked += 1
    return checked


def test_truncation_soundness_randomized():
    assert run_truncation_soundness(600, seed=11) >= 600


def test_spike_run_law_randomized():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(1, 5)
        b = a + rng.randint(1, 8)
        sp = Spike(Lit(rng.randint(-3, 3)), Lit(rng.randint(4, 9)))
        d = rng.randint(a, b - 1)
        got = materialize(truncate(sp, extent(a, b), extent(a, d)), extent(a, d), mach())
        assert got == materialize(Run(sp.body), extent(a, d), mach())


def test_shift_law_randomized():
    rng = random.Random(6)
    for _ in range(200):
        a = rng.randint(1, 5)
        b = a + rng.randint(0, 8)
        d = rng.randint(-4, 4)
        g = LoopletGen(rng)
        l = g.gen(a - d, b - d, 2)
        lhs = materialize(push_shift(Lit(d), l), extent(a, b), mach(g.buffers))
        rhs = materialize(l, extent(a - d, b - d), mach(g.buffers))
        assert lhs == rhs

