import random

import pytest

from coil.api import PROGRAMS, InputSpec


@pytest.fixture
def programs():
    """The program cache (`api.PROGRAMS`), empty at the start of the test and
    emptied again after it; generated code lives in its entries."""
    PROGRAMS.clear()
    yield PROGRAMS
    PROGRAMS.clear()


def make_vector(rng: random.Random, n: int, density: float, fmt: str,
                dist: str = "uniform01", clustered: bool = False) -> InputSpec:
    """Random vector input; clustered placement favors band/VBL structure."""
    if dist == "uniform01":
        draw = lambda: rng.random()
        fill, dtype = 0.0, "float"
    elif dist == "ints":
        draw = lambda: float(rng.randint(1, 9))
        fill, dtype = 0.0, "float"
    else:
        raise ValueError(dist)
    data = [fill] * n
    if clustered:
        remaining = max(1, int(n * density))
        pos = 0
        while remaining > 0 and pos < n:
            pos += rng.randrange(0, max(2, n // 3))
            run = rng.randint(1, max(1, remaining))
            for k in range(pos, min(n, pos + run)):
                data[k] = draw()
                remaining -= 1
            pos += run + 1
    else:
        for k in range(n):
            if rng.random() < density:
                data[k] = draw()
    return InputSpec([n], data, format=[fmt], fill=fill, dtype=dtype)


def make_matrix(rng: random.Random, n: int, m: int, density: float, fmt,
                dist: str = "uniform01", clustered: bool = False) -> InputSpec:
    rows = []
    for _ in range(n):
        rows.extend(make_vector(rng, m, density, "dense", dist, clustered).data)
    return InputSpec([n, m], rows, format=list(fmt), fill=0.0, dtype="float")


def rel_close(a: list, b: list, tol: float = 1e-12) -> bool:
    from coil.oracle import max_rel_error

    return len(a) == len(b) and max_rel_error(a, b) <= tol
