import pytest

from coil.tensorio import (
    TensorIOError,
    matrix_market_dense,
    read_dense_text,
    read_matrix_market,
    write_dense_text,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_coordinate_general(tmp_path):
    path = write(tmp_path, "a.mtx", """%%MatrixMarket matrix coordinate real general
% comment
2 2 2
1 1 5.0
2 2 6.0
""")
    dims, triples, dtype = read_matrix_market(path)
    assert dims == [2, 2]
    assert triples == [(1, 1, 5.0), (2, 2, 6.0)]
    assert dtype == "float"


def test_symmetric_expansion(tmp_path):
    path = write(tmp_path, "s.mtx", """%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 3.0
3 3 1.0
""")
    _, triples, _ = read_matrix_market(path)
    assert (2, 1, 3.0) in triples and (1, 2, 3.0) in triples
    assert sum(1 for t in triples if t[:2] == (3, 3)) == 1


def test_pattern_entries_become_one(tmp_path):
    path = write(tmp_path, "p.mtx", """%%MatrixMarket matrix coordinate pattern general
2 3 1
1 2
""")
    dims, triples, dtype = read_matrix_market(path)
    assert triples == [(1, 2, 1)]
    assert dtype == "int"


def test_duplicates_are_summed(tmp_path):
    path = write(tmp_path, "d.mtx", """%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
1 1 4
""")
    _, triples, _ = read_matrix_market(path)
    assert triples == [(1, 1, 7)]


def test_array_format_is_column_major(tmp_path):
    path = write(tmp_path, "arr.mtx", """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
""")
    dims, data, _ = matrix_market_dense(path)
    assert dims == [2, 2]
    assert data == [1.0, 3.0, 2.0, 4.0]


def test_row_major_sorted_triples(tmp_path):
    path = write(tmp_path, "o.mtx", """%%MatrixMarket matrix coordinate integer general
3 3 3
3 1 1
1 2 2
1 1 3
""")
    _, triples, _ = read_matrix_market(path)
    assert triples == [(1, 1, 3), (1, 2, 2), (3, 1, 1)]


def test_malformed_header(tmp_path):
    path = write(tmp_path, "bad.mtx", "not a header\n1 1 0\n")
    with pytest.raises(TensorIOError):
        read_matrix_market(path)


def test_out_of_bounds_coordinate(tmp_path):
    path = write(tmp_path, "oob.mtx", """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
""")
    with pytest.raises(TensorIOError):
        read_matrix_market(path)


def test_scatter_matches_naive(tmp_path):
    path = write(tmp_path, "m.mtx", """%%MatrixMarket matrix coordinate real general
2 3 3
1 3 1.5
2 1 2.5
1 1 1.0
""")
    dims, data, _ = matrix_market_dense(path)
    naive = [0.0] * 6
    naive[0 * 3 + 2] = 1.5
    naive[1 * 3 + 0] = 2.5
    naive[0] = 1.0
    assert data == naive


def test_dense_text_round_trip(tmp_path):
    p = tmp_path / "v.txt"
    write_dense_text(str(p), [2, 3], [1.0, 2.0, 3.0, 4.5, 5.0, 6.0])
    dims, data, dtype = read_dense_text(str(p))
    assert dims == [2, 3] and dtype == "float"
    assert data == [1.0, 2.0, 3.0, 4.5, 5.0, 6.0]


def test_dense_text_int_and_bool(tmp_path):
    p = write(tmp_path, "i.txt", "dims: 3\n1 2 3\n")
    dims, data, dtype = read_dense_text(p)
    assert data == [1, 2, 3] and dtype == "int"
    p2 = write(tmp_path, "b.txt", "dims: 2 2\ntrue false false true\n")
    _, data2, dtype2 = read_dense_text(p2)
    assert data2 == [True, False, False, True] and dtype2 == "bool"


def test_dense_text_wrong_count(tmp_path):
    p = write(tmp_path, "w.txt", "dims: 4\n1 2 3\n")
    with pytest.raises(TensorIOError):
        read_dense_text(p)


def test_header_keywords_are_case_insensitive(tmp_path):
    path = write(tmp_path, "c.mtx", """%%MatrixMarket Matrix Coordinate Real General
2 2 1
2 1 4.5
""")
    dims, triples, dtype = read_matrix_market(path)
    assert (dims, triples, dtype) == ([2, 2], [(2, 1, 4.5)], "float")
    path = write(tmp_path, "s.mtx", """%%MatrixMarket MATRIX array INTEGER Symmetric
2 2
1
2
3
""")
    assert read_matrix_market(path) == ([2, 2], [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3)],
                                        "int")


@pytest.mark.parametrize("values", [[float("inf"), float("-inf")], [float("nan")],
                                    [float("inf"), 2.0, float("nan")]])
def test_dense_text_non_finite_round_trip(tmp_path, values):
    p = tmp_path / "n.txt"
    write_dense_text(str(p), [len(values)], values)
    dims, data, dtype = read_dense_text(str(p))
    assert dims == [len(values)] and dtype == "float"
    assert [type(v) for v in data] == [float] * len(values)
    assert [repr(v) for v in data] == [repr(v) for v in values]
