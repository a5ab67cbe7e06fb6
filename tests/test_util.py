import csv
import os
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from corestab._util import (_PIECE_ROWS, read_text as read_utf8, sigmoid,
                            write_atomic, write_csv)

from conftest import read_text, write_csv_oracle


def assert_floats_as_repr(tmp_path, values):
    """A float64 column written by write_csv reads as repr of each value."""
    values = np.asarray(values, dtype=np.float64)
    path = tmp_path / "x.csv"
    write_csv(path, ["x"], [values])
    got = read_text(path).split("\n")[1:-1]
    want = list(map(repr, values.tolist()))
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


class TestSigmoid:
    def test_matches_expit(self):
        # three roundings (exp, the sum, the reciprocal) and exp's own
        # error: the largest seen is 2.3 eps, near x = -37
        x = np.linspace(-700.0, 700.0, 1_400_001)
        want = expit(x)
        assert np.max(np.abs(sigmoid(x) - want) / want) <= 3 * np.finfo(
            np.float64).eps

    def test_saturates_without_warning(self):
        x = np.array([-745.5, -1e300, -np.inf, np.inf, np.nan, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        assert got[3] == 1.0 and np.isnan(got[4]) and got[5] == 0.5

    def test_in_place(self):
        x = np.random.default_rng(5).normal(size=(7, 3)) * 50
        want = sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, want)
        assert sigmoid(2.0) == sigmoid(np.array([2.0]))[0]


class TestFloatKernel:
    def test_random_bit_patterns(self, tmp_path):
        # every float64 class: normal, subnormal, zero, inf and NaN
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2 ** 64, size=1 << 20, dtype=np.uint64)
        bits[:4096] &= np.uint64((1 << 52) - 1 | 1 << 63)  # subnormals
        assert_floats_as_repr(tmp_path, bits.view(np.float64))

    def test_around_powers_of_ten(self, tmp_path):
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        near = [tens]
        for direction in (0.0, np.inf):
            step = tens
            for _ in range(3):
                step = np.nextafter(step, direction)
                near.append(step)
        values = np.concatenate(near)
        assert_floats_as_repr(tmp_path, np.concatenate([
            values, -values, 9.5 * tens, 0.999999999999999 * tens,
            9.999999999999999 * tens]))

    def test_exact_ties(self, tmp_path):
        # odd multiples of 1/4 in [2**50, 2**51) and of 1/8 in
        # [2**49, 1e15) end in a 5 at their 18th digit: halfway between
        # two 17-digit decimals, which repr breaks to the even digit
        rng = np.random.default_rng(5)
        quarters = (2 * rng.integers(2 ** 51, 2 ** 52, 20000) + 1) / 4.0
        eighths = (2 * rng.integers(2 ** 51, 4 * 10 ** 15, 20000) + 1) / 8.0
        assert_floats_as_repr(tmp_path, np.concatenate([quarters, eighths]))

    def test_powers_of_two(self, tmp_path):
        powers = 2.0 ** np.arange(-1074, 1024)
        assert_floats_as_repr(tmp_path, np.concatenate([powers, -powers]))

    def test_special_values_and_form_thresholds(self, tmp_path):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-5, 0.0001,
                  0.00011, 9.9999e-05, 1e16, 9999999999999998.0,
                  1.2345e16, 123.0, 0.1, 0.3, 5e-324, 1.7976931348623157e308,
                  2.2250738585072014e-308, 1e-280, 1e280, 1e-281, 1e281]
        assert_floats_as_repr(tmp_path, values)
        path = tmp_path / "forms.csv"
        write_csv(path, ["x"], [np.array([1e-5, 0.0001, 1e16,
                                          9999999999999998.0])])
        assert read_text(path) == \
            "x\n1e-05\n0.0001\n1e+16\n9999999999999998.0\n"

    def test_every_decade_and_length(self, tmp_path):
        # short and long digit strings at each decimal exponent, unsorted,
        # so rows of one layout are scattered through a piece
        rng = np.random.default_rng(9)
        digits = rng.integers(1, 18, 50000)
        mantissas = rng.integers(10 ** (digits - 1), 10 ** digits)
        exponents = rng.integers(-40, 41, 50000)
        assert_floats_as_repr(tmp_path, [
            float(f"{m}e{e}") for m, e in zip(mantissas.tolist(),
                                                exponents.tolist())])


class TestWriteCsv:
    def test_matches_oracle_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        n = _PIECE_ROWS + 7
        columns = [np.arange(n) * 7 - 50, rng.standard_normal(n),
                   rng.random(n) > 0.5, [f"s{i % 13}" for i in range(n)],
                   np.where(rng.random(n) < 0.1, np.nan,
                            rng.standard_normal(n) * 1e-7),
                   range(n), rng.standard_normal(n).astype(np.float32)]
        header = ["i", "f", "b", "s", "tiny", "r", "f32"]
        write_csv(tmp_path / "a.csv", header, columns)
        write_csv_oracle(tmp_path / "b.csv", header, columns)
        assert read_text(tmp_path / "a.csv") == read_text(tmp_path / "b.csv")

    @pytest.mark.parametrize("values", [
        np.array([0, -1, 7, 10, -10, 99, 10 ** 16, 10 ** 17 - 1,
                  -(10 ** 17 - 1)]),
        np.array([3, 10 ** 17, -5]),
        np.array([0, 2 ** 63 - 1, -2 ** 63]),
        np.array([0, 2 ** 64 - 1], dtype=np.uint64),
        np.arange(-40000, 40000, 3, dtype=np.int32)])
    def test_integer_arrays_match_oracle(self, tmp_path, values):
        write_csv(tmp_path / "a.csv", ["n"], [values])
        write_csv_oracle(tmp_path / "b.csv", ["n"], [values])
        assert read_text(tmp_path / "a.csv") == read_text(tmp_path / "b.csv")

    def test_float_column_in_pieces_matches_one_string(self, tmp_path):
        values = np.random.default_rng(0).standard_normal(2 * _PIECE_ROWS + 3)
        values[:4] = [0.0, -0.0, 1e-300, 1.0 / 3.0]
        path = tmp_path / "k1.csv"
        write_csv(path, ["distance"], [values])
        assert path.read_text() == (
            "distance\n" + "".join(repr(float(x)) + "\n" for x in values))

    def test_mixed_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(path, ["k", "name", "delta", "emd"],
                  [np.array([0, 3]), ["a b", "None"], ["", 0.5],
                   [0.0, 1e-20]])
        assert path.read_text() == ("k,name,delta,emd\n0,a b,,0.0\n"
                                    "3,None,0.5,1e-20\n")

    def test_range_column(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_csv(path, ["batch", "loss"],
                  [range(3), np.array([1.5, 2.0, 0.1])])
        assert path.read_text() == "batch,loss\n0,1.5\n1,2.0\n2,0.1\n"

    def test_numpy_floats_in_a_list(self, tmp_path):
        values = [np.float64(0.1), np.float64(1e16), np.float64(-2.0)]
        path = tmp_path / "fits.csv"
        write_csv(path, ["x"], [values])
        assert path.read_text() == "x\n0.1\n1e+16\n-2.0\n"

    def test_every_cell_by_str(self, tmp_path):
        # a Python float and a numpy float64 both print as repr(float(x)),
        # in a list or an array, at every magnitude and special value
        rng = np.random.default_rng(1)
        values = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
             np.finfo(np.float64).max],
            rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 31, 1000)])
        py = values.tolist()
        path = tmp_path / "cells.csv"
        write_csv(path, ["py", "np", "arr", "int", "blank"],
                  [py, list(values), values, list(range(len(py))),
                   ["" if i % 2 else x for i, x in enumerate(py)]])
        assert path.read_text() == "py,np,arr,int,blank\n" + "".join(
            f"{r},{r},{r},{i},{'' if i % 2 else r}\n"
            for i, r in enumerate(map(repr, py)))

    def test_header_only(self, tmp_path):
        path = tmp_path / "fits.csv"
        write_csv(path, ["algorithm", "dim"], [[], []])
        assert path.read_text() == "algorithm,dim\n"

    @pytest.mark.parametrize("columns", [[[1, 2], [3]], [[1, 2]]])
    def test_ragged_or_missing_columns(self, tmp_path, columns):
        with pytest.raises(ValueError, match="equal-length columns"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], columns)
        assert os.listdir(tmp_path) == []


    def test_text_cells_quoted_as_rfc_4180(self, tmp_path):
        # a cell with a comma, a quote, CR or LF, in the first piece and
        # in the second, read back by the csv module
        special = ["a,b", 'say "hi"', "cr\rlf\n", '"', ",", "\u00e9,\u3000"]
        n = _PIECE_ROWS + len(special)
        text = [f"s{i}" for i in range(n)]
        for j, cell in enumerate(special):
            text[j] = text[_PIECE_ROWS + j] = cell
        columns = [text, np.arange(n), np.linspace(0.0, 1.0, n)]
        path = tmp_path / "t.csv"
        write_csv(path, ["text", "i", "x"], columns)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["text", "i", "x"]
        assert [r[0] for r in rows[1:]] == text
        assert {len(r) for r in rows} == {3}
        write_csv_oracle(tmp_path / "oracle.csv", ["text", "i", "x"],
                         columns)
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("cell", ["x\0y", "xy\0", "\0"])
    def test_nul_byte_refused_naming_column(self, tmp_path, cell):
        with pytest.raises(ValueError, match=re.escape(
                "column 'name': a cell holds a NUL byte")):
            write_csv(tmp_path / "t.csv", ["i", "name"],
                      [[1, 2], ["ok", cell]])
        assert os.listdir(tmp_path) == []


class TestReadText:
    def test_utf8_with_universal_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("0\u30001\r\n\u00e9\rz\n".encode("utf-8"))
        assert read_utf8(path) == "0\u30001\n\u00e9\nz\n"

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: 'utf-8' codec can't decode byte 0xff in "
                "position 3")):
            read_utf8(path)


class TestWriteAtomic:
    def test_bytes_pieces_in_order(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_atomic(path, [b"head", b"", b"payload"])
        assert path.read_bytes() == b"headpayload"

    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_piece_leaves_no_file(self, tmp_path, existing):
        path = tmp_path / "k1.csv"
        if existing:
            path.write_text("old\n")

        def pieces():
            yield "distance\n"
            yield "1.0\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            write_atomic(path, pieces())
        assert os.listdir(tmp_path) == (["k1.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"
