import os

import numpy as np
import pytest

from corestab._util import _PIECE_ROWS, write_atomic, write_csv


class TestWriteCsv:
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
