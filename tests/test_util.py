import os

import numpy as np
import pytest

from corestab._util import _PIECE_ROWS, float_column, fmt_float, write_atomic


def one_string(header, values):
    return header + "\n" + "\n".join(fmt_float(x) for x in values) + "\n"


class TestWriteAtomic:
    def test_column_in_pieces_matches_one_string(self, tmp_path):
        values = np.random.default_rng(0).standard_normal(2 * _PIECE_ROWS + 3)
        values[:4] = [0.0, -0.0, 1e-300, 1.0 / 3.0]
        assert len(list(float_column("distance", values))) == 4
        pieced, whole = tmp_path / "pieced.csv", tmp_path / "whole.csv"
        write_atomic(pieced, float_column("distance", values))
        write_atomic(whole, one_string("distance", values))
        assert pieced.read_bytes() == whole.read_bytes()
        assert whole.read_text() == one_string("distance", values)

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
