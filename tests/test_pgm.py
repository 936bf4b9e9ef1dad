"""8-bit PGM export: scaling rules, palette, binary format round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomoseg.errors import FormatError, ShapeError
from tomoseg.pgm import LABEL_PALETTE, float_to_8bit, gray_to_8bit, label_to_8bit, \
    read_pgm, write_pgm


class TestScaling:
    def test_gray_drops_low_byte(self):
        img = np.array([[0, 255, 256, 65535]], dtype=np.uint16)
        assert gray_to_8bit(img).tolist() == [[0, 0, 1, 255]]

    def test_label_palette_values(self):
        assert LABEL_PALETTE == (0, 51, 102, 153, 204, 255)
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        out = label_to_8bit(img)
        assert out.tolist() == [[0, 51, 102], [153, 204, 255]]
        assert out.dtype == np.uint8

    def test_label_out_of_palette(self):
        with pytest.raises(FormatError, match="palette"):
            label_to_8bit(np.array([[6]], dtype=np.uint8))

    def test_float_min_max(self):
        img = np.array([[0.0, 0.5, 1.0]])
        assert float_to_8bit(img).tolist() == [[0, 128, 255]]

    def test_float_constant_maps_to_zero(self):
        assert float_to_8bit(np.full((3, 3), 2.5)).max() == 0


class TestFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(img, path)
        assert np.array_equal(read_pgm(path), img)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(np.zeros((2, 5), dtype=np.uint8), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n5 2\n255\n")
        assert len(blob) == len(b"P5\n5 2\n255\n") + 10

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(np.zeros((2, 2), dtype=np.uint16), tmp_path / "x.pgm")

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(np.zeros((2, 2, 2), dtype=np.uint8), tmp_path / "x.pgm")

    def test_read_rejects_foreign_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FormatError, match="binary PGM"):
            read_pgm(path)

    def test_read_rejects_truncation(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(np.zeros((4, 4), dtype=np.uint8), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)


WHITESPACE_BYTES = (9, 10, 11, 12, 13, 32)


@pytest.mark.parametrize("first", WHITESPACE_BYTES)
def test_round_trip_keeps_a_whitespace_first_pixel(tmp_path, first):
    img = np.full((2, 3), 200, dtype=np.uint8)
    img[0, 0] = first
    write_pgm(img, tmp_path / "x.pgm")
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), img)


@settings(max_examples=100, deadline=None)
@given(img=arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))),
       first=st.one_of(st.none(), st.sampled_from(WHITESPACE_BYTES)))
def test_round_trip_any_uint8_image(tmp_path_factory, img, first):
    if first is not None:
        img[0, 0] = first
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)
