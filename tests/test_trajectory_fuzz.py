"""Property tests of the CSV loader: the whole-file parse against the row loop, and its median step."""

import csv

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diffswitch import load_csv, trajectory
from diffswitch.errors import DiffswitchError, MalformedRow, NonUniformGrid

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_texts(draw):
    """A well-formed CSV text and the table it holds."""
    ncols = draw(st.sampled_from([3, 4]))
    table = draw(st.lists(st.lists(FINITE, min_size=ncols, max_size=ncols), min_size=1, max_size=20))
    fmt = draw(st.sampled_from([repr, "{:.17g}".format]))
    lines = [",".join("txyz"[:ncols])] + [",".join(map(fmt, row)) for row in table]
    for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text, np.array(table, dtype=float)


def assert_bit_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# A valid 2-D file with CRLF line ends, as save_csv writes it.
VALID_CSV = b"t,x,y\r\n0,0.5,-1e-3\r\n1,2.25,3\r\n2,-0,4.125\r\n3,1e2,5\r\n"
# Bytes that csv.reader or float() treat specially, plus invalid UTF-8.
SPECIAL_BYTES = b',\n\r" _.-+e0123456789\x00\x0b\x0c\x1c\x85\xc3\xff'


@st.composite
def mutated_bytes(draw):
    """VALID_CSV after 1 to 4 byte inserts, replacements or deletions."""
    raw = bytearray(VALID_CSV)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw) - 1))
        byte = draw(st.sampled_from(SPECIAL_BYTES) | st.integers(0, 255))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert":
            raw.insert(at, byte)
        elif action == "replace":
            raw[at] = byte
        else:
            del raw[at]
    return bytes(raw)


@st.composite
def limited_fields(draw):
    """A small field size limit, and the widths of zero-padded fields: short, perhaps one near the limit."""
    limit = draw(st.integers(1, 40))
    short = st.integers(1, max(1, limit // 4))
    widths = draw(st.lists(st.lists(short, min_size=3, max_size=3), min_size=1, max_size=8))
    if draw(st.booleans()):
        near = st.integers(max(1, limit - 2), limit + 2)
        draw(st.sampled_from(widths))[draw(st.integers(0, 2))] = draw(near)
    return limit, widths


class TestLoadCsvEquivalence:
    """The whole-file parse reads every file exactly as the row loop does."""

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_fast_path_bit_equal_to_row_loop(self, case):
        text, table = case
        fast = trajectory._parse_whole(text)
        assert fast is not None
        assert_bit_equal(fast, table)
        assert_bit_equal(trajectory._parse_rows(text, "traj.csv"), table)

    @settings(max_examples=300, deadline=None)
    # Lone surrogates cannot come out of decoding UTF-8.
    @given(st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters=',\n\r"'),
                   max_size=8))
    def test_any_field_text_parses_as_float_does(self, field):
        text = f"t,x,y\n0,{field},1\n"
        fast = trajectory._parse_whole(text)
        try:
            expected = np.float64(float(field))
        except ValueError:
            assert fast is None
        else:
            # A non-finite value goes to the row loop, which names its line.
            if not np.isfinite(expected):
                assert fast is None
            else:
                assert fast is not None and fast[0, 1].tobytes() == expected.tobytes()

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_bytes())
    # An overflowing field, which the whole-file parse leaves to the row loop.
    @example(b"t,x,y\r\n0,0.5,-1e993\r\n1,2.25,3\r\n2,-0,4.125\r\n3,1e2,5\r\n")
    def test_mutated_bytes_raise_only_domain_errors(self, tmp_path, raw):
        path = tmp_path / "mutated.csv"
        path.write_bytes(raw)
        try:
            load_csv(path)
        except DiffswitchError:
            pass
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return
        fast = trajectory._parse_whole(text)
        if fast is not None:
            assert np.isfinite(fast).all()
            assert_bit_equal(fast, trajectory._parse_rows(text, path))

    @settings(max_examples=300, deadline=None)
    @given(limited_fields())
    def test_field_size_limit_as_row_loop(self, case):
        limit, widths = case
        rows = [",".join(f"{t:0{w}d}" for w in row) for t, row in enumerate(widths)]
        text = "t,x,y\n" + "\n".join(rows) + "\n"
        saved = csv.field_size_limit(limit)
        try:
            fast = trajectory._parse_whole(text)
            try:
                table = trajectory._parse_rows(text, "traj.csv")
            except MalformedRow:
                assert fast is None
            else:
                assert fast is None or np.array_equal(fast, table)
        finally:
            csv.field_size_limit(saved)


class TestNonFiniteValues:
    """A non-finite field is reported with its line, whichever path parses the file."""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_non_finite_field_names_its_line(self, tmp_path, data):
        ncols = data.draw(st.sampled_from([3, 4]))
        rows = [[str(k)] + ["0.5"] * (ncols - 1) for k in range(data.draw(st.integers(3, 8)))]
        row = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, ncols - 1))
        rows[row][col] = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "+nan"]))
        if data.draw(st.booleans()):
            rows[(row + 1) % len(rows)][1] = '"0.5"'  # quoted: parsed by the row loop
        lines = [",".join("txyz"[:ncols])] + [",".join(r) for r in rows]
        blank_at = data.draw(st.integers(1, len(lines)))
        lines.insert(blank_at, "")
        path = tmp_path / "nonfinite.csv"
        path.write_text(data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n", newline="")
        lineno = row + 2 + (blank_at <= row + 1)
        expected = (NonUniformGrid, "time stamp") if col == 0 else (MalformedRow, "position")
        try:
            load_csv(path)
        except DiffswitchError as exc:
            assert (type(exc), str(exc)) == (expected[0], f"{path}:{lineno}: {expected[1]} is not finite")
        else:
            raise AssertionError("a non-finite field loaded")


class TestMedian:
    """trajectory._median, the time step load_csv infers, against np.median."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 30).flatmap(lambda half: st.lists(
        st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10), st.integers(-300, 299)),
        min_size=2 * half + 1, max_size=2 * half + 2)))
    def test_equals_np_median(self, values):
        # Odd and even counts, magnitudes from 1e-300 to 1e300.
        x = np.array(values)
        assert trajectory._median(x).hex() == float(np.median(x)).hex()
