"""Property tests for the parsers that read untrusted text.

Tracker spec strings, attack-DSL programs and ``.trc`` trace files
arrive from CLIs, sweep grids, HTTP payloads and disk. Whatever the
text, each parser must either accept it or raise ``ValueError`` (or a
subclass) with a message; any other exception is a parser bug.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import parse_program
from repro.sim.config import SystemConfig
from repro.trackers.registry import (
    UNIVERSAL_PARAMS,
    available_trackers,
    build_tracker,
    parse_spec,
    tracker_info,
)
from repro.workloads.streaming import read_external_trace

CONTEXT = SystemConfig(scale=1 / 1024).tracker_context()

#: Parameter values small enough that a builder accepting them
#: allocates little (a structure-size parameter is only bounded by
#: 64 bits, so a huge one is a legitimate, if costly, request).
_SMALL_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=64).map(str),
    st.sampled_from(
        ["", " ", "1.5", "-0.5", "nan", "inf", "-inf", "1e400", "true",
         "false", "yes", "0x10", "1_0", "fast", "queued", "vector"]
    ),
    st.text(alphabet=string.ascii_letters + "=,@ .-", max_size=6),
)
_VALUES = st.one_of(
    _SMALL_VALUES,
    st.sampled_from([str(1 << 63), str(-(1 << 63) - 1), "9" * 30]),
    st.text(max_size=6),
)


@st.composite
def _spec_strings(draw, values=_VALUES):
    """Mostly well-shaped ``name@key=value,...`` specs, some garbage."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=40))
    name = draw(st.sampled_from(available_trackers() + ["", "nope"]))
    schema = [*UNIVERSAL_PARAMS]
    if name in available_trackers():
        schema += list(tracker_info(name).params)
    keys = draw(
        st.lists(st.sampled_from(schema + ["", "bogus"]), max_size=3)
    )
    items = [f"{key}={draw(values)}" for key in keys]
    if draw(st.booleans()):
        items.append(draw(st.text(alphabet="=,@ x", max_size=4)))
    return f"{name}@{','.join(items)}" if items else name


_DSL_TOKENS = st.sampled_from(
    ["loop", "act", "pre", "nop", "sync_refresh", "row=", "bank=", "$x",
     "$x+1", "$y-2", "3", "-1", "0", ":", " ", "    ", "\n", "\t", "#",
     "# program: p", "=", "+", "(", "$", "9" * 25]
)


@st.composite
def _dsl_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(max_size=80))
    return "".join(draw(st.lists(_DSL_TOKENS, max_size=30)))


_TRC_TOKENS = st.sampled_from(
    ["0", "50", "-1", "1.5", "nan", "inf", "R", "W", "r", "x", "0x1f",
     "1e3", "9" * 25, "#", " ", "\t", "\n", "\r\n", "\x00"]
)


@st.composite
def _trc_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(max_size=80))
    return "".join(draw(st.lists(_TRC_TOKENS, max_size=30)))


class TestTrackerSpecs:
    @given(spec=_spec_strings())
    @settings(max_examples=400, deadline=None)
    def test_parse_spec_raises_only_value_error(self, spec):
        try:
            parse_spec(spec)
        except ValueError:
            pass

    @given(spec=_spec_strings(values=_SMALL_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_build_tracker_raises_only_value_error(self, spec):
        try:
            build_tracker(spec, CONTEXT)
        except ValueError:
            pass


    @pytest.mark.parametrize(
        "spec", ["baseline@trh=0", "cra@cache_ways=0", "hydra@trh=-3"]
    )
    def test_found_crashes_are_value_errors(self, spec):
        with pytest.raises(ValueError):
            build_tracker(spec, CONTEXT)

    def test_out_of_range_ints_are_value_errors(self):
        with pytest.raises(ValueError, match="64 bits"):
            parse_spec(f"mrloc@queue_entries={'9' * 30}")


class TestAttackDsl:
    @given(source=_dsl_texts())
    @settings(max_examples=400, deadline=None)
    def test_parse_program_raises_only_value_error(self, source):
        try:
            parse_program(source)
        except ValueError:
            pass


class TestTraceFiles:
    @given(
        text=_trc_texts(),
        garbage=st.binary(max_size=8),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_read_external_trace_raises_only_value_error(
        self, tmp_path, text, garbage
    ):
        path = tmp_path / "random.trc"
        path.write_bytes(text.encode("utf-8", "surrogatepass") + garbage)
        try:
            read_external_trace(path)
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "line",
        [f"0 R {2 ** 63}", f"0 R {'9' * 25}", f"0 W 5 {2 ** 31}"],
        ids=["row-2^63", "row-25-digits", "lines-2^31"],
    )
    def test_out_of_range_integers_are_value_errors(self, tmp_path, line):
        path = tmp_path / "big.trc"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1:"):
            read_external_trace(path)

