"""Unit tests for protocol message types, their bit accounting and the
wire table every encoding is derived from."""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arrayloop
from repro.core.arraystate import ArrayCore, IdSlab, IdSpace, _to_message
from repro.core.messages import (
    ABORT,
    MERGE,
    MSG_TYPES,
    WIRE_TABLE,
    Conquer,
    Info,
    MergeAccept,
    MergeFail,
    MoreDone,
    Probe,
    ProbeReply,
    Query,
    QueryReply,
    Release,
    Search,
    fixed_bit_bases,
)
from repro.sim.scheduler import _FIFO
from repro.sim.trace import HEADER_BITS
from tests.conftest import plant_wire, to_wire
from tests.test_direct_entry import ID_TYPES

ROOT = Path(__file__).resolve().parents[1]


B = 16  # id_bits used throughout


class TestBitSizes:
    def test_query_constant(self):
        assert Query(5).bit_size(B) == HEADER_BITS + B

    def test_query_reply_scales_with_ids(self):
        small = QueryReply(frozenset({1}), False).bit_size(B)
        large = QueryReply(frozenset(range(10)), False).bit_size(B)
        assert large - small == 9 * B

    def test_search_fixed(self):
        msg = Search(1, 3, 2, False)
        assert msg.bit_size(B) == HEADER_BITS + 3 * B + 1

    def test_release_fixed(self):
        assert Release(1, MERGE, 2, 3).bit_size(B) == HEADER_BITS + 3 * B + 1

    def test_control_messages_are_header_sized(self):
        assert MergeAccept().bit_size(B) == HEADER_BITS
        assert MergeFail().bit_size(B) == HEADER_BITS
        assert MoreDone(True).bit_size(B) == HEADER_BITS + 1

    def test_info_scales_with_all_sets(self):
        msg = Info(2, frozenset({1, 2}), frozenset({3}), frozenset(), frozenset({4}))
        assert msg.bit_size(B) == HEADER_BITS + (4 + 1) * B

    def test_conquer(self):
        assert Conquer(7, 3).bit_size(B) == HEADER_BITS + 2 * B

    def test_probe_messages(self):
        assert Probe(1).bit_size(B) == HEADER_BITS + B
        assert ProbeReply(1, frozenset({2, 3}), 4).bit_size(B) == HEADER_BITS + 4 * B


class TestSemantics:
    def test_release_answer_validated(self):
        Release(1, MERGE, 2, 1)
        Release(1, ABORT, 2, 1)
        with pytest.raises(ValueError):
            Release(1, "maybe", 2, 1)

    def test_msg_types_are_distinct(self):
        types = {
            Query(1).msg_type,
            QueryReply(frozenset(), True).msg_type,
            Search(1, 1, 2, False).msg_type,
            Release(1, MERGE, 2, 1).msg_type,
            MergeAccept().msg_type,
            MergeFail().msg_type,
            Info(1, frozenset(), frozenset(), frozenset(), frozenset()).msg_type,
            Conquer(1, 1).msg_type,
            MoreDone(False).msg_type,
            Probe(1).msg_type,
            ProbeReply(1, frozenset(), 2).msg_type,
        }
        assert len(types) == 11

    def test_messages_are_immutable(self):
        msg = Search(1, 1, 2, False)
        with pytest.raises(Exception):
            msg.new = True


#: One id space per id shape of ``tests/test_direct_entry.py``.
SPACES = {
    name: IdSpace([make(i) for i in range(12)]) for name, make in ID_TYPES.items()
}


def instances(row, ids):
    """Strategy for instances of one table row's class over ``ids``."""
    cls, fields = row
    one = st.sampled_from(ids)
    by_kind = {
        "id": one,
        "int": st.integers(0, 1 << 40),
        "flag": st.booleans(),
        "verdict": st.sampled_from([MERGE, ABORT]),
        "id-set": st.frozensets(one),
    }
    return st.builds(cls, *[by_kind[kind] for _name, kind in fields])


@pytest.mark.parametrize("tag", range(len(WIRE_TABLE)), ids=MSG_TYPES)
class TestWireTable:
    """``WIRE_TABLE`` is the only statement of a message's encoding: the
    class, the codec, the bit table, the C names and the doc all agree
    with it, row by row."""

    def test_fields_are_the_dataclass_fields_in_order(self, tag):
        cls, fields = WIRE_TABLE[tag]
        assert [f.name for f in dataclasses.fields(cls)] == [name for name, _ in fields]
        assert MSG_TYPES[tag] == cls.msg_type

    @pytest.mark.parametrize("id_type", sorted(ID_TYPES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_codec_round_trips_and_bits_follow_the_kinds(self, tag, id_type, data):
        space = SPACES[id_type]
        message = data.draw(instances(WIRE_TABLE[tag], space.ids))
        wire = to_wire(message, space.index)
        assert wire[0] == tag and len(wire) == 1 + len(WIRE_TABLE[tag][1])
        assert _to_message(wire, space.ids) == message
        module = arrayloop.load()
        if module is not None:
            # ... and through the C codec: planted on a suspended run (two
            # nodes that know nobody woken one call at a time), the wire is
            # decoded onto a channel and the next exit encodes it.
            core = ArrayCore(space, B)
            core.local = IdSlab.of([()] * space.n)
            pool, cell = [-3, -4], [0]
            assert module.run(core, pool, _FIFO, None, 1, cell) == (arrayloop.RC_LIMIT, -1)
            plant_wire(core, space.ids[0], space.ids[1], message)
            assert module.run(core, pool, _FIFO, None, 2, cell) == (arrayloop.RC_LIMIT, -1)
            assert core.chanq == {0: [wire]} and pool == [0]
        extra_ids = sum(
            len(getattr(message, name))
            for name, kind in WIRE_TABLE[tag][1]
            if kind == "id-set"
        )
        for b in range(21):
            assert message.bit_size(b) == fixed_bit_bases(b)[tag] + extra_ids * max(b, 1)

    def test_the_doc_table_is_this_row(self, tag):
        text = (ROOT / "docs" / "STATE_MACHINE.md").read_text()
        rows = re.findall(
            r"^\| (\d+) \| `([a-z-]+)` \| (.+?) \| (.+?) \| (.+?) \|$", text, re.M
        )
        assert [int(row[0]) for row in rows] == list(range(len(WIRE_TABLE)))
        _, msg_type, fields, fixed, variable = rows[tag]
        cls, expected = WIRE_TABLE[tag]
        assert msg_type == cls.msg_type
        assert tuple(re.findall(r"`(\w+)` \(([a-z-]+)\)", fields)) == expected
        assert tuple(re.findall(r"`(\w+)`", variable)) == tuple(
            name for name, kind in expected if kind == "id-set"
        )
        for b in (1, 7, 16):
            terms = {"h": HEADER_BITS, "b": b}
            cost = sum(
                int(n or 1) * terms.get(unit, 1)
                for n, unit in re.findall(r"(\d*)([hb]?)(?: \+ |$)", fixed)
                if n or unit
            )
            assert cost == fixed_bit_bases(b)[tag]


def test_the_loader_defines_every_encoding_the_c_file_names():
    source = (ROOT / "src" / "repro" / "core" / "_arrayloop.c").read_text()
    named = set(re.findall(r"\b(?:T|ST|V|MODE|RC|N|F)_[A-Z][A-Z_]*\b", source))
    defined = arrayloop.defines()
    assert named and named <= set(defined), sorted(named - set(defined))
    # ... and the file numbers none of them itself (the CI lint, in-suite).
    assert not re.search(r"#define (?:T|ST|V|MODE|RC|N|F)_[A-Z_]+ +[0-9]", source)
    assert not re.search(r"PyTuple_(?:GET|SET)_ITEM\([a-z_]+, *[1-9]\)", source)
    assert not re.search(r"PyTuple_New\([0-9]", source)
