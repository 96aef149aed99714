"""The monotone prefix contract of ``Tag.responds_to_prefix``.

QT and AQS ask each probe only the tags that answered its parent probe.
That is exact only if a tag answering ``p + 0`` or ``p + 1`` also answers
``p``; every tag class shipped here must keep that property.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.bitvec import BitVector
from repro.bits.rng import make_rng
from repro.security.blocker import BlockerTag, MaliciousTag
from repro.tags.tag import Tag

ID_BITS = 16


@st.composite
def bit_vectors(draw, max_length=ID_BITS):
    length = draw(st.integers(0, max_length))
    return BitVector(draw(st.integers(0, (1 << length) - 1)), length)


@st.composite
def tags(draw):
    tag_id = draw(st.integers(0, (1 << ID_BITS) - 1))
    kind = draw(st.sampled_from(["plain", "malicious", "blocker"]))
    rng = make_rng(0)
    if kind == "plain":
        return Tag(tag_id=tag_id, id_bits=ID_BITS, rng=rng)
    if kind == "malicious":
        return MaliciousTag(tag_id=tag_id, id_bits=ID_BITS, rng=rng)
    zone = draw(bit_vectors())
    return BlockerTag(
        tag_id=tag_id, id_bits=ID_BITS, rng=rng, privacy_prefix=zone
    )


@settings(max_examples=400, deadline=None)
@given(tag=tags(), prefix=bit_vectors(ID_BITS - 1), bit=st.integers(0, 1))
def test_answering_an_extension_implies_answering_the_prefix(tag, prefix, bit):
    if tag.responds_to_prefix(prefix + BitVector(bit, 1)):
        assert tag.responds_to_prefix(prefix)


@settings(max_examples=200, deadline=None)
@given(tag=tags(), prefix=bit_vectors())
def test_answering_a_probe_implies_answering_its_ancestors(tag, prefix):
    """Monotonicity chained down to the root: whoever answers a probe
    answers every shorter prefix of it, the empty probe included."""
    if tag.responds_to_prefix(prefix):
        for length in range(prefix.length):
            assert tag.responds_to_prefix(prefix[:length])
