"""Metamorphic properties of the extractor on generated feeds (§3.4).

The paper's claim is that volatile churn yields no diff.  So injecting
the kinds of noise the filter exists for — ads, scripts, comments,
feed metadata, clocks and counters, session attributes — into a
generated feed must leave its core lines unchanged, and no truncated
or garbled input may make the extractor raise.
"""

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.diffengine.extractor import CoreContentExtractor
from repro.feeds.generator import FeedGenerator
from tests.oracles.extractor import CoreContentExtractor as OracleExtractor

TAG_NOISE = [
    '<div class="ad">Buy now</div>',
    '<div class="sidebar ads">50% off</div>',
    '<div id="sponsor-box"><p>Sponsored</p></div>',
    "<script>var t = Date.now(); if (a) { b(); }</script>",
    "<!-- generated 12:45:10 by node 7 -->",
    "<lastBuildDate>Sat, 17 Oct 2026 15:20:41 GMT</lastBuildDate>",
]
#: Each is a whole text node only where a tag ends right before it;
#: two clocks in one text node are not a clock.
TEXT_NOISE = [
    "\n12:45:10 PM",
    "\nViews: 1,234",
    "\n480 hits",
    "\n2026-10-17T15:20:41Z",
]
VOLATILE_ATTRS = [' style="color:red"', ' onclick="track(1)"', " nonce=a9f"]
OPEN_TAG_NAME = re.compile(r"<[A-Za-z][-A-Za-z0-9:_.]*")


def feed(seed: int, updates: int) -> str:
    generator = FeedGenerator(url=f"http://m{seed}.example/rss", seed=seed)
    for step in range(updates):
        generator.publish_update(60.0 * (step + 1))
    return generator.render(60.0 * (updates + 1))


def boundaries(document: str) -> list[int]:
    """Offsets between two tags, outside the feed's own noise tail.

    A tag injected there splits no text run and nests inside no element
    the filter already skips.
    """
    noise_start = document.index("<lastBuildDate>")
    noise_end = document.index("</channel>")
    return [
        offset
        for offset in range(1, len(document))
        if document[offset] in "<\n"
        and document[offset - 1] in ">\n"
        and not noise_start < offset < noise_end
    ]


feeds = st.builds(feed, st.integers(0, 2**16), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(feeds, st.data())
def test_injected_noise_never_changes_core_lines(document, data):
    extractor = CoreContentExtractor()
    expected = extractor.core_lines(document)
    offsets = boundaries(document)
    after_tag = [o for o in offsets if document[o - 1 : o + 1] == ">\n"]
    tags = data.draw(
        st.lists(
            st.tuples(st.sampled_from(offsets), st.sampled_from(TAG_NOISE)),
            max_size=4,
        )
    )
    texts = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(after_tag), st.sampled_from(TEXT_NOISE)
            ),
            max_size=3,
            unique_by=lambda pair: pair[0],
        )
    )
    assume(tags or texts)
    injected = document
    # Highest offset first, so the offsets still to apply stay valid.
    for offset, noise in sorted(tags + texts, reverse=True):
        injected = injected[:offset] + noise + injected[offset:]
    assert extractor.core_lines(injected) == expected


@settings(max_examples=60, deadline=None)
@given(feeds, st.data())
def test_volatile_attributes_never_change_core_lines(document, data):
    extractor = CoreContentExtractor()
    expected = extractor.core_lines(document)
    tags = [match.end() for match in OPEN_TAG_NAME.finditer(document)]
    chosen = data.draw(st.sets(st.sampled_from(tags), min_size=1))
    injected = document
    for offset in sorted(chosen, reverse=True):
        attr = data.draw(st.sampled_from(VOLATILE_ATTRS))
        injected = injected[:offset] + attr + injected[offset:]
    assert extractor.core_lines(injected) == expected


def test_truncation_at_every_offset_never_raises():
    document = feed(seed=3, updates=2)
    extractor = CoreContentExtractor()
    for end in range(len(document) + 1):
        extractor.core_lines(document[:end])


def test_truncation_matches_oracle_on_a_small_feed():
    generator = FeedGenerator(
        url="http://small.example/rss", seed=5, target_items=2
    )
    document = generator.render(30.0)
    fused, oracle = CoreContentExtractor(), OracleExtractor()
    for end in range(len(document) + 1):
        prefix = document[:end]
        assert fused.core_lines(prefix) == oracle.core_lines(prefix), end


@settings(max_examples=100, deadline=None)
@given(
    feeds,
    st.lists(
        st.tuples(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from("<>/!?-=\"' \n\xa0\x85\x1cax0"),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_flipped_characters_never_raise(document, flips):
    chars = list(document)
    for where, char in flips:
        chars[int(where * len(chars))] = char
    garbled = "".join(chars)
    lines = CoreContentExtractor().core_lines(garbled)
    assert lines == OracleExtractor().core_lines(garbled)
