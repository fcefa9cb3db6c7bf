"""The fused single-pass extractor against the token-based oracle.

:class:`repro.diffengine.extractor.CoreContentExtractor` scans a
document once with a regex and memoizes tag verdicts;
``tests/oracles/extractor.py`` is the old tokenize-then-filter
extractor.  They must produce identical core lines on every input:
generated feeds, arbitrary malformed markup, and every configuration.

The product extractors below live for the whole module, so their tag
memos carry entries from earlier examples into later ones, exactly as
a node's extractor does across polls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffengine.extractor import TAG_MEMO_CAP, CoreContentExtractor
from repro.feeds.generator import FeedGenerator
from tests.oracles.extractor import CoreContentExtractor as OracleExtractor

CONFIGS = {
    "default": {},
    "extra-noise": {"extra_noise_elements": frozenset({"aside", "div"})},
    "keep-timestamps": {"strip_timestamp_text": False},
}
FUSED = {name: CoreContentExtractor(**kw) for name, kw in CONFIGS.items()}
ORACLE = {name: OracleExtractor(**kw) for name, kw in CONFIGS.items()}


def assert_equivalent(document: str) -> None:
    for name in CONFIGS:
        assert FUSED[name].core_lines(document) == ORACLE[name].core_lines(
            document
        ), name


# Markup fragments chosen to hit every scanner branch and filter rule:
# tag delimiters on their own, comment and declaration openers, the
# names the filter treats specially, ad classes, volatile attributes,
# clock and counter text, and Unicode whitespace that str.strip() and
# the regex ``\s`` both treat as space.
FRAGMENTS = [
    "<", ">", "/", "!", "?", "<!--", "-->", "<!", "<?", '"', "'", "=",
    " ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u2003", "\u3000",
    "item", "entry", "script", "ttl", "pubDate", "updated",
    "lastBuildDate", "aside", "div", "a", "p", "x",
    ' class="ad"', ' class="sidebar ad"', ' id="ad-banner"',
    ' id="radar"', ' name="ads top"', ' style="c"', " onclick='go()'",
    " nonce=n1", ' href="/p"', " disabled",
    "12:45:10 PM", "Views: 1,234", "480 hits",
    "Thu, 01 Jan 1970 00:00:00 GMT", "2026-10-17T10:00:00Z", "story",
]

markup = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(markup)
def test_random_markup_matches_oracle(document):
    assert_equivalent(document)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="<>/!?-=\"' \n\xa0\x85abcdit:0123", max_size=60))
def test_random_characters_match_oracle(document):
    assert_equivalent(document)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    updates=st.lists(st.floats(0.0, 5000.0), max_size=4),
    fetch_at=st.floats(0.0, 1e7),
)
def test_generated_feeds_match_oracle(seed, updates, fetch_at):
    generator = FeedGenerator(url=f"http://g{seed}.example/rss", seed=seed)
    assert_equivalent(generator.render(0.0))
    for when in sorted(updates):
        generator.publish_update(when)
        assert_equivalent(generator.render(when))
    assert_equivalent(generator.render(fetch_at))


@pytest.mark.parametrize(
    "document",
    [
        "",
        "   \n\t",
        "<a",
        "text then <unterminated tag",
        "<b>x</b> <c <!-- never closed",
        "<!-- never closed <p>x</p>",
        "<!-->still a comment--><p>y</p>",
        "<!DOCTYPE html <p>x</p>",
        "<?xml version='1.0'",
        "<>",
        "< >",
        "</>",
        "<//>",
        "a < b > c",
        "1 <> 2 <3> 4",
        "</ a>",
        "< /script>",
        "<script>x</ script>after",
        "<script>x</SCRIPT>after",
        "<script/>after",
        '<div class="ad"/>after',
        "<br/><br />< br / >",
        '<a b="2" a="1" style="s">x</a>',
        "<a href=x>y</a>",
        '<item class="ad">x</item><pubDate>t</pubDate>',
        "</item></item><pubDate>t</pubDate>",
        "<entry><updated>u</updated></entry><updated>c</updated>",
        "<item/><pubDate>t</pubDate>",
        "<item><item></item><pubDate>t</pubDate></item>",
        "<channel><pubDate>x</pubDate><ttl/>keep</channel>",
        "<lastBuildDate>a<lastBuildDate>b</lastBuildDate>c</lastBuildDate>",
        "<div><div class='ad'>x</div>y</div>",
        "\x1c12:45\x1c<p>\x85Views: 12\xa0</p>",
        "<p>12:45:10 PM</p><p>12:45:10 PM </p>",
    ],
)
def test_edge_cases_match_oracle(document):
    assert_equivalent(document)


def test_memo_stays_bounded_and_correct():
    """10x the cap of distinct tags: the memo never exceeds the cap."""
    fused = CoreContentExtractor()
    oracle = OracleExtractor()
    for chunk in range(10):
        document = "".join(
            f'<a href="/p{chunk}/{i}">link {i}</a>'
            for i in range(TAG_MEMO_CAP)
        )
        assert fused.core_lines(document) == oracle.core_lines(document)
        assert len(fused.tag_memo) <= TAG_MEMO_CAP


def test_memo_is_per_extractor():
    """A verdict cached under one configuration never leaks to another."""
    document = "<div><aside>sidebar junk</aside><p>real</p></div>"
    default = CoreContentExtractor()
    custom = CoreContentExtractor(extra_noise_elements=frozenset({"aside"}))
    assert "sidebar junk" in default.core_lines(document)
    assert "<aside>" in default.tag_memo
    assert "sidebar junk" not in custom.core_lines(document)
    assert "sidebar junk" in default.core_lines(document)
    assert default.tag_memo is not custom.tag_memo
    assert default.tag_memo["<aside>"] != custom.tag_memo["<aside>"]
