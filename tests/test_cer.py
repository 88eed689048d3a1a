import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diarscore import cer as cer_module
from diarscore.cer import PUNCTUATION, EditCounts, edit_counts, edit_distance, normalize_text
from diarscore.errors import UndefinedMetricError, ValidationError
from support import normalize_text_oracle, traced_peak


def oracle_distance(a: str, b: str) -> int:
    """Independent quadratic DP, plain python, distance only."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def oracle_counts(a: str, b: str) -> tuple[int, int, int, int]:
    """Independent full-table DP and sub > del > ins walk; (s, d, i, n)."""
    table = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            row.append(min(table[i - 1][j] + 1, row[j - 1] + 1, table[i - 1][j - 1] + (ca != cb)))
        table.append(row)
    s = d = ins = 0
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and table[i][j] == table[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            s += a[i - 1] != b[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and table[i][j] == table[i - 1][j] + 1:
            d, i = d + 1, i - 1
        else:
            ins, j = ins + 1, j - 1
    return s, d, ins, len(a)


def check_against_oracle(ref: str, hyp: str) -> None:
    counts = edit_counts(ref, hyp)
    assert (counts.s, counts.d, counts.i, counts.n) == oracle_counts(ref, hyp)
    assert edit_distance(ref, hyp) == oracle_distance(ref, hyp)


def test_normalize_removes_whitespace():
    assert normalize_text("你好 世界") == "你好世界"
    assert normalize_text("") == ""
    assert normalize_text(" a\tb\nc ") == "abc"


def test_normalize_strips_punctuation_by_default():
    assert normalize_text("abc。") == "abc"
    assert normalize_text("你好，世界！") == "你好世界"
    assert normalize_text("abc。", strip_punctuation=False) == "abc。"


def test_normalize_applies_nfc():
    decomposed = "é"  # e + combining acute
    assert normalize_text(decomposed) == "é"


# every code point str.isspace() accepts, a few that look like space but are
# not (U+200B and U+FEFF are Cf, U+180E is Cf since Unicode 6.3)
SPACES = "".join(ch for ch in map(chr, range(0x3001)) if ch.isspace()) + "\u200b\ufeff\u180e"
NORMALIZE_ALPHABET = st.sampled_from(
    "你好世界中文abcXYZ019"  # CJK and ASCII
    + SPACES
    + "\u0301\u0308\u0327"  # combining marks, which NFC composes
    + "\u200c\u200d\u2060\u00ad\U000e0001"  # more Cf characters
    + "".join(sorted(PUNCTUATION))
    + "\uff0c\ufe50\u3000"  # fullwidth comma, small comma, ideographic space
)


@settings(max_examples=400, deadline=None)
@given(st.text(NORMALIZE_ALPHABET, max_size=40) | st.text(max_size=40), st.booleans())
def test_normalize_matches_the_per_character_oracle(raw, strip):
    assert normalize_text(raw, strip) == normalize_text_oracle(raw, strip)


def test_edit_counts_examples():
    assert edit_counts("abcd", "abcd") == EditCounts(0, 0, 0, 4)
    assert edit_counts("你好世界", "你好地界") == EditCounts(1, 0, 0, 4)
    assert edit_counts("abcd", "abd") == EditCounts(0, 1, 0, 4)
    assert edit_counts("ab", "") == EditCounts(0, 2, 0, 2)
    assert edit_counts("", "xy") == EditCounts(0, 0, 2, 0)


def test_cer_values():
    assert edit_counts("你好世界", "你好地界").cer == Fraction(1, 4)
    assert edit_counts("ab", "").cer == Fraction(1)
    for hyp in ("", "x"):
        with pytest.raises(UndefinedMetricError, match=r"^empty reference: CER undefined$"):
            edit_counts("", hyp).cer


def test_rate_values():
    counts = EditCounts(s=1, d=2, i=3, n=8)
    rates = [counts.rate(c) for c in ("s", "d", "i")]
    assert rates == [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]
    assert sum(counts.rate(c) for c in ("s", "d", "i")) == counts.cer
    for c in ("s", "d", "i"):
        with pytest.raises(UndefinedMetricError, match=r"^empty reference: rate undefined$"):
            EditCounts(0, 0, 2, 0).rate(c)


def test_tie_break_prefers_substitution():
    # "abc" -> "acY" could be del(b)+ins(Y) or sub(b->c)+sub(c->Y); both
    # cost 2, and the fixed traceback order picks the substitution path
    assert edit_counts("abc", "acY") == EditCounts(2, 0, 0, 3)


def test_counts_invariant_s_plus_d_bounded():
    with pytest.raises(ValidationError):
        EditCounts(s=3, d=2, i=0, n=4)


texts = st.text(alphabet="abcde", max_size=30)


@settings(max_examples=300, deadline=None)
@given(texts, texts)
def test_distance_matches_oracle(a, b):
    assert edit_distance(a, b) == oracle_distance(a, b)
    counts = edit_counts(a, b)
    assert counts.distance == oracle_distance(a, b)
    assert counts.n == len(a)


@settings(max_examples=150, deadline=None)
@given(texts, texts)
def test_distance_symmetry(a, b):
    # total distance is symmetric, and d - i always equals the length gap;
    # the exact (s, d, i) split need not mirror when minimum alignments tie,
    # because the fixed sub > del > ins traceback does not mirror
    # (e.g. "bcaab" vs "abacba": (1,1,2) one way, (3,1,0) the other)
    forward = edit_counts(a, b)
    backward = edit_counts(b, a)
    assert forward.distance == backward.distance == edit_distance(a, b)
    assert forward.d - forward.i == len(a) - len(b)
    assert backward.d - backward.i == len(b) - len(a)


def test_unique_alignment_swaps_d_and_i():
    # with a unique minimum alignment the d/i exchange does hold
    forward = edit_counts("你好世界", "你世")
    backward = edit_counts("你世", "你好世界")
    assert (forward.d, forward.i) == (backward.i, backward.d)
    assert forward.s == backward.s == 0


@settings(max_examples=150, deadline=None)
@given(texts, texts, texts)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@settings(max_examples=150, deadline=None)
@given(texts, texts, texts, texts)
def test_concatenation_superadditivity(r1, r2, h1, h2):
    assert edit_distance(r1 + r2, h1 + h2) <= edit_distance(r1, h1) + edit_distance(r2, h2)


# Lengths around the 30- and 60-bit digit boundaries of Python ints, so the
# bit vectors span one, two and three digits, plus empty strings.
lengths = st.sampled_from([0, 1, 29, 30, 31, 59, 60, 61]) | st.integers(0, 70)


def sized_text(draw, alphabet: str, sizes=lengths) -> str:
    size = draw(sizes)
    return draw(st.text(alphabet=alphabet, min_size=size, max_size=size))


@st.composite
def tie_heavy_pairs(draw):
    alphabets = [("a", "ab"), ("ab", "a"), ("ab", "abc"), ("abc", "ab")]
    ref_alpha, hyp_alpha = draw(st.sampled_from(alphabets))
    return sized_text(draw, ref_alpha), sized_text(draw, hyp_alpha)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_pairs())
def test_counts_match_oracle_split(pair):
    ref, hyp = pair
    counts = edit_counts(ref, hyp)
    assert (counts.s, counts.d, counts.i, counts.n) == oracle_counts(ref, hyp)


@pytest.mark.parametrize("ref_len", [0, 29, 30, 31, 59, 60, 61])
@pytest.mark.parametrize("hyp_len", [0, 29, 30, 31, 59, 60, 61])
def test_counts_match_oracle_at_digit_boundaries(ref_len, hyp_len):
    rng = random.Random(ref_len * 100 + hyp_len)
    ref = "".join(rng.choice("ab") for _ in range(ref_len))
    hyp = "".join(rng.choice("abc") for _ in range(hyp_len))
    check_against_oracle(ref, hyp)


def test_counts_match_oracle_on_long_non_bmp_text():
    # over 1,000 characters, with astral-plane code points mixed in
    rng = random.Random(7)
    alphabet = "a\U00020000\U0001F600"
    ref = "".join(rng.choice(alphabet) for _ in range(1_050))
    hyp = list(ref)
    for _ in range(150):
        k = rng.randrange(len(hyp))
        op = rng.randrange(3)
        if op == 0:
            hyp[k] = rng.choice(alphabet)
        elif op == 1:
            del hyp[k]
        else:
            hyp.insert(k, rng.choice(alphabet))
    hyp = "".join(hyp)
    check_against_oracle(ref, hyp)
    assert edit_counts("𠀀", "") == EditCounts(0, 1, 0, 1)
    assert edit_counts("𠀀a", "a𠀀") == EditCounts(*oracle_counts("𠀀a", "a𠀀"))


# Affix lengths at the same digit boundaries, so a trimmed middle can start
# or end at any digit of the untrimmed strings.
affix_lengths = st.sampled_from([0, 29, 30, 31, 59, 60, 61])


@st.composite
def shared_affix_pairs(draw):
    ref_alpha, hyp_alpha = draw(st.sampled_from([("a", "ab"), ("ab", "a"), ("ab", "abc")]))
    both = ref_alpha + hyp_alpha
    prefix = sized_text(draw, both, affix_lengths)
    suffix = sized_text(draw, both, affix_lengths)
    core_a = draw(st.text(alphabet=ref_alpha, max_size=12))
    core_b = draw(st.text(alphabet=hyp_alpha, max_size=12))
    return prefix + core_a + suffix, prefix + core_b + suffix


@settings(max_examples=300, deadline=None)
@given(shared_affix_pairs())
def test_counts_match_oracle_with_shared_affixes(pair):
    check_against_oracle(*pair)


@pytest.mark.parametrize(
    "ref, hyp",
    [
        pytest.param("aa", "aaa", id="prefix-and-suffix-would-overlap"),
        pytest.param("ab" * 30, "ab" * 30 + "a", id="ref-is-a-prefix"),
        pytest.param("ab" * 31, "b" + "ab" * 30, id="hyp-is-a-suffix"),
        pytest.param("a" * 30 + "b" * 31, "a" * 30 + "b" * 31, id="empty-cores"),
        pytest.param("a" * 29 + "b" * 31, "a" * 29 + "ab" + "b" * 30, id="one-insertion"),
        pytest.param("", "a" * 61, id="empty-ref"),
    ],
)
def test_counts_match_oracle_on_nested_affixes(ref, hyp):
    check_against_oracle(ref, hyp)
    check_against_oracle(hyp, ref)


def cjk_stream(size: int) -> str:
    rng = random.Random(11)
    return "".join(chr(rng.randrange(0x4E00, 0x9FA6)) for _ in range(size))


def test_identical_streams_keep_no_traceback():
    # untrimmed, the traceback would run over 16k x 16k cells
    ref = cjk_stream(16_000)
    hyp = ref[:8_000] + ref[8_000:]  # equal, but another object
    counts, peak = traced_peak(edit_counts, ref, hyp)
    assert counts == EditCounts(0, 0, 0, 16_000)
    assert peak < 1_000_000


def test_one_changed_character_keeps_no_traceback():
    ref = cjk_stream(16_000)
    hyp = ref[:8_000] + ("好" if ref[8_000] != "好" else "坏") + ref[8_001:]
    counts, peak = traced_peak(edit_counts, ref, hyp)
    assert counts == EditCounts(1, 0, 0, 16_000)
    assert peak < 1_000_000
    assert edit_distance(ref, hyp) == 1


def test_match_table_of_distinct_cjk_text_is_keyed_by_code_point():
    # 8,000 distinct characters: no mask, 8,000 positions; a table keyed by
    # one-character strings peaked at 0.90 MB on Python 3.13 and 1.03 MB on
    # 3.11, one keyed by code point at 0.77 MB
    ref = "".join(chr(0x4E00 + k) for k in range(8_000))
    (masks, at), peak = traced_peak(cer_module._match_masks, ref)
    assert peak < 840_000
    assert (masks, at) == ({}, {0x4E00 + k: k for k in range(8_000)})


@settings(max_examples=300, deadline=None)
@given(tie_heavy_pairs())
def test_block_by_block_traceback_matches_oracle(pair):
    # no table fits the budget: blocks of about sqrt(m) columns, recomputed
    # from their first column as the walk reaches them
    ref, hyp = pair
    budget = cer_module._TRACE_BLOCK_BITS
    cer_module._TRACE_BLOCK_BITS = 0
    try:
        check_against_oracle(ref, hyp)
    finally:
        cer_module._TRACE_BLOCK_BITS = budget


def test_large_table_keeps_one_block(monkeypatch):
    # whole, the traceback of this pair would keep 2 x 6k x 6k bits, 9 MB
    rng = random.Random(5)
    ref = "".join(rng.choice("abcd") for _ in range(6_000))
    hyp = "".join(rng.choice("abcd") for _ in range(6_000))
    counts, peak = traced_peak(edit_counts, ref, hyp)
    assert peak < 1_000_000
    monkeypatch.setattr(cer_module, "_TRACE_BLOCK_BITS", 2 * 6_001 * 6_000)
    whole, whole_peak = traced_peak(edit_counts, ref, hyp)
    assert whole_peak > 9_000_000
    assert counts == whole
    assert counts.distance == edit_distance(ref, hyp)
