"""Character-level alignment and error counting.

Format characters are dropped, text is normalized to NFC, whitespace is
always removed, and a fixed punctuation table is stripped by default; what
remains is scored one code point per token (so each CJK character is one
token).  Alignment is unit-cost Levenshtein; when several minimum-cost
alignments exist the traceback prefers substitution over deletion over
insertion, making the S/D/I split deterministic.

Both alignments first drop the longest common prefix of the two texts,
then the longest common suffix of what remains; neither changes the
distance or the S/D/I split (Ukkonen 1985), so only the differing middles
are aligned.  Their DP table is computed one hypothesis column at a time
as bit vectors over the reference positions (Myers' bit-parallel algorithm
on Python ints), from a match table keyed by code point.  A distance needs
O(n) memory for a reference middle of n characters; the S/D/I traceback
keeps 2n bits per hypothesis character instead of a full integer table.
"""

from __future__ import annotations

import math
import re
import string
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

from .errors import UndefinedMetricError, ValidationError

__all__ = ["CharSeq", "EditCounts", "PUNCTUATION", "edit_counts", "edit_distance", "normalize_text"]

# A traceback table up to this many bits is kept whole; a larger one is
# kept a block of about this size at a time (edit_counts).
_TRACE_BLOCK_BITS = 1 << 21

# Each normalized token is one code point; a CharSeq is just their concatenation.
CharSeq = str

# Stripped by default: ASCII punctuation plus common CJK and fullwidth marks.
PUNCTUATION = frozenset(
    string.punctuation
    + "。，、；：？！·…—～‘’“”〝〞「」『』〈〉《》（）【】〔〕［］｛｝"
    + "＜＞，．；：？！＠＃＄％＾＆＊－＿＋＝｜＼／￥〃"
)
# str.translate deletes each character this table maps to None
_DROP_PUNCTUATION = dict.fromkeys(map(ord, PUNCTUATION))
# finds a PUNCTUATION character without allocating, where str.translate copies
_FIND_PUNCTUATION = re.compile("[" + re.escape("".join(sorted(PUNCTUATION))) + "]")


@dataclass(frozen=True)
class EditCounts:
    """Substitution/deletion/insertion counts against a reference of length n."""

    s: int
    d: int
    i: int
    n: int

    def __post_init__(self):
        if min(self.s, self.d, self.i, self.n) < 0:
            raise ValidationError("negative edit count")
        if self.s + self.d > self.n:
            raise ValidationError("substitutions + deletions exceed reference length")

    @property
    def distance(self) -> int:
        return self.s + self.d + self.i

    @property
    def cer(self) -> Fraction:
        """(s + d + i) / n; undefined for an empty reference."""
        if self.n == 0:
            raise UndefinedMetricError("empty reference: CER undefined")
        return Fraction(self.distance, self.n)

    def rate(self, component: str) -> Fraction:
        """One count ("s", "d" or "i") as a fraction of the reference length."""
        if self.n == 0:
            raise UndefinedMetricError("empty reference: rate undefined")
        return Fraction(getattr(self, component), self.n)

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(self.s + other.s, self.d + other.d, self.i + other.i, self.n + other.n)


def normalize_text(raw: str, strip_punctuation: bool = True) -> CharSeq:
    """Drop format characters, NFC-normalize, drop all whitespace, optionally punctuation.

    Format characters (Unicode category Cf, such as U+200B or U+FEFF) are
    invisible, so a text scores as it would without them.  They go before
    NFC, so the characters on either side compose as in the clean text.
    """
    # no Cf character is printable, so printable text skips the lookups
    if not raw.isprintable():
        raw = "".join(ch for ch in raw if unicodedata.category(ch) != "Cf")
    # str.split() splits on exactly the characters str.isspace() accepts
    text = "".join(unicodedata.normalize("NFC", raw).split())
    if strip_punctuation and _FIND_PUNCTUATION.search(text):
        return text.translate(_DROP_PUNCTUATION)
    return text


def _middles(ref: str, hyp: str) -> tuple[str, str]:
    """ref and hyp without their longest common prefix, then common suffix.

    The suffix is taken after the prefix, so the two never overlap.  Each
    affix is found by halving the unmatched span with slice compares.
    """

    def shared_prefix(a: str, b: str) -> int:
        lo, hi = 0, min(len(a), len(b))  # a[:lo] == b[:lo], and no match beyond hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a.startswith(b[lo:mid], lo):
                lo = mid
            else:
                hi = mid - 1
        return lo

    p = shared_prefix(ref, hyp)
    ref, hyp = ref[p:], hyp[p:]
    q = shared_prefix(ref[::-1], hyp[::-1])
    return ref[: len(ref) - q], hyp[: len(hyp) - q]


def _match_masks(ref: str) -> tuple[dict[int, int], dict[int, int]]:
    """Myers' Peq table of ref: where each of its characters stands.

    A character found more than once gets its bit mask, bit i set where
    ref[i] == c; one found once gets only its position, and _columns makes
    its one-bit mask when a column needs it.  A mask takes as many bits as
    the position of its last match, so whole masks for text of n distinct
    characters would take n^2 / 2 bits.  Both tables are keyed by code
    point: an int key takes under half the bytes of a one-character CJK
    string.
    """
    masks: dict[int, int] = {}
    at: dict[int, int] = {}
    for pos, ch in enumerate(map(ord, ref)):
        if ch not in at:
            at[ch] = pos
        elif ch in masks:
            masks[ch] |= 1 << pos
        else:
            masks[ch] = 1 << at[ch] | 1 << pos
    return masks, at


def _columns(peq: tuple[dict[int, int], dict[int, int]], n: int, hyp: str, vp: int, vn: int):
    """Yield the vertical deltas (VP, VN) of the DP columns after (vp, vn).

    One column per character of hyp, for a reference of n characters with
    match table peq (from _match_masks).  Bit i-1 of VP (VN) is set when
    d[i][j] - d[i-1][j] is +1 (-1); both clear means 0.  This is Myers'
    bit-vector algorithm (Myers 1999) in Hyyro's (2001) global form: the
    top row d[0][j] = j adds a carry-in of 1 to every horizontal delta, and
    column 0 (d[i][0] = i) is all +1.  A column depends only on the one
    before it, so a pass can resume from any column's (VP, VN).
    """
    mask = (1 << n) - 1
    masks, at = peq
    for ch in map(ord, hyp):
        eq = masks.get(ch)
        if eq is None:
            eq = 1 << at[ch] if ch in at else 0
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & mask)
        hn = vp & xh
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
        yield vp, vn


def edit_distance(ref: str, hyp: str) -> int:
    """Unit-cost Levenshtein distance, bit-parallel, of the differing middles.

    d(cu, cv) = d(uc, vc) = d(u, v), so the common prefix and suffix are
    dropped first; memory is O(n) for a reference middle of n characters.
    """
    ref, hyp = _middles(ref, hyp)
    vp, vn = (1 << len(ref)) - 1, 0
    for vp, vn in _columns(_match_masks(ref), len(ref), hyp, vp, vn):
        pass
    return len(hyp) + vp.bit_count() - vn.bit_count()


def edit_counts(ref: CharSeq, hyp: CharSeq) -> EditCounts:
    """Minimum-cost alignment counts with the fixed sub > del > ins tie-break.

    The common prefix and suffix are dropped first, and the split does not
    change.  With equal last characters d[n][m] = d[n-1][m-1], so the walk
    takes the free diagonals through the suffix.  A cell of the prefix's
    last row or column that the walk reaches holds exactly the length
    difference, so only insertions or deletions remain from it, as on the
    trimmed table's top row and left column.  ``n`` is the length of the
    untrimmed reference.

    On the middles it walks back from d[n][m] through the columns' (VP, VN)
    pairs, 2n bits per hypothesis character for a reference of n.  The
    columns come in blocks of ``span``: the forward pass keeps the pair of
    every span-th column and the whole last block, and the walk recomputes
    each earlier block from its first column when it gets there.  A table
    of at most _TRACE_BLOCK_BITS bits is one block and is computed once;
    a larger one keeps about that many bits (at least sqrt(m) columns)
    whatever the size of the middles, for a second pass over its columns.
    The walk tracks here = d[i][j] and left = d[i][j-1] and reads each
    neighbour from one bit: d[i-1][j] = here - delta(i, j) and
    d[i-1][j-1] = left - delta(i, j-1).  A full prefix popcount is needed
    only when the walk enters a new column.
    """
    full_n = len(ref)
    ref, hyp = _middles(ref, hyp)
    n, m = len(ref), len(hyp)
    peq = _match_masks(ref)
    span = max(_TRACE_BLOCK_BITS // (2 * n + 1), math.isqrt(m), 1)
    lo = (m - 1) // span * span if m else 0  # first column of the last block
    vps, vns = [(1 << n) - 1], [0]  # column 0: d[i][0] = i
    marks = [(vps[0], 0)]  # (VP, VN) of columns 0, span, 2 * span, ...
    for j, (vp, vn) in enumerate(_columns(peq, n, hyp, vps[0], 0), 1):
        if j % span == 0:
            marks.append((vp, vn))
        if j == lo:
            vps, vns = [vp], [vn]
        elif j > lo:
            vps.append(vp)
            vns.append(vn)

    def cell(i: int, j: int) -> int:
        low = (1 << i) - 1
        return j + (vps[j - lo] & low).bit_count() - (vns[j - lo] & low).bit_count()

    def delta(i: int, j: int) -> int:
        return (vps[j - lo] >> (i - 1) & 1) - (vns[j - lo] >> (i - 1) & 1)

    s = d = ins = 0
    i, j = n, m
    here = cell(n, m)
    left = cell(n, m - 1) if m else 0
    while i and j:  # columns j and j - 1 are in the block: lo < j <= lo + span
        diag = left - delta(i, j - 1)
        cost = ref[i - 1] != hyp[j - 1]
        if here == diag + cost:
            s += cost
            i -= 1
            j -= 1
            here = diag
        elif vps[j - lo] >> (i - 1) & 1:  # d[i-1][j] = here - 1
            d += 1
            left -= delta(i, j - 1)
            i -= 1
            here -= 1
            continue
        else:
            ins += 1
            j -= 1
            here = left
        if j == lo and j:  # recompute the block before, after freeing this one
            lo -= span
            vps.clear()
            vns.clear()
            vp, vn = marks[lo // span]
            vps.append(vp)
            vns.append(vn)
            for vp, vn in _columns(peq, n, hyp[lo : lo + span], vp, vn):
                vps.append(vp)
                vns.append(vn)
        left = cell(i, j - 1) if j else 0
    # on the top row only insertions remain, in the left column only deletions
    return EditCounts(s=s, d=d + i, i=ins + j, n=full_n)
